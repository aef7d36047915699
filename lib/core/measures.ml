type t = {
  u_p : float;
  lambda : float;
  lambda_net : float;
  s_obs : float;
  l_obs : float;
  cycle_time : float;
  util_memory : float;
  util_switch_in : float;
  util_switch_out : float;
  util_sync : float;
  su_obs : float;
  queue_processor : float;
  queue_memory : float;
  queue_network : float;
  iterations : int;
  converged : bool;
}

let system_throughput t ~num_processors = float_of_int num_processors *. t.lambda

let pp ppf t =
  Fmt.pf ppf
    "@[<v>U_p        = %.4f%s@,lambda     = %.4f@,lambda_net = %.4f@,\
     S_obs      = %.3f@,L_obs      = %.3f@,cycle      = %.3f@,\
     util: mem %.3f, sw_in %.3f, sw_out %.3f, su %.3f@,\
     queue: proc %.3f, mem %.3f, net %.3f@]"
    t.u_p
    (if t.converged then "" else " (UNCONVERGED)")
    t.lambda t.lambda_net t.s_obs t.l_obs t.cycle_time t.util_memory
    t.util_switch_in t.util_switch_out t.util_sync t.queue_processor
    t.queue_memory t.queue_network
