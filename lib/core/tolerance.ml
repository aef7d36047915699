type subsystem = Network_latency | Memory_latency

type ideal_method = Zero_delay | Zero_remote

type zone = Tolerated | Partially_tolerated | Not_tolerated

type report = {
  subsystem : subsystem;
  ideal_method : ideal_method;
  tol : float;
  u_p : float;
  u_p_ideal : float;
  zone : zone;
  real : Measures.t;
  ideal : Measures.t;
}

let zone_of_index tol =
  if tol >= 0.8 then Tolerated
  else if tol >= 0.5 then Partially_tolerated
  else Not_tolerated

let ideal_params subsystem meth p =
  match (subsystem, meth) with
  | Network_latency, Zero_delay -> { p with Params.s_switch = 0. }
  | Network_latency, Zero_remote ->
    (* Every access becomes local.  Explicit matrices encode the remote
       fraction themselves, so the pattern must be replaced too (with
       p_remote = 0 the pattern choice is immaterial). *)
    { p with Params.p_remote = 0.; pattern = Lattol_topology.Access.Uniform }
  | Memory_latency, Zero_delay -> { p with Params.l_mem = 0. }
  | Memory_latency, Zero_remote ->
    invalid_arg
      "Tolerance.ideal_params: p_remote = 0 does not idealize the memory \
       subsystem; use Zero_delay"

let default_method = function
  | Network_latency -> Zero_remote
  | Memory_latency -> Zero_delay

let of_measures ?ideal_method subsystem ~real ~ideal =
  let meth =
    match ideal_method with Some m -> m | None -> default_method subsystem
  in
  let u_p = real.Measures.u_p and u_p_ideal = ideal.Measures.u_p in
  let tol = if Float.equal u_p_ideal 0. then 1. else u_p /. u_p_ideal in
  { subsystem; ideal_method = meth; tol; u_p; u_p_ideal; zone = zone_of_index tol; real; ideal }

let index ?solver ?ideal_method subsystem p =
  let meth =
    match ideal_method with Some m -> m | None -> default_method subsystem
  in
  let real = Mms.solve ?solver p in
  let ideal = Mms.solve ?solver (ideal_params subsystem meth p) in
  of_measures ~ideal_method:meth subsystem ~real ~ideal

let network ?solver ?ideal_method p =
  index ?solver ?ideal_method Network_latency p

let memory ?solver p = index ?solver Memory_latency p

let threads_needed ?(target = 0.8) ?(max_threads = 16) subsystem p =
  if target <= 0. then invalid_arg "Tolerance.threads_needed: target > 0";
  if max_threads < 1 then
    invalid_arg "Tolerance.threads_needed: max_threads >= 1";
  let rec search n_t =
    if n_t > max_threads then None
    else begin
      let r = index subsystem { p with Params.n_t } in
      if r.tol >= target then Some n_t else search (n_t + 1)
    end
  in
  search 1

let zone_to_string = function
  | Tolerated -> "tolerated"
  | Partially_tolerated -> "partially tolerated"
  | Not_tolerated -> "not tolerated"

let subsystem_to_string = function
  | Network_latency -> "network"
  | Memory_latency -> "memory"

let pp_report ppf r =
  Fmt.pf ppf "@[tol_%s = %.4f (U_p %.4f vs ideal %.4f; %s; ideal via %s)@]"
    (subsystem_to_string r.subsystem)
    r.tol r.u_p r.u_p_ideal
    (zone_to_string r.zone)
    (match r.ideal_method with
    | Zero_delay -> "zero delay"
    | Zero_remote -> "p_remote = 0")
