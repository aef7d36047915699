open Lattol_topology
open Lattol_queueing

type group = {
  name : string;
  count : int;
  runlength : float;
  p_remote : float;
  pattern : Access.pattern;
}

type group_measures = {
  group : group;
  lambda : float;
  occupancy : float;
  lambda_net : float;
  s_obs : float;
  l_obs : float;
  cycle_time : float;
}

type t = {
  groups : group_measures list;
  u_p : float;
  converged : bool;
}

(* The machine parameters seen by one kind: same hardware, that kind's
   workload knobs. *)
let group_params base g =
  Params.validate_exn
    {
      base with
      Params.n_t = g.count;
      runlength = g.runlength;
      p_remote = g.p_remote;
      pattern = g.pattern;
    }

let solve ~base groups =
  if groups = [] then invalid_arg "Hetero.solve: no thread groups";
  List.iter
    (fun g ->
      if g.count < 0 then invalid_arg "Hetero.solve: negative thread count";
      if g.runlength <= 0. then invalid_arg "Hetero.solve: runlength > 0")
    groups;
  if List.for_all (fun g -> g.count = 0) groups then
    invalid_arg "Hetero.solve: all groups empty";
  let n = Params.num_processors base in
  (* Station layout straight from the homogeneous builder (populations are
     irrelevant to the stations). *)
  let skeleton =
    Mms.build_network (Params.validate_exn { base with Params.n_t = 0 })
  in
  let stations =
    Array.init (Network.num_stations skeleton) (fun m ->
        (Network.station_name skeleton m, Network.station_kind skeleton m))
  in
  let group_array = Array.of_list groups in
  let classes =
    Array.concat
      (List.map
         (fun g ->
           let gp = group_params base g in
           Array.init n (fun node ->
               {
                 Network.class_name = Printf.sprintf "%s@%d" g.name node;
                 population = g.count;
                 visits = Mms.class_visits gp ~cls:node;
                 service = Mms.class_service gp;
               }))
         groups)
  in
  let network = Network.make ~stations ~classes in
  let solution = Amva.solve network in
  let per_group gi g =
    let gp = group_params base g in
    let access = Params.make_access gp in
    let lambda_sum = ref 0. in
    let remote_rate = ref 0. in
    let mem_rate = ref 0. in
    let switch_rate = ref 0. in
    let cycle_sum = ref 0. in
    for node = 0 to n - 1 do
      let cls = (gi * n) + node in
      let lam = solution.Solution.throughput.(cls) in
      lambda_sum := !lambda_sum +. lam;
      remote_rate := !remote_rate +. (lam *. Access.remote_fraction access ~src:node);
      let range lo hi =
        let acc = ref 0. in
        for m = lo to hi - 1 do
          acc := !acc +. solution.Solution.residence.(cls).(m)
        done;
        !acc
      in
      mem_rate := !mem_rate +. (lam *. range n (2 * n));
      switch_rate := !switch_rate +. (lam *. range (2 * n) (4 * n));
      cycle_sum := !cycle_sum +. Solution.cycle_time solution ~cls
    done;
    let nf = float_of_int n in
    let lambda = !lambda_sum /. nf in
    {
      group = g;
      lambda;
      occupancy = lambda *. (g.runlength +. base.Params.context_switch);
      lambda_net = !remote_rate /. nf;
      s_obs =
        (if Float.equal !remote_rate 0. then nan
         else !switch_rate /. (2. *. !remote_rate));
      l_obs = (if Float.equal !lambda_sum 0. then 0. else !mem_rate /. !lambda_sum);
      cycle_time = !cycle_sum /. nf;
    }
  in
  let measures = List.mapi per_group (Array.to_list group_array) in
  {
    groups = measures;
    u_p = List.fold_left (fun acc m -> acc +. m.occupancy) 0. measures;
    converged = solution.Solution.converged;
  }

let pp_group ppf m =
  Fmt.pf ppf
    "@[%-12s x%-2d R=%-5g lambda=%.4f occupancy=%.4f lambda_net=%.4f \
     S_obs=%.3f L_obs=%.3f@]"
    m.group.name m.group.count m.group.runlength m.lambda m.occupancy
    m.lambda_net m.s_obs m.l_obs
