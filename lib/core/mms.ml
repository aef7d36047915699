open Lattol_topology
open Lattol_queueing

let log_src = Logs.Src.create "lattol.mms" ~doc:"MMS model solver"

module Log = (val Logs.src_log log_src)

type solver = Symmetric_amva | General_amva | Linearizer_amva | Exact_mva

let has_sync_unit p = p.Params.sync_unit > 0.

let stations_per_node p = if has_sync_unit p then 5 else 4

let num_stations p = stations_per_node p * Params.num_processors p

let processor_station p ~node =
  assert (node >= 0 && node < Params.num_processors p);
  node

let memory_station p ~node = Params.num_processors p + node

let inbound_station p ~node = (2 * Params.num_processors p) + node

let outbound_station p ~node = (3 * Params.num_processors p) + node

let sync_station p ~node =
  if not (has_sync_unit p) then
    invalid_arg "Mms.sync_station: this machine has no synchronization unit";
  (4 * Params.num_processors p) + node

(* A machine under solution: the topology and access pattern are built
   once and shared by the class visits, the network and the measures.
   [em] is the access matrix ([em.(src).(dst) = Access.prob]), read
   directly in the loops over class and destination pairs. *)
type machine = {
  p : Params.t;
  n : int;
  topo : Topology.t;
  access : Access.t;
  em : float array array;
}

let machine p =
  let topo = Params.make_topology p in
  let access = Access.create topo p.Params.pattern ~p_remote:p.Params.p_remote in
  { p; n = Params.num_processors p; topo; access; em = Access.matrix access }

let visits_of m ~cls =
  let p = m.p in
  let v = Array.make (num_stations p) 0. in
  v.(processor_station p ~node:cls) <- 1.;
  for dst = 0 to m.n - 1 do
    let em = m.em.(cls).(dst) in
    if em > 0. then begin
      v.(memory_station p ~node:dst) <- em;
      if dst <> cls then begin
        (* With an SU the remote access is injected at the source SU,
           handled at the destination SU, and completed at the source SU. *)
        if has_sync_unit p then begin
          v.(sync_station p ~node:cls) <- v.(sync_station p ~node:cls) +. (2. *. em);
          v.(sync_station p ~node:dst) <- v.(sync_station p ~node:dst) +. em
        end;
        (* Request enters the IN at the source's outbound switch ... *)
        v.(outbound_station p ~node:cls) <-
          v.(outbound_station p ~node:cls) +. em;
        (* ... and the response leaves the remote memory through the
           destination's outbound switch. *)
        v.(outbound_station p ~node:dst) <-
          v.(outbound_station p ~node:dst) +. em;
        (* Inbound switches along both directions of the round trip. *)
        let charge hop =
          v.(inbound_station p ~node:hop) <- v.(inbound_station p ~node:hop) +. em
        in
        Topology.iter_route m.topo ~src:cls ~dst charge;
        Topology.iter_route m.topo ~src:dst ~dst:cls charge
      end
    end
  done;
  v

let class_visits p ~cls =
  let m = machine p in
  if cls < 0 || cls >= m.n then invalid_arg "Mms.class_visits: class out of range";
  visits_of m ~cls

let class_service p =
  let n = Params.num_processors p in
  let s = Array.make (num_stations p) 0. in
  for node = 0 to n - 1 do
    s.(processor_station p ~node) <- Params.processor_occupancy p;
    s.(memory_station p ~node) <- p.Params.l_mem;
    s.(inbound_station p ~node) <- p.Params.s_switch;
    s.(outbound_station p ~node) <- p.Params.s_switch;
    if has_sync_unit p then s.(sync_station p ~node) <- p.Params.sync_unit
  done;
  s

let memory_kind p =
  if p.Params.mem_ports > 1 then Network.Multi_server p.Params.mem_ports
  else Network.Queueing

let switch_kind p =
  if p.Params.switch_pipeline > 1 then
    Network.Multi_server p.Params.switch_pipeline
  else Network.Queueing

let station_spec p =
  let n = Params.num_processors p in
  Array.init (num_stations p) (fun m ->
      let node = m mod n in
      match m / n with
      | 0 -> (Printf.sprintf "proc%d" node, Network.Queueing)
      | 1 -> (Printf.sprintf "mem%d" node, memory_kind p)
      | 2 -> (Printf.sprintf "in%d" node, switch_kind p)
      | 3 -> (Printf.sprintf "out%d" node, switch_kind p)
      | _ -> (Printf.sprintf "su%d" node, Network.Queueing))

let network_of m =
  let p = m.p in
  let service = class_service p in
  let classes =
    Array.init m.n (fun cls ->
        {
          Network.class_name = Printf.sprintf "pe%d" cls;
          population = p.Params.n_t;
          visits = visits_of m ~cls;
          service = Array.copy service;
        })
  in
  Network.make ~stations:(station_spec p) ~classes

let build_network p = network_of (machine p)

(* The symmetric fixed point: class 0's residence and queue vectors.  By
   SPMD symmetry they are the whole solution up to torus translation (see
   [translated]). *)
type orbit = {
  residence : float array;
  queue : float array;
  lambda : float;
  iterations : int;
  converged : bool;
}

(* Where the symmetric fixed point stands after a sweep. *)
type state = Sweeping | Converged | Zero_cycle | Non_finite | Aborted

(* Loop-carried floats, kept unboxed in a flat all-float record. *)
type sweep_floats = { mutable lam : float; mutable residual : float }

let solve_symmetric ?(tolerance = 1e-10) ?(max_iterations = 100_000)
    ?(damping = 0.) ?on_sweep m =
  if not (damping >= 0. && damping < 1.) then
    invalid_arg "Mms.solve_symmetric: damping in [0, 1)";
  let p = m.p and n = m.n in
  let nst = num_stations p in
  let visits = visits_of m ~cls:0 in
  let service = class_service p in
  let pop = float_of_int p.Params.n_t in
  let q = Array.make nst 0. in
  let visited = ref 0 in
  Array.iter (fun v -> if v > 0. then incr visited) visits;
  Array.iteri
    (fun m v -> if v > 0. then q.(m) <- pop /. float_of_int !visited)
    visits;
  let w = Array.make nst 0. in
  let residence = Array.make nst 0. in
  let fl = { lam = 0.; residual = 0. } in
  let iterations = ref 0 in
  let state = ref Sweeping in
  let num_types = stations_per_node p in
  (* The fixed point proper.  Everything above runs once per solve; a
     sweep allocates nothing, and the warnings wait until the loop ends.
     Stations are visited type by type, node by node: station
     [kind * n + node], in index order. *)
  let[@lattol.hot] iterate () =
    let total = ref 0. and cycle = ref 0. and max_delta = ref 0. in
    while !state = Sweeping && !iterations < max_iterations do
      incr iterations;
      cycle := 0.;
      for kind = 0 to num_types - 1 do
        let base = kind * n in
        (* By vertex transitivity the all-class queue at every station of
           a type equals the sum of class-0 queues over that type. *)
        total := 0.;
        for node = 0 to n - 1 do
          total := !total +. q.(base + node)
        done;
        (* Memory and switch stations may be multiported/pipelined; use
           the same conditional-wait form as the multi-class AMVA
           solver. *)
        let ports =
          match kind with
          | 1 -> p.Params.mem_ports
          | 2 | 3 -> p.Params.switch_pipeline
          | _ -> 1
        in
        for m = base to base + n - 1 do
          if visits.(m) > 0. then begin
            let seen = !total -. (q.(m) /. pop) in
            if ports = 1 then w.(m) <- service.(m) *. (1. +. seen)
            else begin
              let cf = float_of_int ports in
              let excess = Float.max 0. (seen -. (cf -. 1.)) in
              w.(m) <- service.(m) +. (service.(m) /. cf *. excess)
            end;
            residence.(m) <- visits.(m) *. w.(m);
            cycle := !cycle +. residence.(m)
          end
        done
      done;
      if !cycle <= 0. then begin
        (* All service demands are zero: no fixed point exists (pop / 0). *)
        fl.lam <- 0.;
        state := Zero_cycle
      end
      else begin
        fl.lam <- pop /. !cycle;
        max_delta := 0.;
        for m = 0 to nst - 1 do
          if visits.(m) > 0. then begin
            let updated =
              (damping *. q.(m)) +. ((1. -. damping) *. (fl.lam *. residence.(m)))
            in
            let delta = abs_float (updated -. q.(m)) in
            (* NaN-catching accumulation; see the matching comment in Amva. *)
            if not (delta <= !max_delta) then max_delta := delta;
            q.(m) <- updated
          end
        done;
        fl.residual <- !max_delta;
        if not (Float.is_finite !max_delta) then state := Non_finite
        else if !max_delta < tolerance then state := Converged
        else
          match on_sweep with
          | None -> ()
          | Some f -> (
            match f ~iteration:!iterations ~residual:!max_delta with
            | Amva.Continue -> ()
            | Amva.Abort -> state := Aborted)
      end
    done
  in
  iterate ();
  (match !state with
  | Converged ->
    Log.debug (fun m ->
        m "symmetric fixed point in %d iterations (P = %d)" !iterations n)
  | Sweeping ->
    Log.warn (fun m ->
        m "symmetric solver hit the %d-iteration cap" max_iterations)
  | Zero_cycle ->
    Log.warn (fun m ->
        m "zero cycle demand at iteration %d; throughput forced to 0"
          !iterations)
  | Non_finite ->
    Log.warn (fun m ->
        m "non-finite residual %g at iteration %d; aborting" fl.residual
          !iterations)
  | Aborted -> ());
  {
    residence;
    queue = q;
    lambda = fl.lam;
    iterations = !iterations;
    converged = !state = Converged;
  }

(* Class [cls]'s entry for station [st] of the orbit vector [v]: SPMD
   symmetry means class [cls] sees station [st] exactly as class 0 sees
   the station of the same type at node [node - cls]. *)
let translated m ~sub v cls st =
  v.((st / m.n * m.n) + sub.(st mod m.n).(cls))

let expand m o =
  let sub = Topology.subtract_table m.topo in
  let nst = num_stations m.p in
  let per_class v = Array.init m.n (fun cls -> Array.init nst (translated m ~sub v cls)) in
  {
    Solution.network = network_of m;
    throughput = Array.make m.n o.lambda;
    residence = per_class o.residence;
    queue = per_class o.queue;
    iterations = o.iterations;
    converged = o.converged;
  }

(* Class [cls]'s visit ratio at station [st], torus only.  It adds the
   terms [visits_of] adds to that station, in the same order, so the two
   agree bit for bit; translating class 0's vector instead would be off
   by an ulp wherever the destination order changes a sum.
   [through x ~src ~dst] says whether node [x] lies on that route. *)
let replay_visit m ~through ~cls st =
  let node = st mod m.n in
  match st / m.n with
  | 0 -> if cls = node then 1. else 0.
  | 1 ->
    let em = m.em.(cls).(node) in
    if em > 0. then em else 0.
  | kind ->
    let acc = ref 0. in
    for dst = 0 to m.n - 1 do
      let em = m.em.(cls).(dst) in
      if em > 0. && dst <> cls then
        match kind with
        | 2 ->
          if through node ~src:cls ~dst then acc := !acc +. em;
          if through node ~src:dst ~dst:cls then acc := !acc +. em
        | 3 -> if cls = node || dst = node then acc := !acc +. em
        | _ ->
          if cls = node then acc := !acc +. (2. *. em)
          else if dst = node then acc := !acc +. em
    done;
    !acc

(* The paper's measures, read through per-class accessors ([throughput],
   [residence], [queue]) and per-station all-class totals
   ([utilization], [queue_total]): one set of formulas, fed either by a
   full [Solution.t] or by the orbit. *)
let measures m ~throughput ~residence ~queue ~utilization ~queue_total
    ~iterations ~converged =
  let p = m.p and n = m.n in
  (* Per-class, per-range residence sums (memory = stations [n, 2n),
     switches = [2n, 4n)). *)
  let sum_range cls lo hi =
    let acc = ref 0. in
    for st = lo to hi - 1 do
      acc := !acc +. residence cls st
    done;
    !acc
  in
  (* With a translation-invariant pattern every class is identical and
     class 0 is exactly representative; otherwise average over classes,
     weighting per-access quantities by class rates. *)
  let classes =
    if Access.is_translation_invariant m.access then [ 0 ]
    else List.init n Fun.id
  in
  let count = float_of_int (List.length classes) in
  let lambda_sum = ref 0. in
  let remote_rate_sum = ref 0. in
  let mem_time_rate = ref 0. in
  let switch_time_rate = ref 0. in
  let su_time_rate = ref 0. in
  let cycle_sum = ref 0. in
  List.iter
    (fun cls ->
      let lam = throughput cls in
      lambda_sum := !lambda_sum +. lam;
      remote_rate_sum :=
        !remote_rate_sum +. (lam *. Access.remote_fraction m.access ~src:cls);
      mem_time_rate := !mem_time_rate +. (lam *. sum_range cls n (2 * n));
      switch_time_rate :=
        !switch_time_rate +. (lam *. sum_range cls (2 * n) (4 * n));
      if has_sync_unit p then
        su_time_rate := !su_time_rate +. (lam *. sum_range cls (4 * n) (5 * n));
      cycle_sum := !cycle_sum +. sum_range cls 0 (num_stations p))
    classes;
  let lambda = !lambda_sum /. count in
  let lambda_net = !remote_rate_sum /. count in
  let s_obs =
    if Float.equal !remote_rate_sum 0. then nan
    else !switch_time_rate /. (2. *. !remote_rate_sum)
  in
  let l_obs = if Float.equal !lambda_sum 0. then 0. else !mem_time_rate /. !lambda_sum in
  let avg_station_stat f offset =
    if List.compare_length_with classes 1 = 0 then f (offset 0)
    else begin
      let acc = ref 0. in
      for node = 0 to n - 1 do
        acc := !acc +. f (offset node)
      done;
      !acc /. float_of_int n
    end
  in
  let queue_network = ref 0. in
  List.iter
    (fun cls ->
      for st = 2 * n to (4 * n) - 1 do
        queue_network := !queue_network +. queue cls st
      done)
    classes;
  {
    Measures.u_p = lambda *. Params.processor_occupancy p;
    lambda;
    lambda_net;
    s_obs;
    l_obs;
    cycle_time = !cycle_sum /. count;
    util_memory = avg_station_stat utilization (fun node -> memory_station p ~node);
    util_switch_in =
      avg_station_stat utilization (fun node -> inbound_station p ~node);
    util_switch_out =
      avg_station_stat utilization (fun node -> outbound_station p ~node);
    util_sync =
      (if has_sync_unit p then
         avg_station_stat utilization (fun node -> sync_station p ~node)
       else 0.);
    su_obs =
      (if not (has_sync_unit p) then 0.
       else if Float.equal !remote_rate_sum 0. then nan
       else !su_time_rate /. !remote_rate_sum);
    queue_processor =
      (let acc = ref 0. in
       List.iter
         (fun cls -> acc := !acc +. queue cls (processor_station p ~node:cls))
         classes;
       !acc /. count);
    queue_memory =
      avg_station_stat queue_total (fun node -> memory_station p ~node);
    queue_network = !queue_network /. count;
    iterations;
    converged;
  }

let measures_of_full m (s : Solution.t) =
  measures m
    ~throughput:(fun cls -> s.throughput.(cls))
    ~residence:(fun cls st -> s.residence.(cls).(st))
    ~queue:(fun cls st -> s.queue.(cls).(st))
    ~utilization:(fun station -> Solution.utilization s ~station)
    ~queue_total:(fun station -> Solution.queue_total s ~station)
    ~iterations:s.iterations ~converged:s.converged

let measures_of_solution p solution = measures_of_full (machine p) solution

let measures_of_orbit m o =
  let n = m.n in
  let sub = Topology.subtract_table m.topo in
  (* Node [x] lies on route [src -> dst] exactly when [x - src] lies on
     route [0 -> dst - src]: dimension-order routing commutes with torus
     translation, so node 0's routes answer for every class. *)
  let from_zero =
    Array.init n (fun dst ->
        let on = Array.make n false in
        Topology.iter_route m.topo ~src:0 ~dst (fun hop -> on.(hop) <- true);
        on)
  in
  let through x ~src ~dst = from_zero.(sub.(dst).(src)).(sub.(x).(src)) in
  let service = class_service m.p in
  (* Each class's own visit ratio, added in class order as
     [Solution.utilization] adds them. *)
  let utilization st =
    let acc = ref 0. in
    for cls = 0 to n - 1 do
      acc := !acc +. (o.lambda *. (replay_visit m ~through ~cls st *. service.(st)))
    done;
    !acc
  in
  let queue_total st =
    let acc = ref 0. in
    for cls = 0 to n - 1 do
      acc := !acc +. translated m ~sub o.queue cls st
    done;
    !acc
  in
  measures m
    ~throughput:(fun _ -> o.lambda)
    ~residence:(translated m ~sub o.residence)
    ~queue:(translated m ~sub o.queue)
    ~utilization ~queue_total ~iterations:o.iterations ~converged:o.converged

(* [Access.is_translation_invariant (Params.make_access p)], read off
   the record: the built-in patterns depend only on hop distance, so the
   answer is the pattern and the topology kind, and nothing is built. *)
let symmetric_applicable p =
  match p.Params.pattern with
  | Access.Explicit _ -> false
  | Access.Geometric _ | Access.Uniform ->
    p.Params.topology = Topology.Torus || Params.num_processors p = 1

let solver_label = function
  | Symmetric_amva -> "symmetric"
  | General_amva -> "amva"
  | Linearizer_amva -> "linearizer"
  | Exact_mva -> "exact"

let default_solver p =
  if symmetric_applicable p then Symmetric_amva else General_amva

(* What a solver returns: the symmetric one its orbit, the others a full
   multi-class solution. *)
type outcome = Orbit of orbit | Full of Solution.t

let run ?solver ?tolerance ?max_iterations ?damping ?on_sweep m =
  let symmetric = Access.is_translation_invariant m.access in
  let solver =
    match solver with
    | Some s -> s
    | None -> if symmetric then Symmetric_amva else General_amva
  in
  (* Periodic sweep summaries at debug verbosity (-v -v on the CLI),
     composed with whatever observer the caller installed. *)
  let on_sweep =
    Some
      (fun ~iteration ~residual ->
        if iteration mod 200 = 0 then
          Log.debug (fun m ->
              m "%s sweep %d: residual %.3g" (solver_label solver) iteration
                residual);
        match on_sweep with
        | None -> Amva.Continue
        | Some f -> f ~iteration ~residual)
  in
  let amva_options =
    {
      Amva.tolerance =
        Option.value tolerance ~default:Amva.default_options.Amva.tolerance;
      max_iterations =
        Option.value max_iterations
          ~default:Amva.default_options.Amva.max_iterations;
      damping = Option.value damping ~default:Amva.default_options.Amva.damping;
      on_sweep;
    }
  in
  let outcome =
    match solver with
    | Symmetric_amva ->
      if not symmetric then
        invalid_arg
          "Mms.solve_network: symmetric solver needs a torus with a \
           translation-invariant access pattern";
      Orbit (solve_symmetric ?tolerance ?max_iterations ?damping ?on_sweep m)
    | General_amva -> Full (Amva.solve ~options:amva_options (network_of m))
    | Linearizer_amva ->
      Full (Linearizer.solve ~options:amva_options (network_of m))
    | Exact_mva -> Full (Mva.solve (network_of m))
  in
  let iterations, converged =
    match outcome with
    | Orbit o -> (o.iterations, o.converged)
    | Full s -> (s.Solution.iterations, s.Solution.converged)
  in
  Log.debug (fun m ->
      m "%s solver %s in %d sweeps" (solver_label solver)
        (if converged then "converged" else "did not converge")
        iterations);
  outcome

let solve_network ?solver ?tolerance ?max_iterations ?damping ?on_sweep p =
  let m = machine p in
  match run ?solver ?tolerance ?max_iterations ?damping ?on_sweep m with
  | Orbit o -> expand m o
  | Full s -> s

let zero_measures =
  {
    Measures.u_p = 0.;
    lambda = 0.;
    lambda_net = 0.;
    s_obs = nan;
    l_obs = 0.;
    cycle_time = 0.;
    util_memory = 0.;
    util_switch_in = 0.;
    util_switch_out = 0.;
    util_sync = 0.;
    su_obs = 0.;
    queue_processor = 0.;
    queue_memory = 0.;
    queue_network = 0.;
    iterations = 0;
    converged = true;
  }

let solve ?solver ?tolerance ?max_iterations ?on_sweep p =
  let p = Params.validate_exn p in
  if p.Params.n_t = 0 then zero_measures
  else begin
    let m = machine p in
    match run ?solver ?tolerance ?max_iterations ?on_sweep m with
    | Orbit o -> measures_of_orbit m o
    | Full s -> measures_of_full m s
  end
