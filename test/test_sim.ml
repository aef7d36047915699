(* Tests for the discrete-event simulation substrate: the event engine,
   the generic FCFS station, and the end-to-end MMS simulator held against
   the analytical model. *)

open Lattol_stats
open Lattol_sim
open Lattol_core

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:3. (fun () -> log := 3 :: !log);
  Engine.schedule e ~delay:1. (fun () -> log := 1 :: !log);
  Engine.schedule e ~delay:2. (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "ascending" [ 1; 2; 3 ] (List.rev !log);
  close "clock at last event" 3. (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1. (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "schedule order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:1. (fun () -> incr fired);
  Engine.schedule e ~delay:5. (fun () -> incr fired);
  Engine.run ~until:2. e;
  Alcotest.(check int) "only first" 1 !fired;
  close "clock clamped" 2. (Engine.now e);
  Engine.run ~until:10. e;
  Alcotest.(check int) "second fires later" 2 !fired

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule_cancellable e ~delay:1. (fun () -> fired := true) in
  Engine.cancel e h;
  Engine.run e;
  Alcotest.(check bool) "cancelled" false !fired;
  Alcotest.(check int) "nothing pending" 0 (Engine.pending e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let times = ref [] in
  Engine.schedule e ~delay:1. (fun () ->
      times := Engine.now e :: !times;
      Engine.schedule e ~delay:1.5 (fun () -> times := Engine.now e :: !times));
  Engine.run e;
  Alcotest.(check (list (float 1e-9))) "chained times" [ 1.; 2.5 ] (List.rev !times)

let test_engine_invalid () =
  let e = Engine.create () in
  Alcotest.(check bool) "negative delay" true
    (try
       Engine.schedule e ~delay:(-1.) (fun () -> ());
       false
     with Invalid_argument _ -> true);
  Engine.schedule e ~delay:5. (fun () -> ());
  Engine.run e;
  Alcotest.(check bool) "past time" true
    (try
       Engine.schedule_at e ~time:1. (fun () -> ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Station *)

let test_station_fcfs_deterministic () =
  let e = Engine.create () in
  let rng = Prng.create () in
  let st = Station.create e ~rng ~name:"s" ~service:(Variate.Deterministic 2.) in
  let done_order = ref [] in
  Station.submit st 1 (fun j -> done_order := (j, Engine.now e) :: !done_order);
  Station.submit st 2 (fun j -> done_order := (j, Engine.now e) :: !done_order);
  Alcotest.(check int) "two present" 2 (Station.queue_length st);
  Engine.run e;
  Alcotest.(check (list (pair int (float 1e-9)))) "completion order"
    [ (1, 2.); (2, 4.) ]
    (List.rev !done_order);
  Alcotest.(check int) "completed" 2 (Station.completed st);
  close "utilization" 1. (Station.utilization st);
  close ~eps:1e-9 "mean queue" 1.5 (Station.mean_queue_length st)

let test_station_response_times () =
  let e = Engine.create () in
  let rng = Prng.create () in
  let st = Station.create e ~rng ~name:"s" ~service:(Variate.Deterministic 1.) in
  Station.submit st () (fun () -> ());
  Station.submit st () (fun () -> ());
  Engine.run e;
  let m = Station.response_times st in
  Alcotest.(check int) "count" 2 (Moments.count m);
  close "mean response (1 + 2)/2" 1.5 (Moments.mean m)

let test_station_reset_stats () =
  let e = Engine.create () in
  let rng = Prng.create () in
  let st = Station.create e ~rng ~name:"s" ~service:(Variate.Deterministic 1.) in
  Station.submit st () (fun () -> ());
  Engine.run e;
  Station.reset_stats st;
  Alcotest.(check int) "zeroed" 0 (Station.completed st);
  Alcotest.(check int) "response cleared" 0 (Moments.count (Station.response_times st))

let test_station_closed_loop_vs_mva () =
  (* Machine repairman in DES form: N jobs cycling think (delay simulated
     by scheduling) -> repair station.  Compare to exact MVA. *)
  let n = 4 and think = 5. and repair = 1. in
  let e = Engine.create () in
  let rng = Prng.create ~seed:123 () in
  let st = Station.create e ~rng ~name:"repair" ~service:(Variate.Exponential repair) in
  let completions = ref 0 in
  let rec cycle () =
    let z = Variate.exponential rng ~mean:think in
    Engine.schedule e ~delay:z (fun () ->
        Station.submit st () (fun () ->
            incr completions;
            cycle ()))
  in
  for _ = 1 to n do
    cycle ()
  done;
  let horizon = 200_000. in
  Engine.run ~until:horizon e;
  let x_sim = float_of_int !completions /. horizon in
  let nw =
    Lattol_queueing.Network.make
      ~stations:
        [| ("think", Lattol_queueing.Network.Delay);
           ("repair", Lattol_queueing.Network.Queueing) |]
      ~classes:
        [|
          {
            Lattol_queueing.Network.class_name = "jobs";
            population = n;
            visits = [| 1.; 1. |];
            service = [| think; repair |];
          };
        |]
  in
  let x_exact = (Lattol_queueing.Mva.solve nw).Lattol_queueing.Solution.throughput.(0) in
  if abs_float (x_sim -. x_exact) /. x_exact > 0.03 then
    Alcotest.failf "repairman sim %g vs exact %g" x_sim x_exact

(* ------------------------------------------------------------------ *)
(* Multi-server and priority stations *)

let test_station_two_servers_parallel () =
  let e = Engine.create () in
  let rng = Prng.create () in
  let st =
    Station.create ~servers:2 e ~rng ~name:"s" ~service:(Variate.Deterministic 2.)
  in
  let finished = ref [] in
  for j = 1 to 3 do
    Station.submit st j (fun j -> finished := (j, Engine.now e) :: !finished)
  done;
  Engine.run e;
  (* two run in parallel (finish at t=2), the third waits (t=4) *)
  Alcotest.(check (list (pair int (float 1e-9)))) "parallel then queued"
    [ (1, 2.); (2, 2.); (3, 4.) ]
    (List.rev !finished);
  Alcotest.(check int) "servers accessor" 2 (Station.servers st)

let test_station_two_servers_vs_mm2_theory () =
  (* Closed M/M/2//N against the exact multi-server convolution. *)
  let n = 6 and think = 3. and repair = 2. in
  let e = Engine.create () in
  let rng = Prng.create ~seed:77 () in
  let st =
    Station.create ~servers:2 e ~rng ~name:"pool"
      ~service:(Variate.Exponential repair)
  in
  let completions = ref 0 in
  let rec cycle () =
    Engine.schedule e ~delay:(Variate.exponential rng ~mean:think) (fun () ->
        Station.submit st () (fun () ->
            incr completions;
            cycle ()))
  in
  for _ = 1 to n do
    cycle ()
  done;
  let horizon = 200_000. in
  Engine.run ~until:horizon e;
  let x_sim = float_of_int !completions /. horizon in
  let nw =
    Lattol_queueing.Network.make
      ~stations:
        [| ("think", Lattol_queueing.Network.Delay);
           ("pool", Lattol_queueing.Network.Multi_server 2) |]
      ~classes:
        [|
          {
            Lattol_queueing.Network.class_name = "jobs";
            population = n;
            visits = [| 1.; 1. |];
            service = [| think; repair |];
          };
        |]
  in
  let x_exact =
    (Lattol_queueing.Convolution.solve nw).Lattol_queueing.Solution.throughput.(0)
  in
  if abs_float (x_sim -. x_exact) /. x_exact > 0.03 then
    Alcotest.failf "M/M/2 closed: sim %g vs exact %g" x_sim x_exact

let test_station_priority_order () =
  let e = Engine.create () in
  let rng = Prng.create () in
  let st =
    Station.create ~priority_levels:2 e ~rng ~name:"s"
      ~service:(Variate.Deterministic 1.)
  in
  let order = ref [] in
  let note j = order := j :: !order in
  (* Fill the server, then enqueue low before high: high must overtake. *)
  Station.submit st 0 note;
  Station.submit ~priority:1 st 1 note;
  Station.submit ~priority:1 st 2 note;
  Station.submit ~priority:0 st 3 note;
  Engine.run e;
  Alcotest.(check (list int)) "high priority overtakes" [ 0; 3; 1; 2 ]
    (List.rev !order)

let test_station_priority_clamped () =
  let e = Engine.create () in
  let rng = Prng.create () in
  let st = Station.create e ~rng ~name:"s" ~service:(Variate.Deterministic 1.) in
  let got = ref 0 in
  (* out-of-range priorities are clamped, not rejected *)
  Station.submit ~priority:42 st () (fun () -> incr got);
  Station.submit ~priority:(-3) st () (fun () -> incr got);
  Engine.run e;
  Alcotest.(check int) "both served" 2 !got

let test_des_local_priority_runs () =
  let p = { Params.default with Params.k = 2; n_t = 2 } in
  let cfg =
    {
      Mms_des.default_config with
      Mms_des.horizon = 5_000.;
      local_memory_priority = true;
    }
  in
  let r = Mms_des.run ~config:cfg p in
  Alcotest.(check bool) "valid U_p" true
    (r.Mms_des.measures.Measures.u_p > 0.
    && r.Mms_des.measures.Measures.u_p <= 1.)

(* ------------------------------------------------------------------ *)
(* Mms_des *)

let test_des_reproducible () =
  let cfg = { Mms_des.default_config with Mms_des.horizon = 5_000. } in
  let p = { Params.default with Params.k = 2; n_t = 2 } in
  let a = Mms_des.run ~config:cfg p and b = Mms_des.run ~config:cfg p in
  close "same U_p for same seed" a.Mms_des.measures.Measures.u_p
    b.Mms_des.measures.Measures.u_p;
  let c = Mms_des.run ~config:{ cfg with Mms_des.seed = 99 } p in
  Alcotest.(check bool) "different seed differs" true
    (abs_float (a.Mms_des.measures.Measures.u_p -. c.Mms_des.measures.Measures.u_p)
    > 1e-12)

let test_des_vs_exact_mva_tiny () =
  (* On a tiny MMS the exact MVA solution is the stationary truth. *)
  let p = { Params.default with Params.k = 2; n_t = 2; p_remote = 0.5 } in
  let exact = Mms.solve ~solver:Mms.Exact_mva p in
  let sim =
    Mms_des.run ~config:{ Mms_des.default_config with Mms_des.horizon = 100_000. } p
  in
  let m = sim.Mms_des.measures in
  let rel a b = abs_float (a -. b) /. b in
  if rel m.Measures.u_p exact.Measures.u_p > 0.03 then
    Alcotest.failf "U_p sim %g vs exact %g" m.Measures.u_p exact.Measures.u_p;
  if rel m.Measures.lambda_net exact.Measures.lambda_net > 0.03 then
    Alcotest.failf "lambda_net sim %g vs exact %g" m.Measures.lambda_net
      exact.Measures.lambda_net;
  if rel m.Measures.l_obs exact.Measures.l_obs > 0.05 then
    Alcotest.failf "L_obs sim %g vs exact %g" m.Measures.l_obs exact.Measures.l_obs

let test_des_vs_amva_default () =
  (* Paper Section 8: the model tracks simulation within a few percent
     (2% on lambda_net, 5% on S_obs). *)
  let p = Params.default in
  let model = Mms.solve p in
  let sim =
    Mms_des.run ~config:{ Mms_des.default_config with Mms_des.horizon = 50_000. } p
  in
  let m = sim.Mms_des.measures in
  let rel a b = abs_float (a -. b) /. b in
  if rel m.Measures.lambda_net model.Measures.lambda_net > 0.05 then
    Alcotest.failf "lambda_net sim %g vs model %g" m.Measures.lambda_net
      model.Measures.lambda_net;
  if rel m.Measures.s_obs model.Measures.s_obs > 0.10 then
    Alcotest.failf "S_obs sim %g vs model %g" m.Measures.s_obs model.Measures.s_obs

let test_des_confidence_intervals () =
  let p = { Params.default with Params.k = 2; n_t = 4 } in
  let sim =
    Mms_des.run ~config:{ Mms_des.default_config with Mms_des.horizon = 20_000. } p
  in
  let mean, half = sim.Mms_des.u_p_ci in
  Alcotest.(check bool) "CI centred near estimate" true
    (abs_float (mean -. sim.Mms_des.measures.Measures.u_p) < 0.05);
  Alcotest.(check bool) "half-width sane" true (half > 0. && half < 0.1)

let test_des_deterministic_service_variant () =
  (* The paper's sensitivity check: deterministic memory service should
     not change lambda_net by more than ~10%. *)
  let p = { Params.default with Params.k = 2; n_t = 4; p_remote = 0.5 } in
  let cfg = { Mms_des.default_config with Mms_des.horizon = 30_000. } in
  let exp_run = Mms_des.run ~config:cfg p in
  let det_run =
    Mms_des.run ~config:{ cfg with Mms_des.mem_model = Mms_des.Deterministic } p
  in
  let a = exp_run.Mms_des.measures.Measures.lambda_net in
  let b = det_run.Mms_des.measures.Measures.lambda_net in
  if abs_float (a -. b) /. a > 0.12 then
    Alcotest.failf "deterministic memory moved lambda_net too much: %g vs %g" a b

let test_des_validation () =
  Alcotest.(check bool) "bad horizon" true
    (try
       ignore
         (Mms_des.run
            ~config:{ Mms_des.default_config with Mms_des.horizon = 0. }
            Params.default);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad batches" true
    (try
       ignore
         (Mms_des.run
            ~config:{ Mms_des.default_config with Mms_des.batches = 1 }
            Params.default);
       false
     with Invalid_argument _ -> true)

let test_station_priority_vs_cobham () =
  (* Open two-class priority M/M/1 driven by Poisson arrivals; waiting
     times must match Cobham's formulas. *)
  let lam0 = 0.3 and lam1 = 0.4 and service = 1. in
  let e = Engine.create () in
  let rng = Prng.create ~seed:1234 () in
  let st =
    Station.create ~priority_levels:2 e ~rng ~name:"s"
      ~service:(Variate.Exponential service)
  in
  let wait = [| Moments.create (); Moments.create () |] in
  let rec feed cls lam =
    Engine.schedule e ~delay:(Variate.exponential rng ~mean:(1. /. lam))
      (fun () ->
        let arrived = Engine.now e in
        Station.submit ~priority:cls st () (fun () ->
            Moments.add wait.(cls) (Engine.now e -. arrived));
        feed cls lam)
  in
  feed 0 lam0;
  feed 1 lam1;
  Engine.run ~until:400_000. e;
  let theory =
    Lattol_queueing.Priority_mm1.make
      [|
        { Lattol_queueing.Priority_mm1.arrival_rate = lam0; service_time = service };
        { Lattol_queueing.Priority_mm1.arrival_rate = lam1; service_time = service };
      |]
  in
  for cls = 0 to 1 do
    let measured = Moments.mean wait.(cls) in
    let expected =
      Lattol_queueing.Priority_mm1.response_time theory ~cls
    in
    if abs_float (measured -. expected) /. expected > 0.05 then
      Alcotest.failf "class %d response %g vs Cobham %g" cls measured expected
  done

(* ------------------------------------------------------------------ *)
(* Generic network simulator *)

let test_network_sim_vs_exact_mva () =
  let nw =
    Lattol_queueing.Network.make
      ~stations:
        [| ("cpu", Lattol_queueing.Network.Queueing);
           ("disk1", Lattol_queueing.Network.Queueing);
           ("disk2", Lattol_queueing.Network.Queueing) |]
      ~classes:
        [|
          {
            Lattol_queueing.Network.class_name = "jobs";
            population = 8;
            visits = [| 1.; 0.6; 0.4 |];
            service = [| 0.2; 0.5; 0.8 |];
          };
        |]
  in
  let sim =
    (Network_sim.run ~horizon:200_000. nw).Network_sim.solution
  in
  let exact = Lattol_queueing.Mva.solve nw in
  let rel a b = abs_float (a -. b) /. b in
  if
    rel sim.Lattol_queueing.Solution.throughput.(0)
      exact.Lattol_queueing.Solution.throughput.(0)
    > 0.02
  then
    Alcotest.failf "network sim X %g vs exact %g"
      sim.Lattol_queueing.Solution.throughput.(0)
      exact.Lattol_queueing.Solution.throughput.(0);
  for m = 0 to 2 do
    if
      abs_float
        (sim.Lattol_queueing.Solution.queue.(0).(m)
        -. exact.Lattol_queueing.Solution.queue.(0).(m))
      > 0.15
    then
      Alcotest.failf "queue at %d: sim %g vs exact %g" m
        sim.Lattol_queueing.Solution.queue.(0).(m)
        exact.Lattol_queueing.Solution.queue.(0).(m)
  done

let test_network_sim_exposes_multiserver_approximation () =
  (* The simulator should agree with the *exact* convolution value for a
     multiserver station, not with the MVA conditional-wait estimate. *)
  let nw =
    Lattol_queueing.Network.make
      ~stations:
        [| ("think", Lattol_queueing.Network.Delay);
           ("pool", Lattol_queueing.Network.Multi_server 2) |]
      ~classes:
        [|
          {
            Lattol_queueing.Network.class_name = "j";
            population = 5;
            visits = [| 1.; 1. |];
            service = [| 2.; 1.5 |];
          };
        |]
  in
  let sim =
    (Network_sim.run ~horizon:300_000. nw).Network_sim.solution
  in
  let conv = Lattol_queueing.Convolution.solve nw in
  let rel a b = abs_float (a -. b) /. b in
  if
    rel sim.Lattol_queueing.Solution.throughput.(0)
      conv.Lattol_queueing.Solution.throughput.(0)
    > 0.01
  then
    Alcotest.failf "multiserver sim %g vs convolution %g"
      sim.Lattol_queueing.Solution.throughput.(0)
      conv.Lattol_queueing.Solution.throughput.(0)

let test_network_sim_multiclass () =
  let nw =
    Lattol_queueing.Network.make
      ~stations:
        [| ("cpu", Lattol_queueing.Network.Queueing);
           ("disk", Lattol_queueing.Network.Queueing) |]
      ~classes:
        [|
          {
            Lattol_queueing.Network.class_name = "a";
            population = 3;
            visits = [| 1.; 2. |];
            service = [| 0.5; 0.4 |];
          };
          {
            Lattol_queueing.Network.class_name = "b";
            population = 2;
            visits = [| 1.; 1. |];
            service = [| 0.5; 0.4 |];
          };
        |]
  in
  let sim = (Network_sim.run ~horizon:200_000. nw).Network_sim.solution in
  let exact = Lattol_queueing.Mva.solve nw in
  for c = 0 to 1 do
    let rel =
      abs_float
        (sim.Lattol_queueing.Solution.throughput.(c)
        -. exact.Lattol_queueing.Solution.throughput.(c))
      /. exact.Lattol_queueing.Solution.throughput.(c)
    in
    if rel > 0.03 then Alcotest.failf "class %d off by %g" c rel
  done

let test_network_sim_population_conserved () =
  let nw =
    Lattol_queueing.Network.make
      ~stations:
        [| ("a", Lattol_queueing.Network.Queueing);
           ("z", Lattol_queueing.Network.Delay) |]
      ~classes:
        [|
          {
            Lattol_queueing.Network.class_name = "c";
            population = 6;
            visits = [| 1.; 1. |];
            service = [| 0.3; 1. |];
          };
        |]
  in
  let sim = (Network_sim.run ~horizon:50_000. nw).Network_sim.solution in
  let total =
    Lattol_queueing.Solution.queue_total sim ~station:0
    +. Lattol_queueing.Solution.queue_total sim ~station:1
  in
  close ~eps:0.02 "customers conserved" 6. total

(* ------------------------------------------------------------------ *)
(* Traces *)

let cyclic_loop =
  { Workload.elements = 1024; distribution = Workload.Cyclic;
    stencil = [ -1; 0; 1 ]; work_per_access = 2. }

let test_trace_matches_workload_matrix () =
  (* The per-node access fractions of the generated scripts equal the
     analytical access matrix exactly. *)
  let base = { Params.default with Params.n_t = 4 } in
  let trace = Trace.of_loop ~base cyclic_loop in
  let m = Workload.access_matrix cyclic_loop (Params.make_topology base) in
  for node = 0 to 15 do
    let fr = Trace.access_fractions trace ~node in
    Array.iteri
      (fun j v ->
        if abs_float (v -. m.(node).(j)) > 1e-12 then
          Alcotest.failf "node %d target %d: %g vs %g" node j v m.(node).(j))
      fr
  done

let test_grid_trace_matches_workload_matrix () =
  (* Same invariant for the 2-D grid generator: scripted access fractions
     reproduce Workload.Grid's analytical matrix, per node. *)
  let base = { Params.default with Params.n_t = 2 } in
  let grid =
    { Workload.Grid.rows = 16; cols = 16; decomposition = Workload.Grid.Blocks;
      stencil = [ (-1, 0); (0, 0); (1, 0); (0, -1); (0, 1) ];
      work_per_access = 2. }
  in
  let trace = Trace.of_grid ~base grid in
  let m = Workload.Grid.access_matrix grid ~base in
  for node = 0 to 15 do
    let fr = Trace.access_fractions trace ~node in
    Array.iteri
      (fun j v ->
        if abs_float (v -. m.(node).(j)) > 1e-12 then
          Alcotest.failf "node %d target %d: %g vs %g" node j v m.(node).(j))
      fr
  done

let test_trace_structure () =
  let base = { Params.default with Params.n_t = 4 } in
  let trace = Trace.of_loop ~base cyclic_loop in
  Alcotest.(check int) "16 nodes" 16 (Trace.num_nodes trace);
  Alcotest.(check int) "4 threads" 4 (Trace.threads_at trace ~node:0);
  (* 1024 iterations x 3 accesses spread over 16 nodes *)
  Alcotest.(check int) "total steps" (1024 * 3) (Trace.total_steps trace)

let test_trace_validation () =
  Alcotest.(check bool) "empty script rejected" true
    (try
       ignore (Trace.make ~steps:[| [| [||] |] |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative compute rejected" true
    (try
       ignore
         (Trace.make
            ~steps:[| [| [| { Trace.compute = -1.; target = 0 } |] |] |]);
       false
     with Invalid_argument _ -> true)

let test_trace_replay_close_to_model () =
  (* Trace replay on the stencil loop should land near the analytical
     model (deterministic compute narrows queues, so allow a band). *)
  let base = { Params.default with Params.n_t = 4 } in
  let p = Workload.to_params ~base cyclic_loop in
  let model = Mms.solve p in
  let trace = Trace.of_loop ~base cyclic_loop in
  let cfg = { Mms_des.default_config with Mms_des.horizon = 20_000. } in
  let r = Mms_des.run_trace ~config:cfg ~base:p trace in
  let u = r.Mms_des.measures.Measures.u_p in
  if u < model.Measures.u_p *. 0.9 || u > model.Measures.u_p *. 1.3 then
    Alcotest.failf "trace U_p %g vs model %g out of band" u model.Measures.u_p;
  (* the deterministic schedule should not do worse than the model *)
  Alcotest.(check bool) "regularity helps" true (u >= model.Measures.u_p -. 0.02)

let test_trace_replay_wrong_machine () =
  let base = { Params.default with Params.n_t = 4 } in
  let trace = Trace.of_loop ~base cyclic_loop in
  Alcotest.(check bool) "node-count mismatch rejected" true
    (try
       ignore
         (Mms_des.run_trace ~base:{ base with Params.k = 2 } trace);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_engine_processes_all =
  QCheck.Test.make ~name:"engine processes every scheduled event" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 50) (float_range 0. 100.))
    (fun delays ->
      let e = Engine.create () in
      let count = ref 0 in
      List.iter (fun d -> Engine.schedule e ~delay:d (fun () -> incr count)) delays;
      Engine.run e;
      !count = List.length delays && Engine.events_processed e = List.length delays)

let prop_engine_clock_monotone =
  QCheck.Test.make ~name:"engine clock is monotone" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 40) (float_range 0. 10.))
    (fun delays ->
      let e = Engine.create () in
      let ok = ref true in
      let last = ref 0. in
      List.iter
        (fun d ->
          Engine.schedule e ~delay:d (fun () ->
              if Engine.now e < !last then ok := false;
              last := Engine.now e))
        delays;
      Engine.run e;
      !ok)

let prop_station_conserves_jobs =
  QCheck.Test.make ~name:"station completes exactly what was submitted"
    ~count:50
    QCheck.(pair (int_range 1 30) (float_range 0.1 3.))
    (fun (n, mean) ->
      let e = Engine.create () in
      let rng = Prng.create ~seed:n () in
      let st = Station.create e ~rng ~name:"s" ~service:(Variate.Exponential mean) in
      let got = ref 0 in
      for _ = 1 to n do
        Station.submit st () (fun () -> incr got)
      done;
      Engine.run e;
      !got = n && Station.queue_length st = 0)

let prop_engine_cancellation_stress =
  QCheck.Test.make ~name:"cancelled events never fire, others always do"
    ~count:60
    QCheck.(
      list_of_size Gen.(int_range 1 60) (pair (float_range 0. 50.) bool))
    (fun events ->
      let e = Engine.create () in
      let fired = ref 0 and expected = ref 0 in
      let handles =
        List.map
          (fun (delay, cancel) ->
            let h = Engine.schedule_cancellable e ~delay (fun () -> incr fired) in
            (h, cancel))
          events
      in
      List.iter
        (fun (h, cancel) ->
          if cancel then Engine.cancel e h else incr expected)
        handles;
      Engine.run e;
      !fired = !expected)

let prop_station_work_conservation =
  QCheck.Test.make
    ~name:"multi-server station keeps busy while work is waiting" ~count:30
    QCheck.(pair (int_range 1 4) (int_range 1 20))
    (fun (servers, jobs) ->
      (* With deterministic service and simultaneous arrivals, total busy
         time is exactly jobs * service / servers when jobs >= servers
         (work conservation), measured via utilization * makespan. *)
      let e = Engine.create () in
      let rng = Prng.create () in
      let st =
        Station.create ~servers e ~rng ~name:"s"
          ~service:(Variate.Deterministic 1.)
      in
      for _ = 1 to jobs do
        Station.submit st () (fun () -> ())
      done;
      Engine.run e;
      let makespan = Engine.now e in
      let busy = Station.utilization st *. makespan *. float_of_int servers in
      abs_float (busy -. float_of_int jobs) < 1e-9)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lattol_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "invalid arguments" `Quick test_engine_invalid;
        ] );
      ( "station",
        [
          Alcotest.test_case "FCFS deterministic" `Quick test_station_fcfs_deterministic;
          Alcotest.test_case "response times" `Quick test_station_response_times;
          Alcotest.test_case "reset stats" `Quick test_station_reset_stats;
          Alcotest.test_case "closed loop vs MVA" `Slow test_station_closed_loop_vs_mva;
        ] );
      ( "multi-server+priority",
        [
          Alcotest.test_case "two servers parallel" `Quick
            test_station_two_servers_parallel;
          Alcotest.test_case "M/M/2//N vs theory" `Slow
            test_station_two_servers_vs_mm2_theory;
          Alcotest.test_case "priority order" `Quick test_station_priority_order;
          Alcotest.test_case "priority clamped" `Quick test_station_priority_clamped;
          Alcotest.test_case "DES local priority" `Quick test_des_local_priority_runs;
          Alcotest.test_case "priority station vs Cobham" `Slow
            test_station_priority_vs_cobham;
        ] );
      ( "mms-des",
        [
          Alcotest.test_case "reproducible" `Quick test_des_reproducible;
          Alcotest.test_case "vs exact MVA (tiny)" `Slow test_des_vs_exact_mva_tiny;
          Alcotest.test_case "vs AMVA (default)" `Slow test_des_vs_amva_default;
          Alcotest.test_case "confidence intervals" `Quick test_des_confidence_intervals;
          Alcotest.test_case "deterministic service" `Slow
            test_des_deterministic_service_variant;
          Alcotest.test_case "validation" `Quick test_des_validation;
        ] );
      ( "network-sim",
        [
          Alcotest.test_case "vs exact MVA" `Slow test_network_sim_vs_exact_mva;
          Alcotest.test_case "exposes multiserver approximation" `Slow
            test_network_sim_exposes_multiserver_approximation;
          Alcotest.test_case "multiclass" `Slow test_network_sim_multiclass;
          Alcotest.test_case "population conserved" `Quick
            test_network_sim_population_conserved;
        ] );
      ( "trace",
        [
          Alcotest.test_case "fractions match matrix" `Quick
            test_trace_matches_workload_matrix;
          Alcotest.test_case "grid fractions match matrix" `Quick
            test_grid_trace_matches_workload_matrix;
          Alcotest.test_case "structure" `Quick test_trace_structure;
          Alcotest.test_case "validation" `Quick test_trace_validation;
          Alcotest.test_case "replay near model" `Slow
            test_trace_replay_close_to_model;
          Alcotest.test_case "machine mismatch" `Quick test_trace_replay_wrong_machine;
        ] );
      ( "properties",
        qcheck
          [
            prop_engine_processes_all;
            prop_engine_clock_monotone;
            prop_station_conserves_jobs;
            prop_engine_cancellation_stress;
            prop_station_work_conservation;
          ] );
    ]
