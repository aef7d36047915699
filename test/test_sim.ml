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

(* A cancellable event takes the same delays as a plain one: a queued
   NaN delay would fire before every other event and set the clock to
   NaN. *)
let test_engine_cancellable_non_finite () =
  let e = Engine.create () in
  let fired = ref 0 in
  List.iter
    (fun delay ->
      Alcotest.(check bool)
        (Printf.sprintf "delay %h rejected" delay)
        true
        (try
           ignore (Engine.schedule_cancellable e ~delay (fun () -> incr fired));
           false
         with Invalid_argument _ -> true))
    [ nan; infinity; neg_infinity; -1. ];
  Engine.schedule e ~delay:1. (fun () -> incr fired);
  Engine.run e;
  Alcotest.(check int) "only the valid event" 1 !fired;
  close "clock at the valid event" 1. (Engine.now e)

let test_engine_cancel_after_fire () =
  let e = Engine.create () in
  let h = Engine.schedule_cancellable e ~delay:1. ignore in
  Engine.run e;
  Engine.cancel e h;
  Alcotest.(check int) "nothing pending" 0 (Engine.pending e);
  Engine.schedule e ~delay:1. ignore;
  Alcotest.(check int) "one pending" 1 (Engine.pending e)

(* ------------------------------------------------------------------ *)
(* Station *)

let test_station_fcfs_deterministic () =
  let e = Engine.create () in
  let rng = Prng.create () in
  let st = Station.create e ~rng ~name:"s" ~service:(Variate.Deterministic 2.) in
  let done_order = ref [] in
  let finish j () = done_order := (j, Engine.now e) :: !done_order in
  Station.submit st (finish 1);
  Station.submit st (finish 2);
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
  Station.submit st (fun () -> ());
  Station.submit st (fun () -> ());
  Engine.run e;
  let m = Station.response_times st in
  Alcotest.(check int) "count" 2 (Moments.count m);
  close "mean response (1 + 2)/2" 1.5 (Moments.mean m)

let test_station_reset_stats () =
  let e = Engine.create () in
  let rng = Prng.create () in
  let st = Station.create e ~rng ~name:"s" ~service:(Variate.Deterministic 1.) in
  Station.submit st (fun () -> ());
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
        Station.submit st (fun () ->
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
    Station.submit st (fun () -> finished := (j, Engine.now e) :: !finished)
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
        Station.submit st (fun () ->
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
  let note j () = order := j :: !order in
  (* Fill the server, then enqueue low before high: high must overtake. *)
  Station.submit st (note 0);
  Station.submit ~priority:1 st (note 1);
  Station.submit ~priority:1 st (note 2);
  Station.submit ~priority:0 st (note 3);
  Engine.run e;
  Alcotest.(check (list int)) "high priority overtakes" [ 0; 3; 1; 2 ]
    (List.rev !order)

let test_station_priority_clamped () =
  let e = Engine.create () in
  let rng = Prng.create () in
  let st = Station.create e ~rng ~name:"s" ~service:(Variate.Deterministic 1.) in
  let got = ref 0 in
  (* out-of-range priorities are clamped, not rejected *)
  Station.submit ~priority:42 st (fun () -> incr got);
  Station.submit ~priority:(-3) st (fun () -> incr got);
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
        Station.submit ~priority:cls st (fun () ->
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
(* Recorded lines *)

(* [Mms_des.run] results recorded before the event loop stopped
   allocating: the cache line pins every measure's bits and, through
   [iterations], the event count; the batch-means CI on U_p and the fault
   statistics are pinned as hex floats too.  A change to the order in
   which a completion books its statistics, starts the next job, draws
   and schedules shows here first. *)
let recorded_cfg =
  {
    Mms_des.default_config with
    Mms_des.warmup = 100.;
    horizon = 2_000.;
    batches = 5;
  }

let recorded_trace () =
  let base = { Params.default with Params.n_t = 4 } in
  let p = Workload.to_params ~base cyclic_loop in
  Mms_des.run_trace ~config:recorded_cfg ~base:p
    (Trace.of_loop ~base cyclic_loop)

let des_recorded_lines =
  let run config p = Mms_des.run ~config p in
  let open Lattol_robust in
  [
    ( "default 4x4, seed 1",
      (fun () ->
        run recorded_cfg Params.default),
      "u_p=0x1.ad3728ff47d4cp-1;lambda=0x1.b06a7ef9db22dp-1;lambda_net=0x1.5bd70a3d70a3dp-3;s_obs=0x1.5e619f0f58649p+2;l_obs=0x1.ff31a5807ef2p+1;cycle_time=0x1.2f1d929cf9d7dp+3;util_memory=0x1.b440d83a2d737p-1;util_switch_in=0x1.2bb818d4be65bp-1;util_switch_out=0x1.5c82e080e9b23p-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.6193e5cb6ef28p+1;queue_memory=0x1.b07489c9f84cbp+1;queue_network=0x1.dbef20d53183p+0;iterations=87840;converged=true",
      ("0x1.ad3728ff47d4cp-1", "0x1.1b25ad3c75546p-6"),
      [] );
    ( "default 4x4, seed 2",
      (fun () ->
        run { recorded_cfg with Mms_des.seed = 2 } Params.default),
      "u_p=0x1.b148f33fd8132p-1;lambda=0x1.b0872b020c49cp-1;lambda_net=0x1.5b74bc6a7ef9ep-3;s_obs=0x1.62feee8e8433bp+2;l_obs=0x1.f016035734982p+1;cycle_time=0x1.2f097ab874712p+3;util_memory=0x1.aefa0441eb99bp-1;util_switch_in=0x1.2f6efcc0bd34p-1;util_switch_out=0x1.586dac31c22fbp-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.6c045fce17b74p+1;queue_memory=0x1.a375d77df2b5ap+1;queue_network=0x1.e10b9167eb262p+0;iterations=87746;converged=true",
      ("0x1.b148f33fd8132p-1", "0x1.b2705aa1f5febp-7"),
      [] );
    ( "SU, local-memory priority, deterministic memory",
      (fun () ->
        run
          {
            recorded_cfg with
            Mms_des.local_memory_priority = true;
            mem_model = Mms_des.Deterministic;
          }
          { Params.default with Params.sync_unit = 0.5 }),
      "u_p=0x1.b4d3a297b0c27p-1;lambda=0x1.b7ba5e353f7cfp-1;lambda_net=0x1.6116872b020c5p-3;s_obs=0x1.667865216327bp+2;l_obs=0x1.f2609333c8411p+1;cycle_time=0x1.2a133e9623015p+3;util_memory=0x1.b7f50206eb3a4p-1;util_switch_in=0x1.2f52b2d2df0a2p-1;util_switch_out=0x1.626b8a3ae54c6p-2;util_sync=0x1.0837c366cfa5dp-2;su_obs=0x1.fcb05f52fc114p+0;queue_processor=0x1.308d613765d2p+1;queue_memory=0x1.ab65dec10167bp+1;queue_network=0x1.f07868bb33898p+0;iterations=106549;converged=true",
      ("0x1.b4d3a297b0c27p-1", "0x1.de22855fd0b76p-7"),
      [] );
    ( "SU, k = 3, seed 3",
      (fun () ->
        run { recorded_cfg with Mms_des.seed = 3 }
          { Params.default with Params.sync_unit = 0.3; k = 3 }),
      "u_p=0x1.aff4484f30e57p-1;lambda=0x1.b2e319b6ba23fp-1;lambda_net=0x1.664945dc0bd54p-3;s_obs=0x1.f073b202b809p+1;l_obs=0x1.0941d59fa220ap+2;cycle_time=0x1.2d64a608bd8bp+3;util_memory=0x1.b2d89d7d44f71p-1;util_switch_in=0x1.dc542f06dc855p-2;util_switch_out=0x1.656483286a171p-2;util_sync=0x1.4292f4bec6aa9p-3;su_obs=0x1.0fbb71051c1e8p+0;queue_processor=0x1.785549385e8adp+1;queue_memory=0x1.c279f94cc6e5bp+1;queue_network=0x1.5ad412793ce02p+0;iterations=57366;converged=true",
      ("0x1.aff4484f30e57p-1", "0x1.994dbca6adb75p-6"),
      [] );
    ( "mem_ports = switch_pipeline = 2, p_remote = 0.6",
      (fun () ->
        run recorded_cfg
          {
            Params.default with
            Params.mem_ports = 2;
            switch_pipeline = 2;
            p_remote = 0.6;
          }),
      "u_p=0x1.88e91cf0639f1p-1;lambda=0x1.8c8b439581062p-1;lambda_net=0x1.d79db22d0e56p-2;s_obs=0x1.6528f5f1bffcap+2;l_obs=0x1.2c424fea019e9p+0;cycle_time=0x1.4a892c20647bap+3;util_memory=0x1.91addbdc4d14p-2;util_switch_in=0x1.9a4d07f709de2p-1;util_switch_out=0x1.d5ea3b4bf0e5ep-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.f3971bad18ac3p+0;queue_memory=0x1.d16da712fdb08p-1;queue_network=0x1.48ec84325a1efp+2;iterations=136618;converged=true",
      ("0x1.88e91cf0639fp-1", "0x1.d9d5e3d4da7f6p-6"),
      [] );
    ( "degraded switches, memory outages",
      (fun () ->
        run
          {
            recorded_cfg with
            Mms_des.faults =
              {
                Fault_plan.switch =
                  Some (Fault_plan.process ~mtbf:300. ~mttr:40. ~degrade:0.5);
                memory =
                  Some (Fault_plan.process ~mtbf:250. ~mttr:30. ~degrade:0.);
              };
          }
          Params.default),
      "u_p=0x1.69acb55093879p-1;lambda=0x1.6d126e978d4fep-1;lambda_net=0x1.226e978d4fdf4p-3;s_obs=0x1.b9a75c822bbe8p+2;l_obs=0x1.72d5712f06407p+2;cycle_time=0x1.6707d1f44f1f1p+3;util_memory=0x1.a99e15b866494p-1;util_switch_in=0x1.1277ef6e49657p-1;util_switch_out=0x1.4c2d601571628p-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.013928db4145p+1;queue_memory=0x1.097897eb490cdp+2;queue_network=0x1.f630f4536de55p+0;iterations=75029;converged=true",
      ("0x1.69acb55093879p-1", "0x1.04313d5c37e1bp-5"),
      [
        "switch 32 186 0x1.10409571b72fep+13 0x1.16c94d413ea7dp-3 0x1.76b67b1b22aa8p+5";
        "memory 16 110 0x1.b31a862237237p+11 0x1.bd8bccefd6286p-4 0x1.fa4d68e1feff6p+4";
      ] );
    ( "switch outages, degraded memory, local-memory priority",
      (fun () ->
        run
          {
            recorded_cfg with
            Mms_des.seed = 4;
            local_memory_priority = true;
            faults =
              {
                Fault_plan.switch =
                  Some (Fault_plan.process ~mtbf:200. ~mttr:20. ~degrade:0.);
                memory =
                  Some (Fault_plan.process ~mtbf:400. ~mttr:50. ~degrade:0.3);
              };
          }
          Params.default),
      "u_p=0x1.3f900e11f729ep-1;lambda=0x1.3dcac083126e9p-1;lambda_net=0x1.01374bc6a7efap-3;s_obs=0x1.6fdb28773176dp+3;l_obs=0x1.79424a10c077bp+2;cycle_time=0x1.9c7224f7287f4p+3;util_memory=0x1.689a357682f79p-1;util_switch_in=0x1.0765fdbaa2ea1p-1;util_switch_out=0x1.5d368c2e9047fp-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.7496f02b2cce4p+0;queue_memory=0x1.d74963a99f96bp+1;queue_network=0x1.8522c9636c6a4p+1;iterations=65968;converged=true",
      ("0x1.3f900e11f729ep-1", "0x1.b1eb50faf6f15p-5"),
      [
        "switch 32 276 0x1.4f841c45d9698p+12 0x1.579185663ee2dp-4 0x1.37340b622dd4ep+4";
        "memory 16 68 0x1.066ec2311f3a5p+12 0x1.0cbb250f7c232p-3 0x1.edfda9c5e06dcp+5";
      ] );
    ( "run_trace of the cyclic stencil",
      (fun () ->
        recorded_trace ()),
      "u_p=0x1.7e2ffe17607a7p-1;lambda=0x1.7e3d70a3d70a4p-2;lambda_net=0x1.fd916872b020cp-3;s_obs=0x1.212246b7dce5p+2;l_obs=0x1.8027f020ef525p+0;cycle_time=0x1.56e7acd87571ep+3;util_memory=0x1.855b7d378b808p-2;util_switch_in=0x1.3817b8217064cp-1;util_switch_out=0x1.ff8e517b7b9ebp-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.3113649bd6c75p+0;queue_memory=0x1.1eb8afa6f351cp-1;queue_network=0x1.1fc821c857c7dp+1;iterations=62258;converged=true",
      ("0x1.7e2ffe17607a7p-1", "0x1.d5405c307ec6fp-7"),
      [] );
    ( "3x3 mesh, p_remote = 0.4",
      (fun () ->
        run recorded_cfg
          {
            Params.default with
            Params.topology = Lattol_topology.Topology.Mesh;
            k = 3;
            p_remote = 0.4;
          }),
      "u_p=0x1.13ed7a5fe931fp-1;lambda=0x1.14cafac42723cp-1;lambda_net=0x1.c114b5225c634p-3;s_obs=0x1.af7ca89240bc2p+3;l_obs=0x1.fbbddf9d0e94bp+0;cycle_time=0x1.d989c5f71ba63p+3;util_memory=0x1.0fe107f54f0d4p-1;util_switch_in=0x1.7bbd697bf6296p-1;util_switch_out=0x1.c0edcdf44b6p-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.00960f48af0bp+0;queue_memory=0x1.12a12bb0d415dp+0;queue_network=0x1.7b3231419f379p+2;iterations=42697;converged=true",
      ("0x1.13ed7a5fe931fp-1", "0x1.cd10ab1bcf89p-6"),
      [] );
    ( "uniform pattern, k = 2, n_t = 3, seed 7",
      (fun () ->
        run { recorded_cfg with Mms_des.seed = 7 }
          {
            Params.default with
            Params.k = 2;
            n_t = 3;
            pattern = Lattol_topology.Access.Uniform;
          }),
      "u_p=0x1.4a60b5d2b3f07p-1;lambda=0x1.49a9fbe76c8b4p-1;lambda_net=0x1.f5c28f5c28f5cp-4;s_obs=0x1.94e11ea05aeebp+1;l_obs=0x1.d0a493fef1269p+0;cycle_time=0x1.2a31cc698f94bp+2;util_memory=0x1.46a3534456af4p-1;util_switch_in=0x1.4ab951ec717dep-2;util_switch_out=0x1.f16c36a0144f8p-3;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.0e15677092b27p+0;queue_memory=0x1.2bbc960330699p+0;queue_network=0x1.8c5c051879c79p-1;iterations=15632;converged=true",
      ("0x1.4a60b5d2b3f07p-1", "0x1.a8b783ec58cbep-6"),
      [] );
    ( "default 4x4, warm-up 500, horizon 3000",
      (fun () ->
        run
          { Mms_des.default_config with Mms_des.warmup = 500.; horizon = 3_000. }
          Params.default),
      "u_p=0x1.af9e4243ad3bcp-1;lambda=0x1.afb0cf87d9c55p-1;lambda_net=0x1.571529a485cd8p-3;s_obs=0x1.60f28ea555a68p+2;l_obs=0x1.fbe95c43921afp+1;cycle_time=0x1.2f9ff40eb3541p+3;util_memory=0x1.b169e6420c899p-1;util_switch_in=0x1.2afca583ed40cp-1;util_switch_out=0x1.5696cce96be71p-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.678f47b1b316cp+1;queue_memory=0x1.abf09c211de0fp+1;queue_network=0x1.d900385a5e102p+0;iterations=145470;converged=true",
      ("0x1.af9e4243ad3bcp-1", "0x1.53f056ad8000cp-7"),
      [] );
  ]

let test_des_recorded_lines () =
  List.iter
    (fun (name, run, line, (ci_mean, ci_half), faults) ->
      let r : Mms_des.result = run () in
      Alcotest.(check string) name line
        (Lattol_exec.Cache.encode_measures_line r.Mms_des.measures);
      let mean, half = r.Mms_des.u_p_ci in
      Alcotest.(check (pair string string))
        (name ^ ": U_p CI") (ci_mean, ci_half)
        (Printf.sprintf "%h" mean, Printf.sprintf "%h" half);
      Alcotest.(check (list string))
        (name ^ ": faults") faults
        (List.map
           (fun (f : Mms_des.fault_stats) ->
             Printf.sprintf "%s %d %d %h %h %h" f.Mms_des.component
               f.Mms_des.stations f.Mms_des.failures f.Mms_des.downtime
               f.Mms_des.unavailability f.Mms_des.mean_outage)
           r.Mms_des.faults))
    des_recorded_lines

(* [Network_sim.run] on a two-class network with a delay, a queueing and
   a two-server station: its throughputs and queues, recorded with the
   lines above. *)
let test_network_sim_recorded () =
  let open Lattol_queueing in
  let nw =
    Network.make
      ~stations:
        [|
          ("think", Network.Delay);
          ("cpu", Network.Queueing);
          ("pool", Network.Multi_server 2);
        |]
      ~classes:
        [|
          {
            Network.class_name = "a";
            population = 3;
            visits = [| 1.; 1.; 0.5 |];
            service = [| 2.; 0.5; 1.2 |];
          };
          {
            Network.class_name = "b";
            population = 2;
            visits = [| 1.; 2.; 1. |];
            service = [| 1.; 0.3; 0.8 |];
          };
        |]
  in
  let r = Network_sim.run ~warmup:100. ~horizon:3_000. nw in
  let s = r.Network_sim.solution in
  Alcotest.(check int) "events" 13828 r.Network_sim.events;
  Alcotest.(check (list string))
    "throughputs, then queues by class"
    [
      "0x1.a11bfd44f3078p-1";
      "0x1.35d867c3ece2ap-1";
      "0x1.a75810e5255e6p+0";
      "0x1.9a8d53057875cp-1";
      "0x1.16c28b303cccfp-1";
      "0x1.3a192ed6d86e7p-1";
      "0x1.af15fb5a5c09cp-1";
      "0x1.16d0d5cecb87ep-1";
    ]
    (List.map (Printf.sprintf "%h")
       (Array.to_list s.Solution.throughput
       @ List.concat_map Array.to_list (Array.to_list s.Solution.queue)))

(* One default 4x4 run, build included, in minor words per event: an
   event allocates only the floats boxed where they cross into the
   engine, the stations and the statistics (105.3 words when events were
   records and each thread step built closures). *)
let test_des_allocation () =
  let w0 = Gc.minor_words () in
  let r =
    Mms_des.run
      ~config:
        { Mms_des.default_config with Mms_des.warmup = 500.; horizon = 3_000. }
      Params.default
  in
  let per_event =
    (Gc.minor_words () -. w0) /. float_of_int r.Mms_des.events
  in
  if per_event > 25. then
    Alcotest.failf "%.1f minor words per event" per_event

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
        Station.submit st (fun () -> incr got)
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
        Station.submit st (fun () -> ())
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
          Alcotest.test_case "cancellable rejects non-finite delay" `Quick
            test_engine_cancellable_non_finite;
          Alcotest.test_case "cancel after firing" `Quick
            test_engine_cancel_after_fire;
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
      ( "recorded",
        [
          Alcotest.test_case "recorded lines" `Quick test_des_recorded_lines;
          Alcotest.test_case "network sim lines" `Quick test_network_sim_recorded;
          Alcotest.test_case "allocation" `Quick test_des_allocation;
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
