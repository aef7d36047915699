(* Tests for the closed queueing network solvers: network construction,
   exact MVA, approximate MVA (the paper's Figure 3 algorithm), Buzen's
   convolution, and operational bounds.  The exact methods cross-validate
   each other; AMVA is held to its known accuracy envelope. *)

open Lattol_queueing

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let repairman ~n ~think ~repair =
  Network.make
    ~stations:[| ("think", Network.Delay); ("repair", Network.Queueing) |]
    ~classes:
      [|
        {
          Network.class_name = "jobs";
          population = n;
          visits = [| 1.; 1. |];
          service = [| think; repair |];
        };
      |]

let central_server ~n =
  Network.make
    ~stations:
      [|
        ("cpu", Network.Queueing); ("disk1", Network.Queueing);
        ("disk2", Network.Queueing);
      |]
    ~classes:
      [|
        {
          Network.class_name = "jobs";
          population = n;
          visits = [| 1.; 0.6; 0.4 |];
          service = [| 0.2; 0.5; 0.8 |];
        };
      |]

let two_class () =
  Network.make
    ~stations:[| ("cpu", Network.Queueing); ("disk", Network.Queueing) |]
    ~classes:
      [|
        {
          Network.class_name = "a";
          population = 3;
          visits = [| 1.; 2. |];
          service = [| 0.5; 0.4 |];
        };
        {
          Network.class_name = "b";
          population = 2;
          visits = [| 1.; 1. |];
          service = [| 0.5; 0.4 |];
        };
      |]

(* ------------------------------------------------------------------ *)
(* Network *)

let test_network_accessors () =
  let nw = central_server ~n:5 in
  Alcotest.(check int) "stations" 3 (Network.num_stations nw);
  Alcotest.(check int) "classes" 1 (Network.num_classes nw);
  Alcotest.(check string) "name" "disk1" (Network.station_name nw 1);
  close "demand" 0.3 (Network.demand nw ~cls:0 ~station:1);
  close "total demand" (0.2 +. 0.3 +. 0.32) (Network.total_demand nw ~cls:0);
  Alcotest.(check int) "bottleneck = disk2" 2 (Network.bottleneck nw ~cls:0);
  Alcotest.(check int) "population" 5 (Network.population nw 0);
  Alcotest.(check int) "total population" 5 (Network.total_population nw)

let test_network_validation () =
  let invalid f =
    Alcotest.(check bool) "raises" true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  invalid (fun () -> Network.make ~stations:[||] ~classes:[||]);
  invalid (fun () ->
      Network.make
        ~stations:[| ("s", Network.Queueing) |]
        ~classes:
          [|
            {
              Network.class_name = "c";
              population = 1;
              visits = [| 1.; 2. |];
              service = [| 1. |];
            };
          |]);
  invalid (fun () ->
      Network.make
        ~stations:[| ("s", Network.Queueing) |]
        ~classes:
          [|
            {
              Network.class_name = "c";
              population = -1;
              visits = [| 1. |];
              service = [| 1. |];
            };
          |]);
  (* population but zero demand *)
  invalid (fun () ->
      Network.make
        ~stations:[| ("s", Network.Queueing) |]
        ~classes:
          [|
            {
              Network.class_name = "c";
              population = 2;
              visits = [| 0. |];
              service = [| 1. |];
            };
          |])

let test_with_population () =
  let nw = central_server ~n:5 in
  let nw2 = Network.with_population nw [| 9 |] in
  Alcotest.(check int) "new population" 9 (Network.population nw2 0);
  Alcotest.(check int) "original untouched" 5 (Network.population nw 0)

(* ------------------------------------------------------------------ *)
(* Exact MVA *)

let test_mva_single_customer () =
  (* With one customer there is no queueing: X = 1 / total demand. *)
  let nw = central_server ~n:1 in
  let s = Mva.solve nw in
  close "throughput" (1. /. Network.total_demand nw ~cls:0) s.Solution.throughput.(0)

let test_mva_repairman_closed_form () =
  (* M/M/1//N repairman has a known product-form solution; spot-check via
     the Erlang-like recursion X(N) = N / (Z + R(N)) ... using the CTMC in
     test_markov as the deep check, here we verify monotone saturation. *)
  let x n =
    (Mva.solve (repairman ~n ~think:5. ~repair:1.)).Solution.throughput.(0)
  in
  Alcotest.(check bool) "monotone" true (x 1 < x 2 && x 2 < x 4 && x 4 < x 8);
  Alcotest.(check bool) "capped by server" true (x 50 <= 1.0 +. 1e-9);
  close ~eps:1e-6 "N=1 exact" (1. /. 6.) (x 1)

let test_mva_matches_convolution () =
  List.iter
    (fun n ->
      let nw = central_server ~n in
      let a = Mva.solve nw and b = Convolution.solve nw in
      close ~eps:1e-9 "throughput" a.Solution.throughput.(0) b.Solution.throughput.(0);
      for m = 0 to 2 do
        close ~eps:1e-8 "queue" a.Solution.queue.(0).(m) b.Solution.queue.(0).(m)
      done)
    [ 1; 2; 5; 10; 20 ]

let test_mva_multiclass_littles_law () =
  let s = Mva.solve (two_class ()) in
  close ~eps:1e-12 "residual" 0. (Solution.littles_law_residual s)

let test_mva_state_cap () =
  let nw =
    Network.make
      ~stations:[| ("s", Network.Queueing) |]
      ~classes:
        (Array.init 10 (fun i ->
             {
               Network.class_name = Printf.sprintf "c%d" i;
               population = 10;
               visits = [| 1. |];
               service = [| 1. |];
             }))
  in
  Alcotest.(check bool) "raises cap" true
    (try
       ignore (Mva.solve nw);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "num_states large" true (Mva.num_states nw > 2_000_000)

let test_mva_delay_only () =
  (* Pure delay network: X = N / Z, no queueing anywhere. *)
  let nw =
    Network.make
      ~stations:[| ("z", Network.Delay) |]
      ~classes:
        [|
          {
            Network.class_name = "c";
            population = 7;
            visits = [| 1. |];
            service = [| 3.5 |];
          };
        |]
  in
  let s = Mva.solve nw in
  close "X = N/Z" 2. s.Solution.throughput.(0);
  close "queue = N" 7. s.Solution.queue.(0).(0)

(* Two [Mva.solve] solutions recorded while each population vector had
   its own q-vector: the slab that replaced them keeps every bit.  The
   second network has a delay, a queueing and a two-server station. *)
let test_mva_recorded_solutions () =
  let bits (s : Solution.t) =
    List.map (Printf.sprintf "%h")
      (Array.to_list s.Solution.throughput
      @ List.concat_map Array.to_list (Array.to_list s.Solution.residence)
      @ List.concat_map Array.to_list (Array.to_list s.Solution.queue))
  in
  Alcotest.(check (list string)) "two classes, two queues"
    [
      "0x1.82bfe13f7abdcp-1";
      "0x1.8354454899f18p-1";
      "0x1.617772a44227dp+0";
      "0x1.4ba071163179cp+1";
      "0x1.37feb5a2c32f9p+0";
      "0x1.6ccdd51763dap+0";
      "0x1.0aff84fdeaf6fp+0";
      "0x1.f5007b0215091p+0";
      "0x1.d80cc098c8ae7p-1";
      "0x1.13f99fb39ba8ep+0";
    ]
    (bits (Mva.solve (two_class ())));
  let three_kinds =
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
  Alcotest.(check (list string)) "delay, queueing and two-server stations"
    [
      "0x1.acf46c667c01dp-1";
      "0x1.2f09a522f3a73p-1";
      "0x1p+1";
      "0x1.f62b0756ab768p-1";
      "0x1.3333333333333p-1";
      "0x1p+0";
      "0x1.8e87a19077722p+0";
      "0x1.a50c76bd9850ep-1";
      "0x1.acf46c667c01dp+0";
      "0x1.a4b7b2f58a61bp-1";
      "0x1.015f743d7d9abp-1";
      "0x1.2f09a522f3a73p-1";
      "0x1.d7c18c127fe8ep-1";
      "0x1.f2699d9518dfep-2";
    ]
    (bits (Mva.solve three_kinds))

(* ------------------------------------------------------------------ *)
(* AMVA *)

let test_amva_close_to_exact_single () =
  List.iter
    (fun n ->
      let nw = central_server ~n in
      let e = (Mva.solve nw).Solution.throughput.(0) in
      let a = (Amva.solve nw).Solution.throughput.(0) in
      if abs_float (a -. e) /. e > 0.05 then
        Alcotest.failf "AMVA off by more than 5%% at N=%d: %g vs %g" n a e)
    [ 1; 2; 5; 10; 30 ]

let test_amva_close_to_exact_multiclass () =
  let nw = two_class () in
  let e = Mva.solve nw and a = Amva.solve nw in
  for c = 0 to 1 do
    let err =
      abs_float (a.Solution.throughput.(c) -. e.Solution.throughput.(c))
      /. e.Solution.throughput.(c)
    in
    if err > 0.06 then Alcotest.failf "class %d error %g > 6%%" c err
  done

let test_amva_exact_at_n1 () =
  (* With a single customer the Schweitzer estimate is exact. *)
  let nw = central_server ~n:1 in
  close ~eps:1e-7 "N=1"
    (Mva.solve nw).Solution.throughput.(0)
    (Amva.solve nw).Solution.throughput.(0)

let test_amva_converges_flag () =
  let nw = central_server ~n:8 in
  let s = Amva.solve nw in
  Alcotest.(check bool) "converged" true s.Solution.converged;
  Alcotest.(check bool) "iterations > 1" true (s.Solution.iterations > 1)

let test_amva_iteration_cap () =
  let nw = central_server ~n:8 in
  let s =
    Amva.solve
      ~options:{ Amva.default_options with Amva.max_iterations = 2 }
      nw
  in
  Alcotest.(check bool) "not converged" false s.Solution.converged;
  Alcotest.(check int) "hit cap" 2 s.Solution.iterations

let test_amva_littles_law () =
  let s = Amva.solve (two_class ()) in
  close ~eps:1e-6 "residual" 0. (Solution.littles_law_residual s)

let test_amva_options_validated () =
  let nw = central_server ~n:2 in
  Alcotest.(check bool) "bad tolerance" true
    (try
       ignore
         (Amva.solve ~options:{ Amva.default_options with Amva.tolerance = 0. } nw);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad damping" true
    (try
       ignore
         (Amva.solve ~options:{ Amva.default_options with Amva.damping = 1. } nw);
       false
     with Invalid_argument _ -> true)

let test_amva_damping_same_fixed_point () =
  let nw = central_server ~n:10 in
  let plain = Amva.solve nw in
  let damped =
    Amva.solve ~options:{ Amva.default_options with Amva.damping = 0.5 } nw
  in
  close ~eps:1e-6 "same fixed point" plain.Solution.throughput.(0)
    damped.Solution.throughput.(0)

(* ------------------------------------------------------------------ *)
(* Convolution *)

let test_convolution_rejects_multiclass () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Convolution.solve (two_class ()));
       false
     with Invalid_argument _ -> true)

let test_convolution_normalizing_constants_positive () =
  let g = Convolution.normalizing_constants (central_server ~n:12) in
  Alcotest.(check int) "length" 13 (Array.length g);
  Array.iter (fun v -> Alcotest.(check bool) "positive" true (v > 0.)) g

let test_convolution_with_delay () =
  let nw = repairman ~n:6 ~think:4. ~repair:1.5 in
  let a = Mva.solve nw and b = Convolution.solve nw in
  close ~eps:1e-9 "throughput with delay station" a.Solution.throughput.(0)
    b.Solution.throughput.(0)

(* ------------------------------------------------------------------ *)
(* Solution / Bounds *)

let test_solution_utilization_law () =
  let nw = central_server ~n:6 in
  let s = Mva.solve nw in
  (* U_m = X * D_m at every station. *)
  for m = 0 to 2 do
    close ~eps:1e-9 "utilization law"
      (s.Solution.throughput.(0) *. Network.demand nw ~cls:0 ~station:m)
      (Solution.utilization s ~station:m)
  done;
  Alcotest.(check bool) "utilization < 1" true
    (Solution.utilization s ~station:2 < 1.)

let test_solution_queues_sum_to_population () =
  let s = Mva.solve (two_class ()) in
  let total =
    Solution.queue_total s ~station:0 +. Solution.queue_total s ~station:1
  in
  close ~eps:1e-9 "all customers somewhere" 5. total

let test_bounds_sandwich_exact () =
  List.iter
    (fun n ->
      let nw = central_server ~n in
      let x = (Mva.solve nw).Solution.throughput.(0) in
      let b = Bounds.analyze nw ~cls:0 in
      if x > b.Bounds.x_upper +. 1e-9 then
        Alcotest.failf "X %g above upper bound %g at N=%d" x b.Bounds.x_upper n;
      if x < b.Bounds.x_lower -. 1e-9 then
        Alcotest.failf "X %g below lower bound %g at N=%d" x b.Bounds.x_lower n;
      if x > b.Bounds.x_balanced_upper +. 1e-9 then
        Alcotest.failf "X %g above balanced upper %g at N=%d" x
          b.Bounds.x_balanced_upper n)
    [ 1; 2; 4; 8; 16; 64 ]

let test_bounds_knee () =
  let nw = repairman ~n:4 ~think:5. ~repair:1. in
  let b = Bounds.analyze nw ~cls:0 in
  close "N* = (D+Z)/Dmax" 6. b.Bounds.n_star;
  close "x upper small N" (4. /. 6.) b.Bounds.x_upper

let test_bounds_rejects_multiclass () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Bounds.analyze (two_class ()) ~cls:0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Multi-server stations *)

let multi_server_net ~servers ~n =
  Network.make
    ~stations:
      [| ("think", Network.Delay); ("pool", Network.Multi_server servers) |]
    ~classes:
      [|
        {
          Network.class_name = "jobs";
          population = n;
          visits = [| 1.; 1. |];
          service = [| 2.; 1.5 |];
        };
      |]

let test_multiserver_convolution_vs_ctmc () =
  List.iter
    (fun (servers, n) ->
      let nw = multi_server_net ~servers ~n in
      let a = Convolution.solve nw in
      let b = Lattol_markov.Qn_ctmc.solve nw in
      close ~eps:1e-8 "throughput" a.Solution.throughput.(0)
        b.Solution.throughput.(0);
      close ~eps:1e-7 "queue" a.Solution.queue.(0).(1) b.Solution.queue.(0).(1))
    [ (2, 5); (3, 7); (4, 4) ]

let test_multiserver_one_equals_queueing () =
  let ms = Convolution.solve (multi_server_net ~servers:1 ~n:6) in
  let nw =
    Network.make
      ~stations:[| ("think", Network.Delay); ("pool", Network.Queueing) |]
      ~classes:
        [|
          {
            Network.class_name = "jobs";
            population = 6;
            visits = [| 1.; 1. |];
            service = [| 2.; 1.5 |];
          };
        |]
  in
  let q = Convolution.solve nw in
  close ~eps:1e-12 "identical" q.Solution.throughput.(0) ms.Solution.throughput.(0);
  (* and the MVA conditional-wait form also collapses to the plain case *)
  let m1 = Mva.solve (multi_server_net ~servers:1 ~n:6) in
  let m2 = Mva.solve nw in
  close ~eps:1e-12 "mva identical" m2.Solution.throughput.(0)
    m1.Solution.throughput.(0)

let test_multiserver_amva_accuracy () =
  List.iter
    (fun (servers, n) ->
      let nw = multi_server_net ~servers ~n in
      let exact = (Convolution.solve nw).Solution.throughput.(0) in
      let approx = (Amva.solve nw).Solution.throughput.(0) in
      let err = abs_float (approx -. exact) /. exact in
      if err > 0.08 then
        Alcotest.failf "AMVA multiserver error %.3f at c=%d N=%d" err servers n)
    [ (2, 5); (2, 10); (3, 8); (4, 12) ]

let test_multiserver_speedup_monotone () =
  let x servers =
    (Convolution.solve (multi_server_net ~servers ~n:8)).Solution.throughput.(0)
  in
  Alcotest.(check bool) "more servers help" true (x 1 < x 2 && x 2 < x 3);
  (* with as many servers as customers the station is effectively a delay *)
  let delay =
    Network.make
      ~stations:[| ("think", Network.Delay); ("pool", Network.Delay) |]
      ~classes:
        [|
          {
            Network.class_name = "jobs";
            population = 8;
            visits = [| 1.; 1. |];
            service = [| 2.; 1.5 |];
          };
        |]
  in
  close ~eps:1e-8 "c = N acts as infinite servers"
    (Mva.solve delay).Solution.throughput.(0)
    (x 8)

let test_multiserver_validation () =
  Alcotest.(check bool) "0 servers rejected" true
    (try
       ignore (multi_server_net ~servers:0 ~n:1);
       false
     with Invalid_argument _ -> true)

let test_multiserver_bounds_hold () =
  List.iter
    (fun (servers, n) ->
      let nw = multi_server_net ~servers ~n in
      let x = (Convolution.solve nw).Solution.throughput.(0) in
      let b = Bounds.analyze nw ~cls:0 in
      if x > b.Bounds.x_upper +. 1e-9 then
        Alcotest.failf "X %g above upper %g (c=%d N=%d)" x b.Bounds.x_upper
          servers n)
    [ (2, 3); (2, 12); (3, 9) ]

(* ------------------------------------------------------------------ *)
(* Linearizer *)

let test_linearizer_beats_bard_schweitzer () =
  List.iter
    (fun n ->
      let nw = central_server ~n in
      let e = (Mva.solve nw).Solution.throughput.(0) in
      let bs = (Amva.solve nw).Solution.throughput.(0) in
      let lin = (Linearizer.solve nw).Solution.throughput.(0) in
      let err x = abs_float (x -. e) /. e in
      if err lin > err bs +. 1e-9 then
        Alcotest.failf "Linearizer worse than BS at N=%d: %g vs %g" n (err lin)
          (err bs);
      if err lin > 0.01 then
        Alcotest.failf "Linearizer error %g > 1%% at N=%d" (err lin) n)
    [ 2; 5; 10; 30 ]

let test_linearizer_multiclass () =
  let nw = two_class () in
  let e = Mva.solve nw and lin = Linearizer.solve nw in
  for c = 0 to 1 do
    let err =
      abs_float (lin.Solution.throughput.(c) -. e.Solution.throughput.(c))
      /. e.Solution.throughput.(c)
    in
    if err > 0.03 then Alcotest.failf "class %d error %g" c err
  done;
  close ~eps:1e-6 "Little's law" 0. (Solution.littles_law_residual lin)

let test_linearizer_exact_at_n1 () =
  let nw = central_server ~n:1 in
  close ~eps:1e-7 "N=1"
    (Mva.solve nw).Solution.throughput.(0)
    (Linearizer.solve nw).Solution.throughput.(0)

let test_linearizer_validation () =
  Alcotest.(check bool) "bad outer iterations" true
    (try
       ignore (Linearizer.solve ~outer_iterations:0 (central_server ~n:2));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Non-preemptive priority M/M/1 (Cobham) *)

let test_priority_reduces_to_mm1 () =
  (* One class: W = rho s / (1 - rho). *)
  let t =
    Priority_mm1.make [| { Priority_mm1.arrival_rate = 0.8; service_time = 1. } |]
  in
  close ~eps:1e-9 "utilization" 0.8 (Priority_mm1.utilization t);
  close ~eps:1e-9 "waiting" 4. (Priority_mm1.waiting_time t ~cls:0);
  close ~eps:1e-9 "fcfs same" 4. (Priority_mm1.fcfs_waiting_time t)

let test_priority_ordering () =
  let t =
    Priority_mm1.make
      [|
        { Priority_mm1.arrival_rate = 0.3; service_time = 1. };
        { Priority_mm1.arrival_rate = 0.3; service_time = 1. };
        { Priority_mm1.arrival_rate = 0.3; service_time = 1. };
      |]
  in
  let w k = Priority_mm1.waiting_time t ~cls:k in
  Alcotest.(check bool) "monotone in class" true (w 0 < w 1 && w 1 < w 2);
  (* conservation: the weighted average waiting equals FCFS (equal service
     times => the M/M/1 work-conservation identity) *)
  let avg = (w 0 +. w 1 +. w 2) /. 3. in
  close ~eps:1e-9 "work conservation" (Priority_mm1.fcfs_waiting_time t) avg

let test_priority_validation () =
  Alcotest.(check bool) "overload rejected" true
    (try
       ignore
         (Priority_mm1.make
            [| { Priority_mm1.arrival_rate = 2.; service_time = 1. } |]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Jackson open networks *)

let single ~servers ~rho =
  Jackson.make
    ~stations:[| { Jackson.name = "q"; servers; service_time = 1. } |]
    ~arrivals:[| rho *. float_of_int servers |]
    ~routing:[| [| 0. |] |]

let test_jackson_mm1 () =
  let t = single ~servers:1 ~rho:0.8 in
  close ~eps:1e-9 "L = rho/(1-rho)" 4. (Jackson.mean_queue_length t ~station:0);
  close ~eps:1e-9 "W = 1/(1-rho)" 5. (Jackson.mean_response_time t ~station:0);
  Alcotest.(check bool) "stable" true (Jackson.is_stable t);
  close ~eps:1e-9 "capacity headroom" 1.25 (Jackson.capacity t)

let test_jackson_mm2 () =
  (* Erlang-C(2, 0.8) = 0.7111..., L = 32/9 + 8/5 hand-checked 4.4444. *)
  let t = single ~servers:2 ~rho:0.8 in
  close ~eps:1e-4 "L" 4.4444 (Jackson.mean_queue_length t ~station:0);
  (* many servers at the same rho wait less *)
  let l4 = Jackson.mean_queue_length (single ~servers:4 ~rho:0.8) ~station:0 in
  Alcotest.(check bool) "pooling helps" true
    (l4 -. (4. *. 0.8) < Jackson.mean_queue_length t ~station:0 -. 1.6)

let test_jackson_tandem_sojourn () =
  let t =
    Jackson.make
      ~stations:
        [| { Jackson.name = "a"; servers = 1; service_time = 1. };
           { Jackson.name = "b"; servers = 1; service_time = 0.5 } |]
      ~arrivals:[| 0.5; 0. |]
      ~routing:[| [| 0.; 1. |]; [| 0.; 0. |] |]
  in
  close ~eps:1e-9 "lambda b" 0.5 (Jackson.throughputs t).(1);
  close ~eps:1e-6 "sojourn = W_a + W_b" (2. +. (2. /. 3.))
    (Jackson.mean_sojourn t ~entry:0)

let test_jackson_feedback () =
  (* Arrivals 1, return probability 1/2: effective rate 2. *)
  let t =
    Jackson.make
      ~stations:[| { Jackson.name = "cpu"; servers = 1; service_time = 0.2 } |]
      ~arrivals:[| 1. |]
      ~routing:[| [| 0.5 |] |]
  in
  close ~eps:1e-9 "traffic equations" 2. (Jackson.throughputs t).(0);
  close ~eps:1e-9 "rho" 0.4 (Jackson.utilization t ~station:0)

let test_jackson_unstable () =
  let t = single ~servers:1 ~rho:1.2 in
  Alcotest.(check bool) "unstable" false (Jackson.is_stable t);
  Alcotest.(check bool) "infinite queue" true
    (Jackson.mean_queue_length t ~station:0 = infinity)

let test_jackson_validation () =
  let invalid f =
    Alcotest.(check bool) "raises" true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  (* closed loop: jobs never leave *)
  invalid (fun () ->
      Jackson.make
        ~stations:[| { Jackson.name = "q"; servers = 1; service_time = 1. } |]
        ~arrivals:[| 1. |]
        ~routing:[| [| 1. |] |]);
  invalid (fun () ->
      Jackson.make
        ~stations:[| { Jackson.name = "q"; servers = 0; service_time = 1. } |]
        ~arrivals:[| 1. |]
        ~routing:[| [| 0. |] |]);
  invalid (fun () ->
      Jackson.make
        ~stations:[| { Jackson.name = "q"; servers = 1; service_time = 1. } |]
        ~arrivals:[| -1. |]
        ~routing:[| [| 0. |] |]);
  invalid (fun () ->
      Jackson.make
        ~stations:[| { Jackson.name = "q"; servers = 1; service_time = 1. } |]
        ~arrivals:[| 1. |]
        ~routing:[| [| 1.5 |] |])

(* ------------------------------------------------------------------ *)
(* Properties *)

let arb_net =
  (* random single-class network with 2-5 queueing stations *)
  QCheck.make
    ~print:(fun (n, demands) ->
      Printf.sprintf "N=%d demands=[%s]" n
        (String.concat ";" (List.map string_of_float demands)))
    QCheck.Gen.(
      pair (int_range 1 12)
        (list_size (int_range 2 5) (float_range 0.05 3.)))

let build_single (n, demands) =
  let m = List.length demands in
  Network.make
    ~stations:(Array.init m (fun i -> (Printf.sprintf "s%d" i, Network.Queueing)))
    ~classes:
      [|
        {
          Network.class_name = "c";
          population = n;
          visits = Array.make m 1.;
          service = Array.of_list demands;
        };
      |]

let prop_mva_littles_law =
  QCheck.Test.make ~name:"exact MVA satisfies Little's law" ~count:100 arb_net
    (fun spec ->
      let s = Mva.solve (build_single spec) in
      Solution.littles_law_residual s < 1e-9)

let prop_mva_within_bounds =
  QCheck.Test.make ~name:"exact MVA within asymptotic bounds" ~count:100
    arb_net (fun spec ->
      let nw = build_single spec in
      let x = (Mva.solve nw).Solution.throughput.(0) in
      let b = Bounds.analyze nw ~cls:0 in
      x <= b.Bounds.x_upper +. 1e-9 && x >= b.Bounds.x_lower -. 1e-9)

let prop_throughput_monotone_in_population =
  QCheck.Test.make ~name:"throughput grows with population" ~count:50 arb_net
    (fun (n, demands) ->
      let x pop = (Mva.solve (build_single (pop, demands))).Solution.throughput.(0) in
      x n <= x (n + 1) +. 1e-9)

let prop_amva_within_10pct =
  QCheck.Test.make ~name:"AMVA within 10% of exact" ~count:60 arb_net
    (fun spec ->
      let nw = build_single spec in
      let e = (Mva.solve nw).Solution.throughput.(0) in
      let a = (Amva.solve nw).Solution.throughput.(0) in
      abs_float (a -. e) /. e < 0.10)

let prop_amva_queues_sum_to_population =
  QCheck.Test.make ~name:"AMVA queues sum to population" ~count:60 arb_net
    (fun spec ->
      let nw = build_single spec in
      let s = Amva.solve nw in
      let total = ref 0. in
      for m = 0 to Network.num_stations nw - 1 do
        total := !total +. Solution.queue_total s ~station:m
      done;
      abs_float (!total -. float_of_int (Network.population nw 0)) < 1e-5)

let prop_linearizer_close_to_exact =
  QCheck.Test.make ~name:"Linearizer within 5% of exact" ~count:40 arb_net
    (fun spec ->
      let nw = build_single spec in
      let e = (Mva.solve nw).Solution.throughput.(0) in
      let lin = (Linearizer.solve nw).Solution.throughput.(0) in
      abs_float (lin -. e) /. e < 0.05)

let prop_jackson_traffic_fixed_point =
  QCheck.Test.make ~name:"Jackson throughputs satisfy the traffic equations"
    ~count:60
    QCheck.(
      pair
        (list_of_size Gen.(int_range 2 5) (float_range 0.01 1.))
        (float_range 0. 0.7))
    (fun (arrival_list, feedback) ->
      let n = List.length arrival_list in
      let arrivals = Array.of_list arrival_list in
      (* ring routing with leakage 1 - feedback at each hop *)
      let routing =
        Array.init n (fun i ->
            Array.init n (fun j -> if j = (i + 1) mod n then feedback else 0.))
      in
      let stations =
        Array.init n (fun i ->
            { Jackson.name = Printf.sprintf "s%d" i; servers = 1;
              service_time = 0.01 })
      in
      let t = Jackson.make ~stations ~arrivals ~routing in
      let lambda = Jackson.throughputs t in
      let ok = ref true in
      for i = 0 to n - 1 do
        let inflow =
          arrivals.(i) +. (feedback *. lambda.((i - 1 + n) mod n))
        in
        if abs_float (inflow -. lambda.(i)) > 1e-9 then ok := false
      done;
      !ok)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lattol_queueing"
    [
      ( "network",
        [
          Alcotest.test_case "accessors" `Quick test_network_accessors;
          Alcotest.test_case "validation" `Quick test_network_validation;
          Alcotest.test_case "with_population" `Quick test_with_population;
        ] );
      ( "mva",
        [
          Alcotest.test_case "single customer" `Quick test_mva_single_customer;
          Alcotest.test_case "repairman" `Quick test_mva_repairman_closed_form;
          Alcotest.test_case "matches convolution" `Quick test_mva_matches_convolution;
          Alcotest.test_case "multiclass Little" `Quick test_mva_multiclass_littles_law;
          Alcotest.test_case "state cap" `Quick test_mva_state_cap;
          Alcotest.test_case "delay only" `Quick test_mva_delay_only;
          Alcotest.test_case "recorded solutions" `Quick test_mva_recorded_solutions;
        ] );
      ( "amva",
        [
          Alcotest.test_case "close to exact (1 class)" `Quick
            test_amva_close_to_exact_single;
          Alcotest.test_case "close to exact (2 classes)" `Quick
            test_amva_close_to_exact_multiclass;
          Alcotest.test_case "exact at N=1" `Quick test_amva_exact_at_n1;
          Alcotest.test_case "convergence flag" `Quick test_amva_converges_flag;
          Alcotest.test_case "iteration cap" `Quick test_amva_iteration_cap;
          Alcotest.test_case "Little's law" `Quick test_amva_littles_law;
          Alcotest.test_case "options validated" `Quick test_amva_options_validated;
          Alcotest.test_case "damping reaches same fixed point" `Quick
            test_amva_damping_same_fixed_point;
        ] );
      ( "convolution",
        [
          Alcotest.test_case "rejects multiclass" `Quick
            test_convolution_rejects_multiclass;
          Alcotest.test_case "normalizing constants" `Quick
            test_convolution_normalizing_constants_positive;
          Alcotest.test_case "with delay station" `Quick test_convolution_with_delay;
        ] );
      ( "multi-server",
        [
          Alcotest.test_case "convolution vs CTMC" `Quick
            test_multiserver_convolution_vs_ctmc;
          Alcotest.test_case "c=1 equals single server" `Quick
            test_multiserver_one_equals_queueing;
          Alcotest.test_case "AMVA accuracy" `Quick test_multiserver_amva_accuracy;
          Alcotest.test_case "speedup monotone" `Quick
            test_multiserver_speedup_monotone;
          Alcotest.test_case "validation" `Quick test_multiserver_validation;
          Alcotest.test_case "bounds hold" `Quick test_multiserver_bounds_hold;
        ] );
      ( "solution+bounds",
        [
          Alcotest.test_case "utilization law" `Quick test_solution_utilization_law;
          Alcotest.test_case "queues sum to N" `Quick
            test_solution_queues_sum_to_population;
          Alcotest.test_case "bounds sandwich" `Quick test_bounds_sandwich_exact;
          Alcotest.test_case "knee" `Quick test_bounds_knee;
          Alcotest.test_case "bounds reject multiclass" `Quick
            test_bounds_rejects_multiclass;
        ] );
      ( "priority-mm1",
        [
          Alcotest.test_case "reduces to M/M/1" `Quick test_priority_reduces_to_mm1;
          Alcotest.test_case "class ordering + conservation" `Quick
            test_priority_ordering;
          Alcotest.test_case "validation" `Quick test_priority_validation;
        ] );
      ( "jackson",
        [
          Alcotest.test_case "M/M/1" `Quick test_jackson_mm1;
          Alcotest.test_case "M/M/c" `Quick test_jackson_mm2;
          Alcotest.test_case "tandem sojourn" `Quick test_jackson_tandem_sojourn;
          Alcotest.test_case "feedback loop" `Quick test_jackson_feedback;
          Alcotest.test_case "instability" `Quick test_jackson_unstable;
          Alcotest.test_case "validation" `Quick test_jackson_validation;
        ] );
      ( "linearizer",
        [
          Alcotest.test_case "beats Bard-Schweitzer" `Quick
            test_linearizer_beats_bard_schweitzer;
          Alcotest.test_case "multiclass" `Quick test_linearizer_multiclass;
          Alcotest.test_case "exact at N=1" `Quick test_linearizer_exact_at_n1;
          Alcotest.test_case "validation" `Quick test_linearizer_validation;
        ] );
      ( "properties",
        qcheck
          [
            prop_mva_littles_law;
            prop_mva_within_bounds;
            prop_throughput_monotone_in_population;
            prop_amva_within_10pct;
            prop_amva_queues_sum_to_population;
            prop_linearizer_close_to_exact;
            prop_jackson_traffic_fixed_point;
          ] );
    ]
