(* Tests for the paper's core contribution: the MMS queueing model, the
   tolerance index, the bottleneck formulas (Eqs. 4 and 5), thread
   partitioning and scaling analyses.  Several tests pin the numeric
   anchors recovered from the paper's text. *)

open Lattol_core
open Lattol_topology
open Lattol_queueing

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

module Astring_contains = struct
  let contains haystack needle =
    let h = String.length haystack and n = String.length needle in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    n = 0 || go 0
end

let default = Params.default

(* ------------------------------------------------------------------ *)
(* Params *)

let test_default_params () =
  Alcotest.(check int) "P" 16 (Params.num_processors default);
  close "occupancy" 1. (Params.processor_occupancy default);
  close ~eps:1e-4 "d_avg anchor" 1.7333 (Params.d_avg default)

let test_params_validation () =
  let bad p = Alcotest.(check bool) "invalid" true (Result.is_error (Params.validate p)) in
  bad { default with Params.k = 0 };
  bad { default with Params.n_t = -1 };
  bad { default with Params.runlength = 0. };
  bad { default with Params.context_switch = -1. };
  bad { default with Params.p_remote = 1.5 };
  bad { default with Params.p_remote = -0.1 };
  bad { default with Params.l_mem = -1. };
  bad { default with Params.s_switch = -1. };
  bad { default with Params.pattern = Access.Geometric 0. };
  bad { default with Params.k = 1 } (* p_remote > 0 on one node *);
  Alcotest.(check bool) "default valid" true (Result.is_ok (Params.validate default));
  Alcotest.(check bool) "k=1 local-only valid" true
    (Result.is_ok (Params.validate { default with Params.k = 1; p_remote = 0. }))

(* ------------------------------------------------------------------ *)
(* Visit ratios / network construction *)

let test_visit_ratios_structure () =
  let p = default in
  let n = Params.num_processors p in
  let v = Mms.class_visits p ~cls:0 in
  close "one processor visit" 1. v.(Mms.processor_station p ~node:0);
  (* memory visits sum to 1 (every cycle makes one access) *)
  let mem_sum = ref 0. in
  for node = 0 to n - 1 do
    mem_sum := !mem_sum +. v.(Mms.memory_station p ~node)
  done;
  close "memory visits sum to 1" 1. !mem_sum;
  close "local memory visit" (1. -. p.Params.p_remote)
    v.(Mms.memory_station p ~node:0);
  (* no other processor is ever visited *)
  for node = 1 to n - 1 do
    close "foreign processor unvisited" 0. v.(Mms.processor_station p ~node)
  done

let test_visit_ratios_round_trip_identity () =
  (* Total switch visits per cycle must equal p_remote * 2 (d_avg + 1):
     each remote round trip crosses 2 outbound and 2 h inbound switches. *)
  let check_for p =
    let n = Params.num_processors p in
    let v = Mms.class_visits p ~cls:0 in
    let switch_sum = ref 0. in
    for node = 0 to n - 1 do
      switch_sum :=
        !switch_sum
        +. v.(Mms.inbound_station p ~node)
        +. v.(Mms.outbound_station p ~node)
    done;
    let d_avg = Params.d_avg p in
    close ~eps:1e-9 "2 p_remote (d_avg + 1)"
      (2. *. p.Params.p_remote *. (d_avg +. 1.))
      !switch_sum
  in
  check_for default;
  check_for { default with Params.p_remote = 0.9; pattern = Access.Uniform };
  check_for { default with Params.k = 5; pattern = Access.Geometric 0.3 }

let test_outbound_visits () =
  let p = default in
  let v = Mms.class_visits p ~cls:0 in
  (* Own outbound switch carries every remote request once. *)
  let access = Params.make_access p in
  let own = v.(Mms.outbound_station p ~node:0) in
  (* own outbound = p_remote (requests) + em_{0,0 responses}? responses
     leave through remote outbound switches, so own = p_remote only. *)
  close "own outbound = p_remote" p.Params.p_remote own;
  (* Remote outbound switch at node j carries that flow's responses. *)
  close "remote outbound = em"
    (Access.prob access ~src:0 ~dst:5)
    v.(Mms.outbound_station p ~node:5)

let test_network_construction () =
  let p = { default with Params.k = 2; n_t = 3 } in
  let nw = Mms.build_network p in
  Alcotest.(check int) "stations" (4 * 4) (Network.num_stations nw);
  Alcotest.(check int) "classes" 4 (Network.num_classes nw);
  Alcotest.(check int) "population" 3 (Network.population nw 1)

(* ------------------------------------------------------------------ *)
(* Solvers *)

let test_symmetric_matches_general_amva () =
  List.iter
    (fun p ->
      let s = Mms.solve ~solver:Mms.Symmetric_amva p in
      let g = Mms.solve ~solver:Mms.General_amva p in
      close ~eps:1e-5 "U_p" g.Measures.u_p s.Measures.u_p;
      close ~eps:1e-4 "S_obs" g.Measures.s_obs s.Measures.s_obs;
      close ~eps:1e-4 "L_obs" g.Measures.l_obs s.Measures.l_obs)
    [
      { default with Params.k = 2; n_t = 3 };
      { default with Params.k = 3; n_t = 5; p_remote = 0.6 };
      { default with Params.k = 4; n_t = 8; pattern = Access.Uniform };
    ]

let test_amva_close_to_exact_mms () =
  (* Tiny MMS where exact multi-class MVA is feasible. *)
  let p = { default with Params.k = 2; n_t = 2; p_remote = 0.5 } in
  let approx = Mms.solve ~solver:Mms.Symmetric_amva p in
  let exact = Mms.solve ~solver:Mms.Exact_mva p in
  let err = abs_float (approx.Measures.u_p -. exact.Measures.u_p) /. exact.Measures.u_p in
  if err > 0.05 then Alcotest.failf "AMVA error %g > 5%%" err

let test_measures_consistency () =
  let m = Mms.solve default in
  close ~eps:1e-9 "lambda_net = lambda * p_remote"
    (m.Measures.lambda *. default.Params.p_remote)
    m.Measures.lambda_net;
  close ~eps:1e-9 "U_p = lambda * R"
    (m.Measures.lambda *. Params.processor_occupancy default)
    m.Measures.u_p;
  (* Little's law on the cycle: n_t = lambda * cycle_time *)
  close ~eps:1e-6 "Little" (float_of_int default.Params.n_t)
    (m.Measures.lambda *. m.Measures.cycle_time);
  Alcotest.(check bool) "converged" true m.Measures.converged;
  Alcotest.(check bool) "U_p in range" true (m.Measures.u_p > 0. && m.Measures.u_p <= 1.)

let test_zero_threads () =
  let m = Mms.solve { default with Params.n_t = 0 } in
  close "U_p" 0. m.Measures.u_p;
  close "lambda" 0. m.Measures.lambda

let test_zero_remote_reduces_to_repairman () =
  (* p_remote = 0: each node is an independent processor-memory loop. *)
  let p = { default with Params.p_remote = 0.; n_t = 8 } in
  let m = Mms.solve p in
  (* Balanced two-station closed network, D = R = L = 1:
     X(N) = N / (N + 1) under AMVA?  AMVA is not exact here; compare to the
     general AMVA instead and to the exact value within tolerance. *)
  let nw =
    Network.make
      ~stations:[| ("p", Network.Queueing); ("m", Network.Queueing) |]
      ~classes:
        [|
          {
            Network.class_name = "t";
            population = 8;
            visits = [| 1.; 1. |];
            service = [| 1.; 1. |];
          };
        |]
  in
  let x = (Amva.solve nw).Solution.throughput.(0) in
  close ~eps:1e-6 "same as two-station AMVA" x m.Measures.u_p;
  Alcotest.(check bool) "s_obs undefined" true (Float.is_nan m.Measures.s_obs)

let test_ideal_subsystems_zero_latency () =
  let m = Mms.solve { default with Params.s_switch = 0. } in
  close ~eps:1e-9 "S_obs = 0 under ideal network" 0. m.Measures.s_obs;
  let m2 = Mms.solve { default with Params.l_mem = 0. } in
  close ~eps:1e-9 "L_obs = 0 under ideal memory" 0. m2.Measures.l_obs

let test_lambda_net_below_saturation () =
  (* Eq. 4 is an upper bound the model must respect at any load. *)
  let sat = Bottleneck.lambda_net_saturation default in
  List.iter
    (fun pr ->
      List.iter
        (fun nt ->
          let m = Mms.solve { default with Params.p_remote = pr; n_t = nt } in
          if m.Measures.lambda_net > sat +. 1e-6 then
            Alcotest.failf "lambda_net %g above saturation %g (pr=%g nt=%d)"
              m.Measures.lambda_net sat pr nt)
        [ 1; 4; 8; 10 ])
    [ 0.2; 0.5; 0.9 ]

let test_context_switch_overhead () =
  (* Adding context-switch time must not increase throughput. *)
  let base = Mms.solve default in
  let slower = Mms.solve { default with Params.context_switch = 0.5 } in
  Alcotest.(check bool) "lambda drops" true
    (slower.Measures.lambda < base.Measures.lambda)

let test_mesh_uses_general_solver () =
  let p = { default with Params.topology = Topology.Mesh; k = 2 } in
  let m = Mms.solve p in
  Alcotest.(check bool) "solves" true (m.Measures.u_p > 0.);
  Alcotest.(check bool) "symmetric solver refused" true
    (try
       ignore (Mms.solve ~solver:Mms.Symmetric_amva p);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Tolerance *)

let test_zone_boundaries () =
  Alcotest.(check bool) "0.9 tolerated" true
    (Tolerance.zone_of_index 0.9 = Tolerance.Tolerated);
  Alcotest.(check bool) "0.8 tolerated" true
    (Tolerance.zone_of_index 0.8 = Tolerance.Tolerated);
  Alcotest.(check bool) "0.65 partial" true
    (Tolerance.zone_of_index 0.65 = Tolerance.Partially_tolerated);
  Alcotest.(check bool) "0.3 not" true
    (Tolerance.zone_of_index 0.3 = Tolerance.Not_tolerated)

let test_paper_tolerance_anchors () =
  (* Paper Section 5 (R = 1, p_remote = 0.2, zero-remote ideal):
     tol_network = 0.86 at n_t = 5 and 0.9219 at n_t = 8. *)
  let r5 = Tolerance.network { default with Params.n_t = 5 } in
  close ~eps:5e-3 "n_t = 5 anchor" 0.8635 r5.Tolerance.tol;
  let r8 = Tolerance.network { default with Params.n_t = 8 } in
  close ~eps:5e-3 "n_t = 8 anchor" 0.9219 r8.Tolerance.tol;
  Alcotest.(check bool) "tolerated zone" true (r8.Tolerance.zone = Tolerance.Tolerated)

let test_ideal_params () =
  let p = default in
  let zd = Tolerance.ideal_params Tolerance.Network_latency Tolerance.Zero_delay p in
  close "S = 0" 0. zd.Params.s_switch;
  let zr = Tolerance.ideal_params Tolerance.Network_latency Tolerance.Zero_remote p in
  close "p_remote = 0" 0. zr.Params.p_remote;
  let md = Tolerance.ideal_params Tolerance.Memory_latency Tolerance.Zero_delay p in
  close "L = 0" 0. md.Params.l_mem;
  Alcotest.(check bool) "memory+zero_remote rejected" true
    (try
       ignore (Tolerance.ideal_params Tolerance.Memory_latency Tolerance.Zero_remote p);
       false
     with Invalid_argument _ -> true)

let test_tolerance_decreases_with_p_remote () =
  let tol pr = (Tolerance.network { default with Params.p_remote = pr }).Tolerance.tol in
  Alcotest.(check bool) "monotone down" true
    (tol 0.1 > tol 0.3 && tol 0.3 > tol 0.6 && tol 0.6 > tol 0.9)

let test_tolerance_improves_with_runlength () =
  (* Paper: increasing R improves tol_network. *)
  let tol r =
    (Tolerance.network { default with Params.runlength = r; p_remote = 0.4 }).Tolerance.tol
  in
  Alcotest.(check bool) "R=2 beats R=1" true (tol 2. > tol 1.)

let test_memory_tolerance_saturates () =
  (* Paper Section 6: for R >= 2, n_t >= 6, tol_memory ~ 1. *)
  let r = Tolerance.memory { default with Params.runlength = 2.; n_t = 6 } in
  Alcotest.(check bool) "tol_memory ~ 1" true (r.Tolerance.tol > 0.9);
  (* and L = 2 with R = 1 is poorly tolerated *)
  let bad = Tolerance.memory { default with Params.l_mem = 2.; runlength = 1. } in
  Alcotest.(check bool) "worse with L = 2" true (bad.Tolerance.tol < r.Tolerance.tol)

let test_threads_needed () =
  (* The paper: 5-8 threads tolerate the network, independent of k. *)
  List.iter
    (fun k ->
      match
        Tolerance.threads_needed Tolerance.Network_latency
          { default with Params.k }
      with
      | Some nt ->
        if nt < 2 || nt > 8 then
          Alcotest.failf "k=%d needs n_t=%d, expected 2..8" k nt
      | None -> Alcotest.failf "k=%d: no tolerable thread count" k)
    [ 2; 4; 6 ];
  (* an intolerable configuration returns None *)
  Alcotest.(check (option int)) "saturated network" None
    (Tolerance.threads_needed ~max_threads:10 Tolerance.Network_latency
       { default with Params.p_remote = 0.9 });
  Alcotest.(check bool) "bad target" true
    (try
       ignore
         (Tolerance.threads_needed ~target:0. Tolerance.Network_latency default);
       false
     with Invalid_argument _ -> true)

let test_zero_delay_tolerance_bounded () =
  (* Against a zero-delay ideal of the same workload, product-form
     throughput is monotone: tol <= 1 (+ small AMVA slack). *)
  List.iter
    (fun p ->
      let r = Tolerance.network ~ideal_method:Tolerance.Zero_delay p in
      if r.Tolerance.tol > 1.02 then
        Alcotest.failf "zero-delay tolerance %g > 1" r.Tolerance.tol)
    [
      default;
      { default with Params.k = 8; n_t = 10 };
      { default with Params.p_remote = 0.7; runlength = 2. };
    ]

(* ------------------------------------------------------------------ *)
(* Bottleneck (Eqs. 4 and 5) *)

let test_eq4_saturation_anchor () =
  (* 1 / (2 * 1.7333 * 1) = 0.2885 — the paper's 0.29. *)
  close ~eps:1e-3 "lambda_net saturation" 0.2885
    (Bottleneck.lambda_net_saturation default)

let test_eq5_critical_anchors () =
  (* Paper: critical p_remote = 0.18 at R = 1 and 0.68 at R = 2. *)
  close ~eps:5e-3 "R = 1" 0.183 (Bottleneck.p_remote_critical default);
  close ~eps:5e-3 "R = 2" 0.683
    (Bottleneck.p_remote_critical { default with Params.runlength = 2. })

let test_saturation_p_remote_anchors () =
  (* lambda_net saturates at p_remote ~ 0.29 R (0.3 and 0.6 in the text). *)
  let b1 = Bottleneck.analyze default in
  close ~eps:1e-2 "R = 1 saturation" 0.288 b1.Bottleneck.p_remote_saturation;
  let b2 = Bottleneck.analyze { default with Params.runlength = 2. } in
  close ~eps:1e-2 "R = 2 saturation" 0.577 b2.Bottleneck.p_remote_saturation

let test_bottleneck_ideal_cases () =
  let b = Bottleneck.analyze { default with Params.s_switch = 0. } in
  Alcotest.(check bool) "infinite saturation" true
    (b.Bottleneck.lambda_net_saturation = infinity);
  close "critical 1" 1. b.Bottleneck.p_remote_critical;
  let bm = Bottleneck.analyze { default with Params.l_mem = 0. } in
  close "memory cap 1" 1. bm.Bottleneck.memory_bound_u_p

let test_model_knee_matches_eq5 () =
  (* Below the Eq. 5 critical point the processor stays close to fully
     utilized; well past it, utilization has fallen substantially (R = 2
     case, where the knee is interior at p* = 0.683). *)
  let p = { default with Params.runlength = 2.; n_t = 8 } in
  let u pr = (Mms.solve { p with Params.p_remote = pr }).Measures.u_p in
  let crit = Bottleneck.p_remote_critical p in
  Alcotest.(check bool) "high well below knee" true (u (crit /. 2.) > 0.9);
  Alcotest.(check bool) "substantial drop past knee" true
    (u (Float.min 1. (crit +. 0.3)) < u crit -. 0.08)

let test_open_view_matches_eq4 () =
  (* The inbound switches saturate exactly where Eq. 4 says. *)
  let p = default in
  let sat_lambda = Bottleneck.lambda_net_saturation p /. p.Params.p_remote in
  let v_below = Bottleneck.open_view p ~lambda:(sat_lambda *. 0.98) in
  let v_above = Bottleneck.open_view p ~lambda:(sat_lambda *. 1.02) in
  Alcotest.(check bool) "inbound below 1" true (v_below.Bottleneck.util_switch_in < 1.);
  Alcotest.(check bool) "inbound above 1" true (v_above.Bottleneck.util_switch_in > 1.);
  (* memory saturates at lambda = 1/L regardless *)
  let v_mem = Bottleneck.open_view p ~lambda:1.01 in
  Alcotest.(check bool) "memory saturated" false v_mem.Bottleneck.stable

let test_open_view_unloaded_limit () =
  (* As lambda -> 0 the open latencies approach the unloaded values. *)
  let v = Bottleneck.open_view default ~lambda:1e-6 in
  close ~eps:1e-3 "L -> L" 1. v.Bottleneck.l_obs_open;
  let d_avg = (Bottleneck.analyze default).Bottleneck.d_avg in
  close ~eps:1e-3 "S -> (d_avg + 1) S" (d_avg +. 1.) v.Bottleneck.s_obs_open

let test_open_view_closed_model_consistency () =
  (* At the closed model's operating point, the open-view latencies should
     be in the same ballpark (the closed model sees less variance, so open
     estimates are upper-ish). *)
  let m = Mms.solve default in
  let v = Bottleneck.open_view default ~lambda:m.Measures.lambda in
  Alcotest.(check bool) "stable at operating point" true v.Bottleneck.stable;
  Alcotest.(check bool) "same order of magnitude" true
    (v.Bottleneck.l_obs_open > m.Measures.l_obs /. 3.
    && v.Bottleneck.l_obs_open < m.Measures.l_obs *. 3.)

let test_open_view_ideal_subsystems () =
  let v = Bottleneck.open_view { default with Params.s_switch = 0. } ~lambda:0.5 in
  close "no network latency" 0. v.Bottleneck.s_obs_open;
  let vm = Bottleneck.open_view { default with Params.l_mem = 0. } ~lambda:0.5 in
  close "no memory latency" 0. vm.Bottleneck.l_obs_open

(* ------------------------------------------------------------------ *)
(* Partitioning *)

let test_partitioning_sweep () =
  let points = Partitioning.sweep default ~work:8. ~n_ts:[ 1; 2; 4; 8 ] in
  Alcotest.(check int) "4 points" 4 (List.length points);
  List.iter
    (fun pt ->
      close ~eps:1e-9 "work conserved" 8. pt.Partitioning.work;
      Alcotest.(check bool) "valid U_p" true
        (pt.Partitioning.measures.Measures.u_p > 0.))
    points

let test_partitioning_prefers_runlength () =
  (* Paper: for n_t x R constant, high R with n_t > 1 tolerates best. *)
  let points =
    Partitioning.sweep
      { default with Params.p_remote = 0.4 }
      ~work:8. ~n_ts:[ 1; 2; 4; 8 ]
  in
  let best = Partitioning.best points in
  Alcotest.(check bool) "best is a few long threads" true
    (best.Partitioning.n_t = 2 || best.Partitioning.n_t = 4);
  (* n_t = 1 is worse than n_t = 2: no overlap at all *)
  let find n = List.find (fun pt -> pt.Partitioning.n_t = n) points in
  Alcotest.(check bool) "n_t=2 beats n_t=1" true
    ((find 2).Partitioning.measures.Measures.u_p
    > (find 1).Partitioning.measures.Measures.u_p)

let test_partitioning_validation () =
  Alcotest.(check bool) "bad n_t" true
    (try
       ignore (Partitioning.evaluate default ~n_t:0 ~runlength:1.);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad work" true
    (try
       ignore (Partitioning.sweep default ~work:0. ~n_ts:[ 1 ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty best" true
    (try
       ignore (Partitioning.best []);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Scaling *)

let test_scaling_geometric_beats_uniform () =
  (* Paper Section 7: at scale, geometric wins; at k = 2 they coincide. *)
  let geo k = Scaling.evaluate default ~k (Access.Geometric 0.5) in
  let uni k = Scaling.evaluate default ~k Access.Uniform in
  close ~eps:1e-6 "coincide at k=2" (geo 2).Scaling.tol_network
    (uni 2).Scaling.tol_network;
  Alcotest.(check bool) "geometric wins at k=8" true
    ((geo 8).Scaling.tol_network > (uni 8).Scaling.tol_network +. 0.2);
  Alcotest.(check bool) "uniform degrades with k" true
    ((uni 8).Scaling.tol_network < (uni 4).Scaling.tol_network)

let test_scaling_throughput_near_linear_geometric () =
  let pt k = Scaling.evaluate default ~k (Access.Geometric 0.5) in
  let t4 = (pt 4).Scaling.throughput and t8 = (pt 8).Scaling.throughput in
  (* quadrupling P should nearly quadruple throughput under locality *)
  Alcotest.(check bool) "superlinear in P? no; near-linear" true
    (t8 /. t4 > 3.5 && t8 /. t4 < 4.5)

let test_scaling_ideal_network_memory_contention () =
  (* The paper's Figure 10(b) mechanism: the zero-delay network suffers
     higher memory latency than the finite-delay geometric system. *)
  let pt = Scaling.evaluate default ~k:8 (Access.Geometric 0.5) in
  Alcotest.(check bool) "ideal L_obs above real L_obs" true
    (pt.Scaling.ideal_network.Measures.l_obs > pt.Scaling.measures.Measures.l_obs)

let test_scaling_sweep_shape () =
  let points =
    Scaling.sweep default ~ks:[ 2; 4 ] ~patterns:[ Access.Geometric 0.5; Access.Uniform ]
  in
  Alcotest.(check int) "4 points" 4 (List.length points);
  match points with
  | first :: _ ->
    Alcotest.(check int) "ordered by k" 2 first.Scaling.k;
    Alcotest.(check int) "P = k^2" 4 first.Scaling.num_processors
  | [] -> Alcotest.fail "empty sweep"

(* ------------------------------------------------------------------ *)
(* Network dimensionality *)

let test_dimensions_processor_count () =
  Alcotest.(check int) "ring" 8
    (Params.num_processors { default with Params.k = 8; dimensions = 1 });
  Alcotest.(check int) "cube" 64
    (Params.num_processors { default with Params.k = 4; dimensions = 3 })

let test_dimensions_symmetric_matches_general () =
  List.iter
    (fun (k, d) ->
      let p =
        { default with Params.k; dimensions = d; n_t = 3; p_remote = 0.4 }
      in
      let s = Mms.solve ~solver:Mms.Symmetric_amva p in
      let g = Mms.solve ~solver:Mms.General_amva p in
      close ~eps:1e-5 "U_p" g.Measures.u_p s.Measures.u_p)
    [ (6, 1); (3, 3) ]

let test_dimensions_ablation_order () =
  (* At equal P = 64 under a uniform pattern, higher dimensionality means
     shorter average routes and better utilization. *)
  let u (k, d) =
    (Mms.solve
       { default with Params.k; dimensions = d; p_remote = 0.4;
         pattern = Access.Uniform })
      .Measures.u_p
  in
  let ring = u (64, 1) and square = u (8, 2) and cube = u (4, 3) in
  Alcotest.(check bool) "cube > square > ring" true
    (cube > square && square > ring)

let test_linearizer_solver_close_to_exact () =
  let p = { default with Params.k = 2; n_t = 2; p_remote = 0.5 } in
  let lin = Mms.solve ~solver:Mms.Linearizer_amva p in
  let exact = Mms.solve ~solver:Mms.Exact_mva p in
  let err = abs_float (lin.Measures.u_p -. exact.Measures.u_p) /. exact.Measures.u_p in
  if err > 0.005 then Alcotest.failf "Linearizer MMS error %g > 0.5%%" err

(* The Linearizer honours [damping] the way Amva does: damping changes
   how many sweeps the inner fixed points take, never the fixed point. *)
let test_linearizer_damping () =
  let nw =
    Mms.build_network
      { default with Params.k = 2; p_remote = 0.6; pattern = Access.Uniform }
  in
  let solve ?(tolerance = 1e-8) damping =
    Linearizer.solve
      ~options:{ Amva.default_options with Amva.damping; tolerance }
      nw
  in
  let plain = solve 0. in
  List.iter
    (fun damping ->
      let d = solve damping in
      let what = Printf.sprintf "damping %g" damping in
      Alcotest.(check bool) (what ^ " converges") true d.Solution.converged;
      Alcotest.(check bool) (what ^ " changes the sweep count") true
        (d.Solution.iterations <> plain.Solution.iterations);
      close ~eps:1e-6 (what ^ " keeps the fixed point")
        plain.Solution.throughput.(0) d.Solution.throughput.(0))
    [ 0.5; 0.9 ];
  List.iter
    (fun (what, tolerance, damping) ->
      Alcotest.(check bool) (what ^ " rejected") true
        (try
           ignore (solve ~tolerance damping);
           false
         with Invalid_argument _ -> true))
    [
      ("tolerance 0", 0., 0.); ("damping 1", 1e-8, 1.);
      ("negative damping", 1e-8, -0.1); ("NaN damping", 1e-8, Float.nan);
    ]

(* Undamped, the Linearizer keeps every bit it had before damping
   reached it: the replicated-simulation oracle and [mms profile] solve
   it undamped.  The lines were recorded from the undamped solver. *)
let test_linearizer_undamped_pins () =
  List.iter
    (fun (p, line) ->
      Alcotest.(check string) "measures line" line
        (Lattol_exec.Cache.encode_measures_line
           (Mms.solve ~solver:Mms.Linearizer_amva p)))
    [
      ( default,
        "u_p=0x1.aff2b83b4d504p-1;lambda=0x1.aff2b83b4d504p-1;"
        ^ "lambda_net=0x1.598ef9c90aa68p-3;s_obs=0x1.62eb6eac89b8fp+2;"
        ^ "l_obs=0x1.f1eb2fe874b5bp+1;cycle_time=0x1.2f719fe7937fbp+3;"
        ^ "util_memory=0x1.aff109ebef46bp-1;"
        ^ "util_switch_in=0x1.2b7f38e239e5cp-1;"
        ^ "util_switch_out=0x1.598b9d2a4e937p-2;util_sync=0x0p+0;"
        ^ "su_obs=0x0p+0;queue_processor=0x1.6c63b9522b171p+1;"
        ^ "queue_memory=0x1.a4ed41639add8p+1;"
        ^ "queue_network=0x1.df15810ba192p+0;iterations=2210;"
        ^ "converged=true" );
      ( { default with Params.p_remote = 0.6; pattern = Access.Uniform },
        "u_p=0x1.2bf9b7d1f56a7p-2;lambda=0x1.2bf9b7d1f56a7p-2;"
        ^ "lambda_net=0x1.67f8762f267fbp-3;s_obs=0x1.470409a0e62d5p+4;"
        ^ "l_obs=0x1.75f32ac2b244cp+0;cycle_time=0x1.b4f1419475325p+4;"
        ^ "util_memory=0x1.42742e721b1e1p-2;"
        ^ "util_switch_in=0x1.af2d20d33d43dp-1;"
        ^ "util_switch_out=0x1.7e72eccf4c335p-2;util_sync=0x0p+0;"
        ^ "su_obs=0x0p+0;queue_processor=0x1.8c8f70e59c93bp-2;"
        ^ "queue_memory=0x1.cbcdb58932127p-2;"
        ^ "queue_network=0x1.cbd40c620e043p+2;iterations=3674;"
        ^ "converged=true" );
      ( { default with Params.k = 2; n_t = 3; p_remote = 0.4 },
        "u_p=0x1.eab9515369d84p-2;lambda=0x1.eab9515369d84p-2;"
        ^ "lambda_net=0x1.8894410f87e04p-3;s_obs=0x1.fafbc4d079ce2p+1;"
        ^ "l_obs=0x1.ad1011e2da305p+0;cycle_time=0x1.90a61fb2ab8adp+2;"
        ^ "util_memory=0x1.eac95e0da5255p-2;"
        ^ "util_switch_in=0x1.05c3d111ceb2fp-1;"
        ^ "util_switch_out=0x1.88a44dc9c32d5p-2;util_sync=0x0p+0;"
        ^ "su_obs=0x0p+0;queue_processor=0x1.5b4d32a6cb3b6p-1;"
        ^ "queue_memory=0x1.9b5c8461b3f56p-1;"
        ^ "queue_network=0x1.84bb8fe2d8ed4p+0;iterations=209;"
        ^ "converged=true" );
      ( { default with Params.topology = Topology.Mesh; k = 3; n_t = 4 },
        "u_p=0x1.5ef91a47b45ep-1;lambda=0x1.5ef91a47b45ep-1;"
        ^ "lambda_net=0x1.18c748395d17ep-3;s_obs=0x1.1667243767f9dp+2;"
        ^ "l_obs=0x1.174d61c2d5c81p+1;cycle_time=0x1.7578e1e99a70fp+2;"
        ^ "util_memory=0x1.5ef91a47b45ep-1;"
        ^ "util_switch_in=0x1.c621b58fde762p-2;"
        ^ "util_switch_out=0x1.18c748395d17fp-2;util_sync=0x0p+0;"
        ^ "su_obs=0x0p+0;queue_processor=0x1.4fbae5124cdabp+0;"
        ^ "queue_memory=0x1.7eeb92988df64p+0;"
        ^ "queue_network=0x1.31598855252efp+0;iterations=645;"
        ^ "converged=true" );
    ]

(* ------------------------------------------------------------------ *)
(* Memory multiporting *)

let test_mem_ports_improves_contended_memory () =
  (* R = L = 1 makes the memory the joint bottleneck; a second port must
     raise U_p and collapse L_obs. *)
  let base = Mms.solve default in
  let dual = Mms.solve { default with Params.mem_ports = 2 } in
  Alcotest.(check bool) "U_p improves" true
    (dual.Measures.u_p > base.Measures.u_p +. 0.05);
  Alcotest.(check bool) "L_obs collapses" true
    (dual.Measures.l_obs < base.Measures.l_obs /. 2.)

let test_mem_ports_cross_validation () =
  (* Model vs DES on a small multiported machine. *)
  let p = { default with Params.k = 2; n_t = 4; p_remote = 0.5; mem_ports = 2 } in
  let model = Mms.solve p in
  let sim =
    (Lattol_sim.Mms_des.run
       ~config:
         { Lattol_sim.Mms_des.default_config with Lattol_sim.Mms_des.horizon = 50_000. }
       p)
      .Lattol_sim.Mms_des.measures
  in
  let rel a b = abs_float (a -. b) /. b in
  if rel model.Measures.u_p sim.Measures.u_p > 0.05 then
    Alcotest.failf "multiport model %g vs DES %g" model.Measures.u_p
      sim.Measures.u_p

let test_mem_ports_validation () =
  Alcotest.(check bool) "0 ports rejected" true
    (Result.is_error (Params.validate { default with Params.mem_ports = 0 }))

(* ------------------------------------------------------------------ *)
(* Workload: do-all loops and data distributions *)

let test_workload_owner () =
  let loop =
    { Workload.elements = 16; distribution = Workload.Block;
      stencil = [ 0 ]; work_per_access = 1. }
  in
  Alcotest.(check int) "block first" 0
    (Workload.owner loop ~num_processors:4 ~element:0);
  Alcotest.(check int) "block last" 3
    (Workload.owner loop ~num_processors:4 ~element:15);
  let cyc = { loop with Workload.distribution = Workload.Cyclic } in
  Alcotest.(check int) "cyclic" 2 (Workload.owner cyc ~num_processors:4 ~element:6);
  let bc = { loop with Workload.distribution = Workload.Block_cyclic 2 } in
  Alcotest.(check int) "block-cyclic" 3
    (Workload.owner bc ~num_processors:4 ~element:6);
  (* wraparound *)
  Alcotest.(check int) "negative wraps" 3
    (Workload.owner cyc ~num_processors:4 ~element:(-1))

let test_workload_matrix_stochastic () =
  let topo = Params.make_topology default in
  List.iter
    (fun distribution ->
      let loop =
        { Workload.elements = 4096; distribution; stencil = [ -1; 0; 1 ];
          work_per_access = 1. }
      in
      let m = Workload.access_matrix loop topo in
      Array.iter
        (fun row ->
          close ~eps:1e-9 "row stochastic" 1. (Array.fold_left ( +. ) 0. row))
        m)
    [ Workload.Block; Workload.Cyclic; Workload.Block_cyclic 8 ]

let test_workload_block_mostly_local () =
  let topo = Params.make_topology default in
  let loop =
    { Workload.elements = 4096; distribution = Workload.Block;
      stencil = [ -1; 0; 1 ]; work_per_access = 1. }
  in
  let ch = Workload.characterize loop topo in
  (* halo exchanges: 2 boundary accesses per chunk of 256*3 accesses *)
  Alcotest.(check bool) "tiny remote fraction" true
    (ch.Workload.p_remote_mean < 0.01);
  let cyc = Workload.characterize { loop with Workload.distribution = Workload.Cyclic } topo in
  close ~eps:1e-9 "cyclic remote = 2/3" (2. /. 3.) cyc.Workload.p_remote_mean

let test_workload_ranking () =
  let results =
    Workload.compare_distributions ~base:default ~elements:4096
      ~stencil:[ -1; 0; 1 ] ~work_per_access:2.
      [ Workload.Block; Workload.Cyclic ]
  in
  match results with
  | [ (_, _, block_m, block_tol); (_, _, cyc_m, cyc_tol) ] ->
    Alcotest.(check bool) "block wins U_p" true
      (block_m.Measures.u_p > cyc_m.Measures.u_p);
    Alcotest.(check bool) "block wins tolerance" true (block_tol > cyc_tol)
  | _ -> Alcotest.fail "expected two results"

let test_workload_explicit_params_solve () =
  let loop =
    { Workload.elements = 1024; distribution = Workload.Cyclic;
      stencil = [ 0; 1 ]; work_per_access = 1.5 }
  in
  let p = Workload.to_params ~n_t:4 ~base:default loop in
  close "runlength adopted" 1.5 p.Params.runlength;
  let m = Mms.solve p in
  Alcotest.(check bool) "solves" true (m.Measures.u_p > 0. && m.Measures.u_p <= 1.);
  (* identity: lambda_net = lambda * remote fraction of node 0 *)
  let access = Params.make_access p in
  close ~eps:1e-9 "lambda_net identity"
    (m.Measures.lambda *. Lattol_topology.Access.remote_fraction access ~src:0)
    m.Measures.lambda_net

let test_workload_validation () =
  let invalid loop =
    Alcotest.(check bool) "rejected" true
      (Result.is_error (Workload.validate ~num_processors:16 loop))
  in
  invalid
    { Workload.elements = 8; distribution = Workload.Block; stencil = [ 0 ];
      work_per_access = 1. };
  invalid
    { Workload.elements = 64; distribution = Workload.Block; stencil = [];
      work_per_access = 1. };
  invalid
    { Workload.elements = 64; distribution = Workload.Block_cyclic 0;
      stencil = [ 0 ]; work_per_access = 1. };
  invalid
    { Workload.elements = 64; distribution = Workload.Block; stencil = [ 0 ];
      work_per_access = 0. }

(* ------------------------------------------------------------------ *)
(* 2-D grid workloads *)

let five_point = [ (0, 0); (-1, 0); (1, 0); (0, -1); (0, 1) ]

let test_grid_owner () =
  let base = default in
  let g =
    { Workload.Grid.rows = 64; cols = 64; decomposition = Workload.Grid.Blocks;
      stencil = five_point; work_per_access = 1. }
  in
  (* tile (0,0) -> node 0; tile (3,3) -> node 15 on the 4x4 torus *)
  Alcotest.(check int) "origin tile" 0
    (Workload.Grid.owner g ~base ~row:0 ~col:0);
  Alcotest.(check int) "far tile" 15
    (Workload.Grid.owner g ~base ~row:63 ~col:63);
  let rb = { g with Workload.Grid.decomposition = Workload.Grid.Row_blocks } in
  Alcotest.(check int) "row band" 15 (Workload.Grid.owner rb ~base ~row:63 ~col:0);
  let rc = { g with Workload.Grid.decomposition = Workload.Grid.Row_cyclic } in
  Alcotest.(check int) "row cyclic" 1 (Workload.Grid.owner rc ~base ~row:17 ~col:5)

let test_grid_blocks_perimeter () =
  (* 5-point stencil on 64x64 over 16 tiles of 16x16: remote accesses are
     the 4 x 16 border cells' outward reads over 5 x 256 accesses = 1/20. *)
  let g =
    { Workload.Grid.rows = 64; cols = 64; decomposition = Workload.Grid.Blocks;
      stencil = five_point; work_per_access = 1. }
  in
  let ch = Workload.Grid.characterize g ~base:default in
  close ~eps:1e-9 "p_remote = 0.05" 0.05 ch.Workload.p_remote_mean;
  close ~eps:1e-9 "all remote at distance 1" 1. ch.Workload.d_avg

let test_grid_decomposition_ranking () =
  let results =
    Workload.Grid.compare_decompositions ~base:default ~rows:64 ~cols:64
      ~stencil:five_point ~work_per_access:2.
      [ Workload.Grid.Blocks; Workload.Grid.Row_blocks; Workload.Grid.Row_cyclic ]
  in
  match List.map (fun (_, _, m, _) -> m.Measures.u_p) results with
  | [ blocks; rows; cyclic ] ->
    Alcotest.(check bool) "blocks > rows > cyclic" true
      (blocks > rows && rows > cyclic)
  | _ -> Alcotest.fail "expected three results"

let test_grid_validation () =
  let bad g =
    Alcotest.(check bool) "rejected" true
      (Result.is_error (Workload.Grid.validate ~base:default g))
  in
  bad
    { Workload.Grid.rows = 63; cols = 64; decomposition = Workload.Grid.Blocks;
      stencil = five_point; work_per_access = 1. };
  bad
    { Workload.Grid.rows = 60; cols = 64;
      decomposition = Workload.Grid.Row_blocks; stencil = five_point;
      work_per_access = 1. };
  bad
    { Workload.Grid.rows = 64; cols = 64; decomposition = Workload.Grid.Blocks;
      stencil = []; work_per_access = 1. };
  (* 2-D blocks on a ring rejected *)
  Alcotest.(check bool) "blocks need 2-D machine" true
    (Result.is_error
       (Workload.Grid.validate
          ~base:{ default with Params.k = 16; dimensions = 1 }
          { Workload.Grid.rows = 64; cols = 64;
            decomposition = Workload.Grid.Blocks; stencil = five_point;
            work_per_access = 1. }))

(* ------------------------------------------------------------------ *)
(* Cache contention (footnote 4) *)

let test_cache_hit_rate_model () =
  let c = Cache_effects.default in
  (* 4 x 256 = 1024 lines fit exactly: hit rate = 1 - floor. *)
  close ~eps:1e-9 "fits" 0.95 (Cache_effects.hit_rate c ~n_t:4);
  close ~eps:1e-9 "half resident" 0.475 (Cache_effects.hit_rate c ~n_t:8);
  Alcotest.(check bool) "monotone down" true
    (Cache_effects.hit_rate c ~n_t:2 >= Cache_effects.hit_rate c ~n_t:6)

let test_cache_interior_optimum () =
  (* Without contention U_p is monotone in n_t (property-tested above);
     with contention the best thread count is interior. *)
  let c = Cache_effects.default in
  let base = { default with Params.p_remote = 0.3 } in
  let best = Cache_effects.best_thread_count c ~base ~max_threads:16 in
  Alcotest.(check bool) "interior optimum" true
    (best.Cache_effects.n_t >= 2 && best.Cache_effects.n_t <= 6);
  (* and the contention-free fiction would keep climbing *)
  let free nt = (Mms.solve { base with Params.n_t = nt }).Measures.u_p in
  Alcotest.(check bool) "contention-free monotone" true (free 16 > free 4)

let test_cache_validation () =
  let bad c =
    Alcotest.(check bool) "rejected" true
      (Result.is_error (Cache_effects.validate c))
  in
  bad { Cache_effects.default with Cache_effects.cache_lines = 0 };
  bad { Cache_effects.default with Cache_effects.working_set = 0 };
  bad { Cache_effects.default with Cache_effects.miss_rate_floor = 0. };
  bad { Cache_effects.default with Cache_effects.cycles_per_access = 0. }

(* ------------------------------------------------------------------ *)
(* Sensitivity *)

let test_sensitivity_signs () =
  let ds = Sensitivity.analyze default in
  let find name = List.find (fun d -> d.Sensitivity.param = name) ds in
  Alcotest.(check bool) "more work helps" true
    ((find "runlength").Sensitivity.elasticity > 0.);
  Alcotest.(check bool) "slower memory hurts" true
    ((find "l_mem").Sensitivity.elasticity < 0.);
  Alcotest.(check bool) "slower switches hurt" true
    ((find "s_switch").Sensitivity.elasticity < 0.);
  Alcotest.(check bool) "more remote traffic hurts" true
    ((find "p_remote").Sensitivity.elasticity < 0.);
  Alcotest.(check bool) "more threads help" true
    ((find "n_t").Sensitivity.elasticity > 0.)

let test_sensitivity_ranked_order () =
  let ds = Sensitivity.ranked default in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      abs_float a.Sensitivity.elasticity >= abs_float b.Sensitivity.elasticity
      && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by |elasticity|" true (monotone ds);
  Alcotest.(check int) "six parameters at the default point" 6 (List.length ds)

let test_sensitivity_memory_dominates_at_balance () =
  (* At R = L = 1 the memory elasticity must outrank the switch one
     (tol_memory < tol_network at this point in the paper). *)
  let ds = Sensitivity.analyze default in
  let find name = List.find (fun d -> d.Sensitivity.param = name) ds in
  Alcotest.(check bool) "memory outranks network" true
    (abs_float (find "l_mem").Sensitivity.elasticity
    > abs_float (find "s_switch").Sensitivity.elasticity)

let test_sensitivity_validation () =
  Alcotest.(check bool) "bad step" true
    (try
       ignore (Sensitivity.analyze ~rel_step:0.9 default);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Synchronization unit (EARTH) *)

let test_su_zero_is_plain_machine () =
  Alcotest.(check int) "4 station types" 4 (Mms.stations_per_node default);
  Alcotest.(check int) "5 with SU" 5
    (Mms.stations_per_node { default with Params.sync_unit = 0.5 });
  let m = Mms.solve default in
  close "no SU utilization" 0. m.Measures.util_sync;
  close "no SU latency" 0. m.Measures.su_obs;
  Alcotest.(check bool) "sync_station raises without SU" true
    (try
       ignore (Mms.sync_station default ~node:0);
       false
     with Invalid_argument _ -> true)

let test_su_visit_identity () =
  (* Three SU touches per remote access: total SU visits = 3 p_remote. *)
  let p = { default with Params.sync_unit = 0.5 } in
  let v = Mms.class_visits p ~cls:0 in
  let n = Params.num_processors p in
  let su_sum = ref 0. in
  for node = 0 to n - 1 do
    su_sum := !su_sum +. v.(Mms.sync_station p ~node)
  done;
  close ~eps:1e-9 "3 p_remote" (3. *. p.Params.p_remote) !su_sum

let test_su_slows_machine () =
  let plain = Mms.solve default in
  let su = Mms.solve { default with Params.sync_unit = 0.5 } in
  Alcotest.(check bool) "SU adds delay" true (su.Measures.u_p < plain.Measures.u_p);
  Alcotest.(check bool) "SU utilization positive" true (su.Measures.util_sync > 0.)

let test_su_model_vs_des () =
  let p =
    { default with Params.k = 2; n_t = 4; p_remote = 0.5; sync_unit = 0.5 }
  in
  let model = Mms.solve p in
  let des =
    (Lattol_sim.Mms_des.run
       ~config:
         { Lattol_sim.Mms_des.default_config with Lattol_sim.Mms_des.horizon = 40_000. }
       p)
      .Lattol_sim.Mms_des.measures
  in
  let rel a b = abs_float (a -. b) /. b in
  if rel model.Measures.u_p des.Measures.u_p > 0.05 then
    Alcotest.failf "SU machine: model %g vs DES %g" model.Measures.u_p
      des.Measures.u_p;
  if rel model.Measures.util_sync des.Measures.util_sync > 0.07 then
    Alcotest.failf "SU util: model %g vs DES %g" model.Measures.util_sync
      des.Measures.util_sync

let test_su_offload_beats_inline () =
  (* Equal handling work: on the processor it displaces computation; on the
     SU it overlaps.  Offload must win on useful throughput. *)
  let base = { default with Params.p_remote = 0.4 } in
  let h = 0.5 in
  let inline =
    Mms.solve
      { base with Params.context_switch = 2. *. h *. base.Params.p_remote }
  in
  let offload = Mms.solve { base with Params.sync_unit = h } in
  Alcotest.(check bool) "offload wins" true
    (offload.Measures.lambda > inline.Measures.lambda)

let test_su_symmetric_matches_general () =
  let p = { default with Params.k = 3; n_t = 3; sync_unit = 0.7; p_remote = 0.4 } in
  let s = Mms.solve ~solver:Mms.Symmetric_amva p in
  let g = Mms.solve ~solver:Mms.General_amva p in
  close ~eps:1e-5 "U_p" g.Measures.u_p s.Measures.u_p;
  close ~eps:1e-4 "su_obs" g.Measures.su_obs s.Measures.su_obs

(* ------------------------------------------------------------------ *)
(* Pipelined switches *)

let test_pipeline_raises_eq4_ceiling () =
  let ceiling d =
    (Bottleneck.analyze { default with Params.switch_pipeline = d })
      .Bottleneck.lambda_net_saturation
  in
  close ~eps:1e-9 "depth 2 doubles" (2. *. ceiling 1) (ceiling 2);
  close ~eps:1e-9 "depth 4 quadruples" (4. *. ceiling 1) (ceiling 4)

let test_pipeline_lifts_saturated_network () =
  let u depth =
    (Mms.solve
       { default with Params.switch_pipeline = depth; p_remote = 0.6; n_t = 8 })
      .Measures.u_p
  in
  Alcotest.(check bool) "deeper pipeline helps under saturation" true
    (u 2 > u 1 +. 0.2);
  (* but light traffic barely changes: unloaded latency is unchanged *)
  let light depth =
    (Mms.solve
       { default with Params.switch_pipeline = depth; p_remote = 0.1; n_t = 2 })
      .Measures.u_p
  in
  Alcotest.(check bool) "light traffic barely moves" true
    (light 4 -. light 1 < 0.05)

let test_pipeline_model_vs_des () =
  let p =
    { default with Params.k = 2; n_t = 4; p_remote = 0.5; switch_pipeline = 2 }
  in
  let model = Mms.solve p in
  let des =
    (Lattol_sim.Mms_des.run
       ~config:
         { Lattol_sim.Mms_des.default_config with Lattol_sim.Mms_des.horizon = 40_000. }
       p)
      .Lattol_sim.Mms_des.measures
  in
  let rel a b = abs_float (a -. b) /. b in
  if rel model.Measures.u_p des.Measures.u_p > 0.05 then
    Alcotest.failf "pipelined: model %g vs DES %g" model.Measures.u_p
      des.Measures.u_p

let test_pipeline_validation () =
  Alcotest.(check bool) "depth 0 rejected" true
    (Result.is_error (Params.validate { default with Params.switch_pipeline = 0 }))

(* ------------------------------------------------------------------ *)
(* Heterogeneous workloads *)

let spmd_group =
  { Hetero.name = "spmd"; count = 8; runlength = 1.; p_remote = 0.2;
    pattern = Access.Geometric 0.5 }

let test_hetero_single_group_matches_homogeneous () =
  let homo = Mms.solve ~solver:Mms.General_amva default in
  let h = Hetero.solve ~base:default [ spmd_group ] in
  close ~eps:1e-9 "same U_p" homo.Measures.u_p h.Hetero.u_p;
  (match h.Hetero.groups with
  | [ g ] ->
    close ~eps:1e-9 "same lambda" homo.Measures.lambda g.Hetero.lambda;
    close ~eps:1e-6 "same S_obs" homo.Measures.s_obs g.Hetero.s_obs
  | _ -> Alcotest.fail "one group expected")

let test_hetero_interference () =
  let interactive =
    { Hetero.name = "i"; count = 2; runlength = 0.5; p_remote = 0.1;
      pattern = Access.Geometric 0.5 }
  in
  let batch =
    { Hetero.name = "b"; count = 6; runlength = 2.; p_remote = 0.5;
      pattern = Access.Uniform }
  in
  let alone = Hetero.solve ~base:default [ interactive ] in
  let mixed = Hetero.solve ~base:default [ interactive; batch ] in
  let s_alone = (List.hd alone.Hetero.groups).Hetero.s_obs in
  let s_mixed = (List.hd mixed.Hetero.groups).Hetero.s_obs in
  Alcotest.(check bool) "batch inflates interactive latency" true
    (s_mixed > s_alone *. 1.5);
  Alcotest.(check bool) "occupancies sum to U_p" true
    (abs_float
       (mixed.Hetero.u_p
       -. List.fold_left (fun a g -> a +. g.Hetero.occupancy) 0.
            mixed.Hetero.groups)
    < 1e-12)

let test_hetero_validation () =
  let invalid groups =
    Alcotest.(check bool) "rejected" true
      (try
         ignore (Hetero.solve ~base:default groups);
         false
       with Invalid_argument _ -> true)
  in
  invalid [];
  invalid [ { spmd_group with Hetero.count = -1 } ];
  invalid [ { spmd_group with Hetero.runlength = 0. } ];
  invalid [ { spmd_group with Hetero.count = 0 } ]

(* ------------------------------------------------------------------ *)
(* Kernels *)

let test_kernel_matrices_stochastic () =
  let topo = Params.make_topology default in
  List.iter
    (fun kernel ->
      let m = Kernels.matrix kernel topo ~compute:0.5 in
      Array.iter
        (fun row ->
          close ~eps:1e-9 "row stochastic" 1. (Array.fold_left ( +. ) 0. row))
        m)
    (Kernels.all ~num_nodes:16)

let test_kernel_transpose_structure () =
  let topo = Params.make_topology default in
  let m = Kernels.matrix Kernels.Transpose topo ~compute:0.25 in
  (* diagonal nodes are purely local *)
  let diag = Lattol_topology.Topology.of_coords topo (2, 2) in
  close "diagonal local" 1. m.(diag).(diag);
  (* (1,3) talks to (3,1) with the remote mass *)
  let a = Lattol_topology.Topology.of_coords topo (1, 3) in
  let b = Lattol_topology.Topology.of_coords topo (3, 1) in
  close "partner mass" 0.75 m.(a).(b);
  close "self mass" 0.25 m.(a).(a)

let test_kernel_reduction_structure () =
  let topo = Params.make_topology default in
  let m = Kernels.matrix Kernels.Reduction topo ~compute:0.5 in
  close "root local" 1. m.(0).(0);
  close "node 5 -> 2" 0.5 m.(5).(2);
  close "node 1 -> 0" 0.5 m.(1).(0)

let test_kernel_butterfly_distance () =
  (* On the row-major 4x4 torus, xor 1 and xor 4 are physical neighbours;
     xor 2 is two hops.  The model must price them accordingly. *)
  let base = { default with Params.n_t = 4 } in
  let u stage =
    let p =
      Kernels.to_params ~base (Kernels.Butterfly stage) ~compute:0.6
        ~runlength:2.
    in
    (Mms.solve p).Measures.u_p
  in
  Alcotest.(check bool) "stage 0 (1 hop) beats stage 1 (2 hops)" true
    (u 0 > u 1);
  close ~eps:1e-6 "stage 0 = stage 2 by symmetry" (u 0) (u 2)

let test_kernel_validation () =
  let ring = Lattol_topology.Topology.create_nd Lattol_topology.Topology.Torus ~dims:[ 16 ] in
  Alcotest.(check bool) "transpose needs 2D" true
    (try
       ignore (Kernels.matrix Kernels.Transpose ring ~compute:0.5);
       false
     with Invalid_argument _ -> true);
  let topo = Params.make_topology default in
  Alcotest.(check bool) "bad compute fraction" true
    (try
       ignore (Kernels.matrix Kernels.All_to_all topo ~compute:1.5);
       false
     with Invalid_argument _ -> true)

let test_kernel_all_listing () =
  let ks = Kernels.all ~num_nodes:16 in
  (* 5 fixed kernels + butterfly stages 0..3 *)
  Alcotest.(check int) "nine kernels at P=16" 9 (List.length ks);
  Alcotest.(check bool) "ring shift included" true
    (List.mem Kernels.Ring_shift ks)

let test_kernel_ring_shift () =
  let ring = Lattol_topology.Topology.create_nd Lattol_topology.Topology.Torus ~dims:[ 8 ] in
  let m = Kernels.matrix Kernels.Ring_shift ring ~compute:0.5 in
  close "next neighbour" 0.5 m.(3).(4);
  close "wraps" 0.5 m.(7).(0);
  close "self" 0.5 m.(7).(7)

(* ------------------------------------------------------------------ *)
(* Report *)

let test_report_verdicts () =
  let verdict p = (Report.analyze p).Report.verdict in
  Alcotest.(check bool) "compute bound when latencies tolerated" true
    (verdict { default with Params.runlength = 16.; p_remote = 0.05 }
    = Report.Compute_bound);
  Alcotest.(check bool) "network bound at high p_remote" true
    (verdict { default with Params.p_remote = 0.6 } = Report.Network_bound);
  Alcotest.(check bool) "memory bound at L = 2" true
    (verdict { default with Params.l_mem = 2.; p_remote = 0.05 }
    = Report.Memory_bound)

let test_report_contents () =
  let r = Report.analyze { default with Params.p_remote = 0.4 } in
  Alcotest.(check bool) "has recommendations" true
    (List.length r.Report.recommendations > 0);
  Alcotest.(check bool) "sensitivities ranked" true
    (List.length r.Report.sensitivities = 6);
  Alcotest.(check bool) "open view at operating rate" true
    (abs_float (r.Report.open_view.Bottleneck.lambda -. r.Report.measures.Measures.lambda)
    < 1e-12);
  (* report renders *)
  let text = Format.asprintf "%a" Report.pp r in
  Alcotest.(check bool) "renders" true (String.length text > 500)

let test_report_memory_recommends_ports () =
  let r = Report.analyze { default with Params.l_mem = 2.; p_remote = 0.05 } in
  Alcotest.(check bool) "suggests multiporting" true
    (List.exists
       (fun s -> Astring_contains.contains s "multiporting")
       r.Report.recommendations)

(* ------------------------------------------------------------------ *)
(* Golden values: catch silent numerical drift *)

let test_golden_default_solution () =
  let m = Mms.solve default in
  close ~eps:1e-6 "U_p" 0.819449 m.Measures.u_p;
  close ~eps:1e-6 "lambda_net" 0.163890 m.Measures.lambda_net;
  close ~eps:1e-4 "S_obs" 5.3879 m.Measures.s_obs;
  close ~eps:1e-4 "L_obs" 4.0737 m.Measures.l_obs

let test_golden_anchors () =
  close ~eps:1e-4 "d_avg" 1.7333 (Params.d_avg default);
  close ~eps:1e-4 "Eq.4" 0.2885 (Bottleneck.lambda_net_saturation default);
  close ~eps:1e-4 "Eq.5 R=1" 0.1830 (Bottleneck.p_remote_critical default);
  close ~eps:1e-4 "Eq.5 R=2" 0.6830
    (Bottleneck.p_remote_critical { default with Params.runlength = 2. });
  close ~eps:1e-4 "tol anchor n_t=8" 0.9219
    (Tolerance.network default).Tolerance.tol

let test_golden_exact_tiny () =
  let p = { default with Params.k = 2; n_t = 2; p_remote = 0.5 } in
  let e = Mms.solve ~solver:Mms.Exact_mva p in
  close ~eps:1e-6 "exact U_p (p_remote 0.5)" 0.330673 e.Measures.u_p;
  let e2 =
    Mms.solve ~solver:Mms.Exact_mva { default with Params.k = 2; n_t = 2 }
  in
  close ~eps:1e-6 "exact U_p (p_remote 0.2)" 0.506565 e2.Measures.u_p

(* ------------------------------------------------------------------ *)
(* Failure injection: iteration caps surface, never crash *)

let test_solver_cap_surfaces () =
  let m = Mms.solve ~max_iterations:2 default in
  Alcotest.(check bool) "flagged unconverged" false m.Measures.converged;
  Alcotest.(check bool) "still finite" true (Float.is_finite m.Measures.u_p);
  let g = Mms.solve ~solver:Mms.General_amva ~max_iterations:1 default in
  Alcotest.(check bool) "general flagged too" false g.Measures.converged;
  (* loose tolerance converges almost immediately *)
  let loose = Mms.solve ~tolerance:0.5 default in
  Alcotest.(check bool) "loose tolerance converges fast" true
    (loose.Measures.converged && loose.Measures.iterations < 10)

(* ------------------------------------------------------------------ *)
(* Hypercube machines through Params *)

let test_params_hypercube () =
  (* k = 2 in d dimensions is the binary d-cube. *)
  let p = { default with Params.k = 2; dimensions = 6; p_remote = 0.4 } in
  Alcotest.(check int) "64 nodes" 64 (Params.num_processors p);
  let topo = Params.make_topology p in
  Alcotest.(check int) "degree 6" 6
    (List.length (Lattol_topology.Topology.neighbours topo 0));
  let m = Mms.solve p in
  Alcotest.(check bool) "solves" true (m.Measures.u_p > 0.);
  (* hypercubes beat the ring at equal P under uniform traffic *)
  let ring =
    Mms.solve
      { default with Params.k = 64; dimensions = 1; p_remote = 0.4;
        pattern = Access.Uniform }
  in
  let cube =
    Mms.solve
      { default with Params.k = 2; dimensions = 6; p_remote = 0.4;
        pattern = Access.Uniform }
  in
  Alcotest.(check bool) "cube beats ring" true
    (cube.Measures.u_p > ring.Measures.u_p)

(* ------------------------------------------------------------------ *)
(* Orbit measures: [Mms.solve] reads the symmetric solver's class-0
   fixed point directly; it must agree bit for bit with the measures of
   the fully expanded [Solution.t]. *)

let measures_bits (m : Measures.t) =
  let f name v = (name, Printf.sprintf "%Lx" (Int64.bits_of_float v)) in
  [
    f "u_p" m.Measures.u_p;
    f "lambda" m.Measures.lambda;
    f "lambda_net" m.Measures.lambda_net;
    f "s_obs" m.Measures.s_obs;
    f "l_obs" m.Measures.l_obs;
    f "cycle_time" m.Measures.cycle_time;
    f "util_memory" m.Measures.util_memory;
    f "util_switch_in" m.Measures.util_switch_in;
    f "util_switch_out" m.Measures.util_switch_out;
    f "util_sync" m.Measures.util_sync;
    f "su_obs" m.Measures.su_obs;
    f "queue_processor" m.Measures.queue_processor;
    f "queue_memory" m.Measures.queue_memory;
    f "queue_network" m.Measures.queue_network;
    ("iterations", string_of_int m.Measures.iterations);
    ("converged", string_of_bool m.Measures.converged);
  ]

(* The first field where the orbit and the expanded solution differ. *)
let orbit_mismatch p =
  let orbit = Mms.solve p in
  let full = Mms.measures_of_solution p (Mms.solve_network p) in
  List.find_opt
    (fun ((_, a), (_, b)) -> a <> b)
    (List.combine (measures_bits orbit) (measures_bits full))

let check_orbit_identical p =
  match orbit_mismatch p with
  | None -> ()
  | Some ((field, a), (_, b)) ->
    Alcotest.failf "%s: orbit %s vs expanded %s for %s" field a b
      (Format.asprintf "%a" Params.pp p)

let test_orbit_figure_configs () =
  (* Every distinct machine the four figure grids solve: each valid grid
     point and both of its ideal systems, as Sweep.run forms them. *)
  let seen = Hashtbl.create 512 in
  List.iter
    (fun (fig : Lattol_exec.Figures.figure) ->
      List.iter
        (fun assigns ->
          let p =
            List.fold_left
              (fun p (param, v) -> Lattol_exec.Sweep.apply p param v)
              fig.Lattol_exec.Figures.base assigns
          in
          match Params.validate p with
          | Error _ -> ()
          | Ok p ->
            List.iter
              (fun q -> Hashtbl.replace seen q ())
              [
                p;
                Tolerance.ideal_params Tolerance.Network_latency
                  Tolerance.Zero_remote p;
                Tolerance.ideal_params Tolerance.Memory_latency
                  Tolerance.Zero_delay p;
              ])
        (Lattol_exec.Sweep.points fig.Lattol_exec.Figures.axes))
    (Lattol_exec.Figures.all ());
  Alcotest.(check bool) "hundreds of configurations" true
    (Hashtbl.length seen > 200);
  Hashtbl.iter
    (fun p () -> if p.Params.n_t > 0 then check_orbit_identical p)
    seen

(* Cache lines of [Mms.solve] recorded before the solve skipped the
   expanded solution: the hex floats pin every bit. *)
let test_orbit_recorded_lines () =
  List.iter
    (fun (name, p, line) ->
      Alcotest.(check string) name line
        (Lattol_exec.Cache.encode_measures_line (Mms.solve p)))
    [
      ( "default 4x4",
        default,
        "u_p=0x1.a38ec78a15e1p-1;lambda=0x1.a38ec78a15e1p-1;lambda_net=0x1.4fa56c6e77e72p-3;s_obs=0x1.58d2f67b76f1ep+2;l_obs=0x1.04b7dc5d2a3f4p+2;cycle_time=0x1.3867b87e2f08cp+3;util_memory=0x1.a38ec78a15e0fp-1;util_switch_in=0x1.22e4b34eac2ecp-1;util_switch_out=0x1.4fa56c6e77e72p-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.72a837d69d4d7p+1;queue_memory=0x1.ab4a56e045848p+1;queue_network=0x1.c41ae2923a5ddp+0;iterations=73;converged=true"
      );
      ( "with an SU",
        { default with Params.sync_unit = 1. },
        "u_p=0x1.953d7a9deb70ep-1;lambda=0x1.953d7a9deb70ep-1;lambda_net=0x1.44312ee4bc5a4p-3;s_obs=0x1.4cfa61f599948p+2;l_obs=0x1.d7e0a136e7dcfp+1;cycle_time=0x1.437159cd78437p+3;util_memory=0x1.953d7a9deb70cp-1;util_switch_in=0x1.18f76ce85ef8fp-1;util_switch_out=0x1.44312ee4bc5a5p-2;util_sync=0x1.e649c6571a877p-2;su_obs=0x1.5bf6210ff637p+2;queue_processor=0x1.498421d554915p+1;queue_memory=0x1.757bd8cb353c1p+1;queue_network=0x1.a5acdce617f9p+0;iterations=65;converged=true"
      );
      ( "2 memory ports",
        { default with Params.mem_ports = 2 },
        "u_p=0x1.d84938e542825p-1;lambda=0x1.d84938e542825p-1;lambda_net=0x1.79d42d843534fp-3;s_obs=0x1.8e0fd1a719effp+2;l_obs=0x1.ffffffffffffdp-1;cycle_time=0x1.1586d855d81efp+3;util_memory=0x1.d84938e542826p-1;util_switch_in=0x1.47739eea0bfadp-1;util_switch_out=0x1.79d42d843535p-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.32170afb941bdp+2;queue_memory=0x1.d84938e542826p-1;queue_network=0x1.25bf9bcf87289p+1;iterations=62;converged=true"
      );
      ( "k = 6",
        { default with Params.k = 6 },
        "u_p=0x1.9e7714118c24cp-1;lambda=0x1.9e7714118c24cp-1;lambda_net=0x1.4b927674701d5p-3;s_obs=0x1.942bdf63b607cp+2;l_obs=0x1.f6cf1b9edd4cbp+1;cycle_time=0x1.3c3e644d2f9ffp+3;util_memory=0x1.9e7714118c24cp-1;util_switch_in=0x1.3bc870d06ac69p-1;util_switch_out=0x1.4b927674701d4p-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.633b9ce29c82ep+1;queue_memory=0x1.9706682db2f29p+1;queue_network=0x1.05bdfaefb08a1p+1;iterations=70;converged=true"
      );
      ( "k = 10",
        { default with Params.k = 10 },
        "u_p=0x1.9b7165ec8091ap-1;lambda=0x1.9b7165ec8091ap-1;lambda_net=0x1.492784bd33a7ap-3;s_obs=0x1.b673dae8f81e9p+2;l_obs=0x1.ec4f95f056134p+1;cycle_time=0x1.3e910f089d4e3p+3;util_memory=0x1.9b7165ec8092dp-1;util_switch_in=0x1.478bac6130264p-1;util_switch_out=0x1.492784bd33a67p-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.5a81c9e81b60cp+1;queue_memory=0x1.8b9eec6e2005bp+1;queue_network=0x1.19df49a9c49cdp+1;iterations=69;converged=true"
      );
    ]

let test_orbit_one_node_mesh () =
  (* A one-node mesh is vertex-transitive, so it takes the symmetric
     solver; it is the same machine as the one-node torus. *)
  let torus = { default with Params.k = 1; p_remote = 0. } in
  let mesh = { torus with Params.topology = Topology.Mesh } in
  check_orbit_identical mesh;
  Alcotest.(check (list (pair string string)))
    "same measures as the one-node torus"
    (measures_bits (Mms.solve torus))
    (measures_bits (Mms.solve mesh))

(* Minor words are exact counts ([Gc.minor_words]), so these bounds are
   properties of the code: the orbit path allocates a few thousand words
   where expanding the solution took 165k, and a sweep allocates only the
   boxed residual handed to the sweep observer. *)
let test_orbit_allocation () =
  let words f =
    ignore (f ());
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. w0
  in
  let full = words (fun () -> Mms.solve default) in
  let one_sweep = words (fun () -> Mms.solve ~max_iterations:1 default) in
  let sweeps = (Mms.solve default).Measures.iterations in
  if full > 20_000. then Alcotest.failf "default solve allocated %.0f words" full;
  let per_sweep = (full -. one_sweep) /. float_of_int (sweeps - 1) in
  if per_sweep > 4. then
    Alcotest.failf "%.1f words per sweep over %d sweeps" per_sweep sweeps

(* Translation-invariant machines across the parameter space, ends of the
   p_remote range included. *)
let arb_symmetric_params =
  let open QCheck.Gen in
  let gen =
    let* k = int_range 1 6 in
    let* dimensions = int_range 1 3 in
    let* p_remote =
      if k = 1 then return 0.
      else oneof [ return 0.; return 1.; float_range 0. 1. ]
    in
    let* pattern =
      oneof
        [ return Access.Uniform; map (fun s -> Access.Geometric s) (float_range 0.05 0.95) ]
    in
    let* sync_unit = oneof [ return 0.; float_range 0.1 2. ] in
    let* mem_ports = int_range 1 3 in
    let* switch_pipeline = int_range 1 3 in
    let* context_switch = oneof [ return 0.; float_range 0. 1. ] in
    let* runlength = float_range 0.5 4. in
    let* n_t = int_range 0 10 in
    return
      {
        default with
        Params.k;
        dimensions;
        p_remote;
        pattern;
        sync_unit;
        mem_ports;
        switch_pipeline;
        context_switch;
        runlength;
        n_t;
      }
  in
  QCheck.make ~print:(Format.asprintf "%a" Params.pp) gen

let prop_orbit_bit_identical =
  QCheck.Test.make ~name:"orbit measures = expanded measures, bit for bit"
    ~count:150 arb_symmetric_params (fun p ->
      if p.Params.n_t = 0 then begin
        (* No threads: solve answers without solving. *)
        let m = Mms.solve p in
        Float.equal m.Measures.lambda 0. && m.Measures.iterations = 0
      end
      else
        match orbit_mismatch p with
        | None -> true
        | Some ((field, a), (_, b)) ->
          QCheck.Test.fail_reportf "%s: orbit %s vs expanded %s" field a b)

(* [arb_symmetric_params] widened to every kind of machine: meshes, and
   explicit patterns (here the matrix of the built-in pattern, which is
   invariant in content yet declared non-invariant). *)
let arb_machine_params =
  let open QCheck.Gen in
  let gen =
    let* p = QCheck.gen arb_symmetric_params in
    let* topology = oneofl [ Topology.Torus; Topology.Mesh ] in
    let p = { p with Params.topology } in
    let* explicit = bool in
    if explicit then
      return
        (Params.validate_exn
           {
             p with
             Params.pattern =
               Access.Explicit (Access.matrix (Params.make_access p));
           })
    else return p
  in
  QCheck.make ~print:(Format.asprintf "%a" Params.pp) gen

let prop_symmetric_applicable_matches_access =
  QCheck.Test.make
    ~name:"symmetric_applicable = translation invariance of the built access"
    ~count:300 arb_machine_params (fun p ->
      Bool.equal (Mms.symmetric_applicable p)
        (Access.is_translation_invariant (Params.make_access p)))

(* ------------------------------------------------------------------ *)
(* Properties *)

let arb_params =
  QCheck.make
    ~print:(fun (k, nt, r, pr) -> Printf.sprintf "k=%d nt=%d R=%g pr=%g" k nt r pr)
    QCheck.Gen.(
      quad (int_range 2 5) (int_range 1 10) (float_range 0.5 4.)
        (float_range 0. 1.))

let params_of (k, nt, r, pr) =
  { default with Params.k; n_t = nt; runlength = r; p_remote = pr }

let prop_u_p_in_unit_interval =
  QCheck.Test.make ~name:"U_p in (0, 1]" ~count:60 arb_params (fun spec ->
      let m = Mms.solve (params_of spec) in
      m.Measures.u_p > 0. && m.Measures.u_p <= 1. +. 1e-9)

let prop_measures_identities =
  QCheck.Test.make ~name:"lambda_net and U_p identities" ~count:60 arb_params
    (fun spec ->
      let p = params_of spec in
      let m = Mms.solve p in
      abs_float (m.Measures.lambda_net -. (m.Measures.lambda *. p.Params.p_remote))
      < 1e-9
      && abs_float (m.Measures.u_p -. (m.Measures.lambda *. p.Params.runlength))
         < 1e-9)

let prop_u_p_monotone_in_threads =
  QCheck.Test.make ~name:"U_p non-decreasing in n_t" ~count:30
    QCheck.(triple (int_range 2 4) (float_range 0.5 2.) (float_range 0.1 0.9))
    (fun (k, r, pr) ->
      let u nt =
        (Mms.solve { default with Params.k; n_t = nt; runlength = r; p_remote = pr })
          .Measures.u_p
      in
      u 2 <= u 4 +. 1e-6 && u 4 <= u 8 +. 1e-6)

let prop_tolerance_positive =
  QCheck.Test.make ~name:"tolerance index is positive and bounded" ~count:40
    arb_params (fun spec ->
      let r = Tolerance.network (params_of spec) in
      r.Tolerance.tol > 0. && r.Tolerance.tol <= 1.1)

let prop_critical_p_remote_in_range =
  QCheck.Test.make ~name:"critical p_remote in [0, 1]" ~count:60 arb_params
    (fun spec ->
      let b = Bottleneck.analyze (params_of spec) in
      b.Bottleneck.p_remote_critical >= 0. && b.Bottleneck.p_remote_critical <= 1.)

let prop_grid_rows_stochastic =
  QCheck.Test.make ~name:"grid access matrices are row-stochastic" ~count:30
    QCheck.(
      triple (int_range 0 2) (int_range 1 4)
        (list_of_size Gen.(int_range 1 5)
           (pair (int_range (-2) 2) (int_range (-2) 2))))
    (fun (deco, scale, stencil) ->
      let decomposition =
        match deco with
        | 0 -> Workload.Grid.Row_blocks
        | 1 -> Workload.Grid.Row_cyclic
        | _ -> Workload.Grid.Blocks
      in
      let g =
        { Workload.Grid.rows = 16 * scale; cols = 16; decomposition;
          stencil; work_per_access = 1. }
      in
      let m = Workload.Grid.access_matrix g ~base:default in
      Array.for_all
        (fun row ->
          abs_float (Array.fold_left ( +. ) 0. row -. 1.) < 1e-9)
        m)

let prop_cache_runlength_monotone =
  QCheck.Test.make ~name:"cache-adjusted runlength non-increasing in n_t"
    ~count:40
    QCheck.(
      triple (int_range 64 2048) (int_range 16 512) (float_range 0.01 0.5))
    (fun (lines, ws, floor) ->
      let c =
        { Cache_effects.cache_lines = lines; working_set = ws;
          miss_rate_floor = floor; cycles_per_access = 1. }
      in
      let ok = ref true in
      for nt = 1 to 15 do
        if
          Cache_effects.runlength c ~n_t:(nt + 1)
          > Cache_effects.runlength c ~n_t:nt +. 1e-9
        then ok := false
      done;
      !ok)

let test_random_cross_model () =
  (* A handful of random configurations: the analytical model must track
     the DES within a tolerance that accounts for AMVA error and
     simulation noise. *)
  let rng = Lattol_stats.Prng.create ~seed:2026 () in
  for _ = 1 to 5 do
    let k = 2 + Lattol_stats.Prng.int rng 2 in
    let n_t = 1 + Lattol_stats.Prng.int rng 6 in
    let p_remote = 0.1 +. (0.6 *. Lattol_stats.Prng.float rng) in
    let runlength = 0.5 +. (2. *. Lattol_stats.Prng.float rng) in
    let p = { default with Params.k; n_t; p_remote; runlength } in
    let model = Mms.solve p in
    let sim =
      (Lattol_sim.Mms_des.run
         ~config:
           { Lattol_sim.Mms_des.default_config with Lattol_sim.Mms_des.horizon = 30_000. }
         p)
        .Lattol_sim.Mms_des.measures
    in
    let err = abs_float (model.Measures.u_p -. sim.Measures.u_p) /. sim.Measures.u_p in
    if err > 0.08 then
      Alcotest.failf "random config %a: model %g vs DES %g (err %.3f)"
        (fun ppf p -> Params.pp ppf p)
        p model.Measures.u_p sim.Measures.u_p err
  done

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lattol_core"
    [
      ( "params",
        [
          Alcotest.test_case "defaults" `Quick test_default_params;
          Alcotest.test_case "validation" `Quick test_params_validation;
        ] );
      ( "visit ratios",
        [
          Alcotest.test_case "structure" `Quick test_visit_ratios_structure;
          Alcotest.test_case "round-trip identity" `Quick
            test_visit_ratios_round_trip_identity;
          Alcotest.test_case "outbound" `Quick test_outbound_visits;
          Alcotest.test_case "network construction" `Quick test_network_construction;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "symmetric = general AMVA" `Quick
            test_symmetric_matches_general_amva;
          Alcotest.test_case "AMVA vs exact on tiny MMS" `Quick
            test_amva_close_to_exact_mms;
          Alcotest.test_case "measure identities" `Quick test_measures_consistency;
          Alcotest.test_case "zero threads" `Quick test_zero_threads;
          Alcotest.test_case "p_remote = 0 repairman" `Quick
            test_zero_remote_reduces_to_repairman;
          Alcotest.test_case "ideal subsystems" `Quick test_ideal_subsystems_zero_latency;
          Alcotest.test_case "lambda_net below Eq.4" `Quick
            test_lambda_net_below_saturation;
          Alcotest.test_case "context switch overhead" `Quick
            test_context_switch_overhead;
          Alcotest.test_case "mesh topology" `Quick test_mesh_uses_general_solver;
        ] );
      ( "tolerance",
        [
          Alcotest.test_case "zones" `Quick test_zone_boundaries;
          Alcotest.test_case "paper anchors" `Quick test_paper_tolerance_anchors;
          Alcotest.test_case "ideal params" `Quick test_ideal_params;
          Alcotest.test_case "monotone in p_remote" `Quick
            test_tolerance_decreases_with_p_remote;
          Alcotest.test_case "improves with R" `Quick
            test_tolerance_improves_with_runlength;
          Alcotest.test_case "memory tolerance" `Quick test_memory_tolerance_saturates;
          Alcotest.test_case "zero-delay bounded" `Quick
            test_zero_delay_tolerance_bounded;
          Alcotest.test_case "threads needed" `Quick test_threads_needed;
        ] );
      ( "bottleneck",
        [
          Alcotest.test_case "Eq.4 anchor 0.29" `Quick test_eq4_saturation_anchor;
          Alcotest.test_case "Eq.5 anchors 0.18/0.68" `Quick test_eq5_critical_anchors;
          Alcotest.test_case "saturation p_remote" `Quick
            test_saturation_p_remote_anchors;
          Alcotest.test_case "ideal cases" `Quick test_bottleneck_ideal_cases;
          Alcotest.test_case "model knee matches Eq.5" `Quick test_model_knee_matches_eq5;
          Alcotest.test_case "open view matches Eq.4" `Quick test_open_view_matches_eq4;
          Alcotest.test_case "open view unloaded limit" `Quick
            test_open_view_unloaded_limit;
          Alcotest.test_case "open view vs closed model" `Quick
            test_open_view_closed_model_consistency;
          Alcotest.test_case "open view ideal subsystems" `Quick
            test_open_view_ideal_subsystems;
        ] );
      ( "partitioning",
        [
          Alcotest.test_case "sweep" `Quick test_partitioning_sweep;
          Alcotest.test_case "prefers runlength" `Quick
            test_partitioning_prefers_runlength;
          Alcotest.test_case "validation" `Quick test_partitioning_validation;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "geometric beats uniform" `Quick
            test_scaling_geometric_beats_uniform;
          Alcotest.test_case "near-linear throughput" `Quick
            test_scaling_throughput_near_linear_geometric;
          Alcotest.test_case "ideal-network memory contention" `Quick
            test_scaling_ideal_network_memory_contention;
          Alcotest.test_case "sweep shape" `Quick test_scaling_sweep_shape;
        ] );
      ( "dimensions",
        [
          Alcotest.test_case "processor count" `Quick test_dimensions_processor_count;
          Alcotest.test_case "symmetric = general (1D/3D)" `Quick
            test_dimensions_symmetric_matches_general;
          Alcotest.test_case "dimension ablation order" `Quick
            test_dimensions_ablation_order;
          Alcotest.test_case "Linearizer solver" `Quick
            test_linearizer_solver_close_to_exact;
          Alcotest.test_case "Linearizer damping" `Quick test_linearizer_damping;
          Alcotest.test_case "Linearizer undamped pins" `Quick
            test_linearizer_undamped_pins;
        ] );
      ( "mem-ports",
        [
          Alcotest.test_case "improves contended memory" `Quick
            test_mem_ports_improves_contended_memory;
          Alcotest.test_case "cross-validation vs DES" `Slow
            test_mem_ports_cross_validation;
          Alcotest.test_case "validation" `Quick test_mem_ports_validation;
        ] );
      ( "workload",
        [
          Alcotest.test_case "owner map" `Quick test_workload_owner;
          Alcotest.test_case "matrix stochastic" `Quick
            test_workload_matrix_stochastic;
          Alcotest.test_case "block mostly local" `Quick
            test_workload_block_mostly_local;
          Alcotest.test_case "ranking" `Quick test_workload_ranking;
          Alcotest.test_case "explicit params solve" `Quick
            test_workload_explicit_params_solve;
          Alcotest.test_case "validation" `Quick test_workload_validation;
        ] );
      ( "grid",
        [
          Alcotest.test_case "owner map" `Quick test_grid_owner;
          Alcotest.test_case "blocks perimeter arithmetic" `Quick
            test_grid_blocks_perimeter;
          Alcotest.test_case "decomposition ranking" `Quick
            test_grid_decomposition_ranking;
          Alcotest.test_case "validation" `Quick test_grid_validation;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit-rate model" `Quick test_cache_hit_rate_model;
          Alcotest.test_case "interior optimum" `Quick test_cache_interior_optimum;
          Alcotest.test_case "validation" `Quick test_cache_validation;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "signs" `Quick test_sensitivity_signs;
          Alcotest.test_case "ranked order" `Quick test_sensitivity_ranked_order;
          Alcotest.test_case "memory dominates at balance" `Quick
            test_sensitivity_memory_dominates_at_balance;
          Alcotest.test_case "validation" `Quick test_sensitivity_validation;
        ] );
      ( "sync-unit",
        [
          Alcotest.test_case "absent by default" `Quick test_su_zero_is_plain_machine;
          Alcotest.test_case "visit identity" `Quick test_su_visit_identity;
          Alcotest.test_case "adds delay" `Quick test_su_slows_machine;
          Alcotest.test_case "model vs DES" `Slow test_su_model_vs_des;
          Alcotest.test_case "offload beats inline" `Quick
            test_su_offload_beats_inline;
          Alcotest.test_case "symmetric = general" `Quick
            test_su_symmetric_matches_general;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "Eq.4 ceiling scales" `Quick
            test_pipeline_raises_eq4_ceiling;
          Alcotest.test_case "lifts saturation" `Quick
            test_pipeline_lifts_saturated_network;
          Alcotest.test_case "model vs DES" `Slow test_pipeline_model_vs_des;
          Alcotest.test_case "validation" `Quick test_pipeline_validation;
        ] );
      ( "hetero",
        [
          Alcotest.test_case "single group = homogeneous" `Quick
            test_hetero_single_group_matches_homogeneous;
          Alcotest.test_case "interference" `Quick test_hetero_interference;
          Alcotest.test_case "validation" `Quick test_hetero_validation;
        ] );
      ( "kernels",
        [
          Alcotest.test_case "matrices stochastic" `Quick
            test_kernel_matrices_stochastic;
          Alcotest.test_case "transpose structure" `Quick
            test_kernel_transpose_structure;
          Alcotest.test_case "reduction structure" `Quick
            test_kernel_reduction_structure;
          Alcotest.test_case "butterfly distance pricing" `Quick
            test_kernel_butterfly_distance;
          Alcotest.test_case "validation" `Quick test_kernel_validation;
          Alcotest.test_case "listing" `Quick test_kernel_all_listing;
          Alcotest.test_case "ring shift" `Quick test_kernel_ring_shift;
        ] );
      ( "report",
        [
          Alcotest.test_case "verdicts" `Quick test_report_verdicts;
          Alcotest.test_case "contents" `Quick test_report_contents;
          Alcotest.test_case "memory recommendation" `Quick
            test_report_memory_recommends_ports;
        ] );
      ( "orbit",
        [
          Alcotest.test_case "figure configurations" `Quick
            test_orbit_figure_configs;
          Alcotest.test_case "recorded cache lines" `Quick
            test_orbit_recorded_lines;
          Alcotest.test_case "allocation" `Quick test_orbit_allocation;
          Alcotest.test_case "one-node mesh" `Quick test_orbit_one_node_mesh;
        ]
        @ qcheck
            [ prop_orbit_bit_identical; prop_symmetric_applicable_matches_access ]
      );
      ( "golden",
        [
          Alcotest.test_case "default solution" `Quick test_golden_default_solution;
          Alcotest.test_case "paper anchors" `Quick test_golden_anchors;
          Alcotest.test_case "exact tiny" `Quick test_golden_exact_tiny;
        ] );
      ( "failure-injection",
        [ Alcotest.test_case "iteration caps surface" `Quick test_solver_cap_surfaces ]
      );
      ( "hypercube",
        [ Alcotest.test_case "binary cube via Params" `Quick test_params_hypercube ]
      );
      ( "cross-model",
        [ Alcotest.test_case "random configurations" `Slow test_random_cross_model ]
      );
      ( "properties",
        qcheck
          [
            prop_u_p_in_unit_interval;
            prop_measures_identities;
            prop_u_p_monotone_in_threads;
            prop_tolerance_positive;
            prop_critical_p_remote_in_range;
            prop_grid_rows_stochastic;
            prop_cache_runlength_monotone;
          ] );
    ]
