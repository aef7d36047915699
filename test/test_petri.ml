(* Tests for the stochastic timed Petri net substrate: structure and firing
   semantics, the token-game simulator against closed-form/CTMC truths, the
   tangible reachability graph, and the MMS STPN model (the paper's
   Section 8 validation vehicle). *)

open Lattol_stats
open Lattol_petri
open Lattol_core

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

(* Small helper: a cyclic net  p0 -t01-> p1 -t10-> p0  with exponential
   timings, equivalent to a 2-state CTMC. *)
let two_phase ~m0 ~to1 ~to0 =
  let b = Petri.Builder.create () in
  let p0 = Petri.Builder.add_place b ~initial:m0 "p0" in
  let p1 = Petri.Builder.add_place b "p1" in
  let t01 =
    Petri.Builder.add_transition b "t01"
      (Petri.Timed (Variate.Exponential to1))
      ~inputs:[ (p0, 1) ]
      ~outputs:[ (p1, 1) ]
  in
  let t10 =
    Petri.Builder.add_transition b "t10"
      (Petri.Timed (Variate.Exponential to0))
      ~inputs:[ (p1, 1) ]
      ~outputs:[ (p0, 1) ]
  in
  (Petri.Builder.build b, p0, p1, t01, t10)

(* ------------------------------------------------------------------ *)
(* Petri structure *)

let test_builder_basic () =
  let net, p0, p1, t01, t10 = two_phase ~m0:1 ~to1:1. ~to0:2. in
  Alcotest.(check int) "places" 2 (Petri.num_places net);
  Alcotest.(check int) "transitions" 2 (Petri.num_transitions net);
  Alcotest.(check string) "place name" "p0" (Petri.place_name net p0);
  Alcotest.(check string) "transition name" "t01" (Petri.transition_name net t01);
  Alcotest.(check (array int)) "initial marking" [| 1; 0 |] (Petri.initial_marking net);
  (* t01 only produces into p1, so p1's marking matters to t10 alone. *)
  Alcotest.(check (array int)) "consumers of p1" [| t10 |]
    (Petri.consumers net p1);
  Alcotest.(check (array int)) "consumers of p0" [| t01 |]
    (Petri.consumers net p0)

let test_fire_semantics () =
  let net, _, _, t01, t10 = two_phase ~m0:1 ~to1:1. ~to0:2. in
  let marking = Petri.initial_marking net in
  Alcotest.(check bool) "t01 enabled" true (Petri.enabled net ~marking t01);
  Alcotest.(check bool) "t10 disabled" false (Petri.enabled net ~marking t10);
  Petri.fire net ~marking t01;
  Alcotest.(check (array int)) "after firing" [| 0; 1 |] marking;
  Alcotest.(check bool) "firing disabled transition raises" true
    (try
       Petri.fire net ~marking t01;
       false
     with Invalid_argument _ -> true)

let test_builder_validation () =
  let invalid f =
    Alcotest.(check bool) "raises" true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  invalid (fun () ->
      let b = Petri.Builder.create () in
      ignore (Petri.Builder.add_place b ~initial:(-1) "p"));
  invalid (fun () ->
      let b = Petri.Builder.create () in
      let p = Petri.Builder.add_place b "p" in
      Petri.Builder.add_transition b "t" (Petri.Immediate 0.) ~inputs:[ (p, 1) ]
        ~outputs:[]);
  invalid (fun () ->
      let b = Petri.Builder.create () in
      let p = Petri.Builder.add_place b "p" in
      Petri.Builder.add_transition b "t"
        (Petri.Timed (Variate.Exponential 1.))
        ~inputs:[ (p, 0) ] ~outputs:[]);
  invalid (fun () ->
      let b = Petri.Builder.create () in
      Petri.Builder.add_transition b "t"
        (Petri.Timed (Variate.Exponential 1.))
        ~inputs:[] ~outputs:[])

let test_invariants () =
  let net, _, _, _, _ = two_phase ~m0:3 ~to1:1. ~to0:2. in
  Alcotest.(check bool) "token count conserved" true
    (Petri.is_invariant net ~weights:[| 1.; 1. |]);
  Alcotest.(check bool) "unbalanced weights rejected" false
    (Petri.is_invariant net ~weights:[| 1.; 2. |])

(* ------------------------------------------------------------------ *)
(* Simulation semantics *)

let test_simulation_two_phase () =
  (* One token alternating p0 (mean 1) / p1 (mean 2): time-average of p1 is
     2/3, firing rate of each transition is 1/3. *)
  let net, p0, p1, t01, _ = two_phase ~m0:1 ~to1:1. ~to0:2. in
  let stats = Simulation.simulate ~seed:5 ~warmup:500. ~horizon:100_000. net in
  close ~eps:0.02 "p1 occupancy" (2. /. 3.) stats.Simulation.place_mean.(p1);
  close ~eps:0.02 "p0 occupancy" (1. /. 3.) stats.Simulation.place_mean.(p0);
  close ~eps:0.01 "rate" (1. /. 3.) stats.Simulation.rates.(t01);
  close ~eps:0.02 "busy t01 = P(p0 marked)" (1. /. 3.) stats.Simulation.busy.(t01)

let test_simulation_immediate_weights () =
  (* A timed source feeding two immediate branches 1:3 that return the
     token: branch firing rates must split 25/75. *)
  let b = Petri.Builder.create () in
  let src = Petri.Builder.add_place b ~initial:1 "src" in
  let mid = Petri.Builder.add_place b "mid" in
  let t =
    Petri.Builder.add_transition b "tick"
      (Petri.Timed (Variate.Exponential 1.))
      ~inputs:[ (src, 1) ]
      ~outputs:[ (mid, 1) ]
  in
  let a =
    Petri.Builder.add_transition b "a" (Petri.Immediate 1.) ~inputs:[ (mid, 1) ]
      ~outputs:[ (src, 1) ]
  in
  let c =
    Petri.Builder.add_transition b "c" (Petri.Immediate 3.) ~inputs:[ (mid, 1) ]
      ~outputs:[ (src, 1) ]
  in
  let net = Petri.Builder.build b in
  let stats = Simulation.simulate ~seed:7 ~horizon:200_000. net in
  let total = stats.Simulation.rates.(a) +. stats.Simulation.rates.(c) in
  close ~eps:1e-9 "branches carry all ticks" stats.Simulation.rates.(t) total;
  close ~eps:0.01 "1:3 split" 0.25 (stats.Simulation.rates.(a) /. total)

let test_simulation_conflict_weights () =
  (* [tick] leaves two tokens in [mid], so whichever of [a] and [c] fires
     first is still enabled afterwards and must keep its weight, counted
     once, in the second pick: [a] wins a quarter of the picks. *)
  let b = Petri.Builder.create () in
  let src = Petri.Builder.add_place b ~initial:1 "src" in
  let mid = Petri.Builder.add_place b "mid" in
  let back = Petri.Builder.add_place b "back" in
  let _tick =
    Petri.Builder.add_transition b "tick"
      (Petri.Timed (Variate.Exponential 1.))
      ~inputs:[ (src, 1) ]
      ~outputs:[ (mid, 2) ]
  in
  let a =
    Petri.Builder.add_transition b "a" (Petri.Immediate 1.) ~inputs:[ (mid, 1) ]
      ~outputs:[ (back, 1) ]
  in
  let c =
    Petri.Builder.add_transition b "c" (Petri.Immediate 3.) ~inputs:[ (mid, 1) ]
      ~outputs:[ (back, 1) ]
  in
  let _join =
    Petri.Builder.add_transition b "join" (Petri.Immediate 1.)
      ~inputs:[ (back, 2) ]
      ~outputs:[ (src, 1) ]
  in
  let net = Petri.Builder.build b in
  List.iter
    (fun seed ->
      let stats = Simulation.simulate ~seed ~horizon:200_000. net in
      let fa = float_of_int stats.Simulation.firings.(a)
      and fc = float_of_int stats.Simulation.firings.(c) in
      close ~eps:0.005 (Printf.sprintf "a's share, seed %d" seed) 0.25
        (fa /. (fa +. fc)))
    [ 1; 2; 3 ]

let test_simulation_deterministic_timing () =
  (* Deterministic 2-cycle: exactly one firing of each transition per 3
     time units. *)
  let b = Petri.Builder.create () in
  let p0 = Petri.Builder.add_place b ~initial:1 "p0" in
  let p1 = Petri.Builder.add_place b "p1" in
  let t01 =
    Petri.Builder.add_transition b "t01"
      (Petri.Timed (Variate.Deterministic 1.))
      ~inputs:[ (p0, 1) ] ~outputs:[ (p1, 1) ]
  in
  let _ =
    Petri.Builder.add_transition b "t10"
      (Petri.Timed (Variate.Deterministic 2.))
      ~inputs:[ (p1, 1) ] ~outputs:[ (p0, 1) ]
  in
  let net = Petri.Builder.build b in
  let stats = Simulation.simulate ~horizon:2_999.5 net in
  Alcotest.(check int) "exactly 1000 firings" 1000 stats.Simulation.firings.(t01)

let test_simulation_vanishing_loop_detected () =
  let b = Petri.Builder.create () in
  let p0 = Petri.Builder.add_place b ~initial:1 "p0" in
  let p1 = Petri.Builder.add_place b "p1" in
  let _ =
    Petri.Builder.add_transition b "i01" (Petri.Immediate 1.) ~inputs:[ (p0, 1) ]
      ~outputs:[ (p1, 1) ]
  in
  let _ =
    Petri.Builder.add_transition b "i10" (Petri.Immediate 1.) ~inputs:[ (p1, 1) ]
      ~outputs:[ (p0, 1) ]
  in
  let net = Petri.Builder.build b in
  Alcotest.(check bool) "livelock detected" true
    (try
       ignore (Simulation.simulate ~horizon:10. net);
       false
     with Failure _ -> true)

(* ------------------------------------------------------------------ *)
(* Reachability *)

let test_reachability_two_phase_vs_ctmc () =
  let net, _, p1, t01, _ = two_phase ~m0:1 ~to1:1. ~to0:2. in
  let g = Reachability.explore net in
  Alcotest.(check int) "two tangible states" 2 (Reachability.num_states g);
  let pi = Reachability.steady_state g in
  close ~eps:1e-9 "p1 mean" (2. /. 3.) (Reachability.place_mean g ~pi p1);
  close ~eps:1e-9 "throughput" (1. /. 3.) (Reachability.throughput g ~pi t01)

let test_reachability_vanishing_elimination () =
  (* timed tick then immediate probabilistic split 1:3 into two slow
     drains; drain throughputs must split accordingly. *)
  let b = Petri.Builder.create () in
  let src = Petri.Builder.add_place b ~initial:1 "src" in
  let mid = Petri.Builder.add_place b "mid" in
  let qa = Petri.Builder.add_place b "qa" in
  let qc = Petri.Builder.add_place b "qc" in
  let _ =
    Petri.Builder.add_transition b "tick"
      (Petri.Timed (Variate.Exponential 1.))
      ~inputs:[ (src, 1) ] ~outputs:[ (mid, 1) ]
  in
  let _ =
    Petri.Builder.add_transition b "a" (Petri.Immediate 1.) ~inputs:[ (mid, 1) ]
      ~outputs:[ (qa, 1) ]
  in
  let _ =
    Petri.Builder.add_transition b "c" (Petri.Immediate 3.) ~inputs:[ (mid, 1) ]
      ~outputs:[ (qc, 1) ]
  in
  let da =
    Petri.Builder.add_transition b "da"
      (Petri.Timed (Variate.Exponential 2.))
      ~inputs:[ (qa, 1) ] ~outputs:[ (src, 1) ]
  in
  let dc =
    Petri.Builder.add_transition b "dc"
      (Petri.Timed (Variate.Exponential 2.))
      ~inputs:[ (qc, 1) ] ~outputs:[ (src, 1) ]
  in
  let net = Petri.Builder.build b in
  let g = Reachability.explore net in
  (* tangible states: token in src, qa, or qc *)
  Alcotest.(check int) "three tangible states" 3 (Reachability.num_states g);
  let pi = Reachability.steady_state g in
  let ra = Reachability.throughput g ~pi da in
  let rc = Reachability.throughput g ~pi dc in
  close ~eps:1e-9 "split 1:3" 3. (rc /. ra)

let test_reachability_unbounded_detected () =
  let b = Petri.Builder.create () in
  let p = Petri.Builder.add_place b ~initial:1 "p" in
  let _ =
    Petri.Builder.add_transition b "grow"
      (Petri.Timed (Variate.Exponential 1.))
      ~inputs:[ (p, 1) ]
      ~outputs:[ (p, 2) ]
  in
  let net = Petri.Builder.build b in
  Alcotest.(check bool) "unbounded raises" true
    (try
       ignore (Reachability.explore ~max_states:100 net);
       false
     with Reachability.Unbounded _ -> true)

let test_reachability_rejects_non_exponential () =
  let b = Petri.Builder.create () in
  let p = Petri.Builder.add_place b ~initial:1 "p" in
  let _ =
    Petri.Builder.add_transition b "d"
      (Petri.Timed (Variate.Deterministic 1.))
      ~inputs:[ (p, 1) ] ~outputs:[ (p, 1) ]
  in
  let net = Petri.Builder.build b in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Reachability.explore net);
       false
     with Invalid_argument _ -> true)

let test_simulation_matches_reachability () =
  (* The token-game simulator must agree with the exact tangible-chain
     solution on a nontrivial net (shared server, two flows). *)
  let b = Petri.Builder.create () in
  let idle = Petri.Builder.add_place b ~initial:1 "idle" in
  let qa = Petri.Builder.add_place b ~initial:1 "qa" in
  let qb = Petri.Builder.add_place b ~initial:1 "qb" in
  let sa = Petri.Builder.add_place b "sa" in
  let sb = Petri.Builder.add_place b "sb" in
  let _ =
    Petri.Builder.add_transition b "grab_a" (Petri.Immediate 1.)
      ~inputs:[ (qa, 1); (idle, 1) ] ~outputs:[ (sa, 1) ]
  in
  let _ =
    Petri.Builder.add_transition b "grab_b" (Petri.Immediate 1.)
      ~inputs:[ (qb, 1); (idle, 1) ] ~outputs:[ (sb, 1) ]
  in
  let serve_a =
    Petri.Builder.add_transition b "serve_a"
      (Petri.Timed (Variate.Exponential 1.))
      ~inputs:[ (sa, 1) ]
      ~outputs:[ (idle, 1); (qa, 1) ]
  in
  let _ =
    Petri.Builder.add_transition b "serve_b"
      (Petri.Timed (Variate.Exponential 2.))
      ~inputs:[ (sb, 1) ]
      ~outputs:[ (idle, 1); (qb, 1) ]
  in
  let net = Petri.Builder.build b in
  let g = Reachability.explore net in
  let pi = Reachability.steady_state g in
  let exact_rate = Reachability.throughput g ~pi serve_a in
  let stats = Simulation.simulate ~seed:3 ~warmup:1_000. ~horizon:200_000. net in
  let sim_rate = stats.Simulation.rates.(serve_a) in
  if abs_float (sim_rate -. exact_rate) /. exact_rate > 0.03 then
    Alcotest.failf "shared server: sim %g vs exact %g" sim_rate exact_rate

(* ------------------------------------------------------------------ *)
(* Infinite-server transitions *)

let mmc_net ~servers =
  (* N customers, exponential think (as an infinite-server transition),
     then a c-server pool modelled with an idle place + infinite-server
     serve: the grab/serve idiom from Mms_stpn in miniature. *)
  let b = Petri.Builder.create () in
  let thinking = Petri.Builder.add_place b ~initial:6 "thinking" in
  let queue = Petri.Builder.add_place b "queue" in
  let idle = Petri.Builder.add_place b ~initial:servers "idle" in
  let busy = Petri.Builder.add_place b "busy" in
  let _think =
    Petri.Builder.add_transition b "think"
      (Petri.Timed_infinite (Variate.Exponential 3.))
      ~inputs:[ (thinking, 1) ]
      ~outputs:[ (queue, 1) ]
  in
  let _grab =
    Petri.Builder.add_transition b "grab" (Petri.Immediate 1.)
      ~inputs:[ (queue, 1); (idle, 1) ]
      ~outputs:[ (busy, 1) ]
  in
  let serve =
    Petri.Builder.add_transition b "serve"
      (Petri.Timed_infinite (Variate.Exponential 2.))
      ~inputs:[ (busy, 1) ]
      ~outputs:[ (thinking, 1); (idle, 1) ]
  in
  (Petri.Builder.build b, serve)

let closed_mmc_throughput ~servers =
  let nw =
    Lattol_queueing.Network.make
      ~stations:
        [| ("think", Lattol_queueing.Network.Delay);
           ("pool", Lattol_queueing.Network.Multi_server servers) |]
      ~classes:
        [|
          {
            Lattol_queueing.Network.class_name = "jobs";
            population = 6;
            visits = [| 1.; 1. |];
            service = [| 3.; 2. |];
          };
        |]
  in
  (Lattol_queueing.Convolution.solve nw).Lattol_queueing.Solution.throughput.(0)

let test_infinite_server_reachability_exact () =
  List.iter
    (fun servers ->
      let net, serve = mmc_net ~servers in
      let g = Reachability.explore net in
      let pi = Reachability.steady_state g in
      close ~eps:1e-8
        (Printf.sprintf "throughput c=%d" servers)
        (closed_mmc_throughput ~servers)
        (Reachability.throughput g ~pi serve))
    [ 1; 2; 3 ]

let test_infinite_server_simulation () =
  let net, serve = mmc_net ~servers:2 in
  let stats = Simulation.simulate ~seed:11 ~warmup:500. ~horizon:100_000. net in
  let exact = closed_mmc_throughput ~servers:2 in
  let sim = stats.Simulation.rates.(serve) in
  if abs_float (sim -. exact) /. exact > 0.03 then
    Alcotest.failf "infinite-server sim %g vs exact %g" sim exact

let test_enabling_degree () =
  let net, _ = mmc_net ~servers:2 in
  let marking = Petri.initial_marking net in
  (* think has 6 tokens -> degree 6; serve has 0 busy -> degree 0 *)
  Alcotest.(check int) "think degree" 6 (Petri.enabling_degree net ~marking 0);
  Alcotest.(check int) "serve degree" 0 (Petri.enabling_degree net ~marking 2)

let test_deadlock_detection () =
  (* A net that drains into an empty-enabled state deadlocks. *)
  let b = Petri.Builder.create () in
  let p0 = Petri.Builder.add_place b ~initial:1 "p0" in
  let p1 = Petri.Builder.add_place b "p1" in
  let _ =
    Petri.Builder.add_transition b "move"
      (Petri.Timed (Variate.Exponential 1.))
      ~inputs:[ (p0, 1) ]
      ~outputs:[ (p1, 1) ]
  in
  let _ =
    (* needs two tokens it can never have: p1 holds at most one *)
    Petri.Builder.add_transition b "stuck"
      (Petri.Timed (Variate.Exponential 1.))
      ~inputs:[ (p1, 2) ]
      ~outputs:[ (p0, 2) ]
  in
  let net = Petri.Builder.build b in
  let g = Reachability.explore net in
  Alcotest.(check int) "one dead marking" 1 (List.length (Reachability.deadlocks g))

let test_mms_stpn_deadlock_free () =
  (* The paper's assumption, verified structurally on small machines. *)
  List.iter
    (fun p ->
      let lay = Mms_stpn.build p in
      let g = Reachability.explore ~max_states:50_000 lay.Mms_stpn.net in
      Alcotest.(check (list int)) "no deadlocks" [] (Reachability.deadlocks g))
    [
      { Params.default with Params.k = 1; n_t = 3; p_remote = 0. };
      { Params.default with Params.k = 1; n_t = 2; p_remote = 0.; mem_ports = 2 };
    ]

(* ------------------------------------------------------------------ *)
(* Mms_stpn *)

let test_mms_stpn_structure () =
  let layout = Mms_stpn.build { Params.default with Params.k = 2; n_t = 2 } in
  let net = layout.Mms_stpn.net in
  Alcotest.(check bool) "has places" true (Petri.num_places net > 20);
  (* per-node thread-count P-invariants *)
  Array.iter
    (fun places ->
      let weights = Array.make (Petri.num_places net) 0. in
      List.iter (fun pl -> weights.(pl) <- 1.) places;
      Alcotest.(check bool) "thread conservation" true
        (Petri.is_invariant net ~weights))
    layout.Mms_stpn.thread_places;
  (* server idle-token invariants: idle + its in-service stages = 1; the
     in-service stages are exactly the thread places named ".s" — covered
     indirectly by simulation conservation below. *)
  Alcotest.(check int) "ready initial marking" 2
    (Petri.initial_marking net).(layout.Mms_stpn.ready.(0))

let test_mms_stpn_exact_repairman () =
  (* k = 1, p_remote = 0: processor + memory cycle; exact tangible chain
     equals exact MVA. *)
  let p = { Params.default with Params.k = 1; n_t = 3; p_remote = 0. } in
  let stpn = Mms_stpn.exact p in
  let mva = Mms.solve ~solver:Mms.Exact_mva p in
  close ~eps:1e-8 "U_p" mva.Measures.u_p stpn.Measures.u_p;
  close ~eps:1e-8 "lambda" mva.Measures.lambda stpn.Measures.lambda;
  close ~eps:1e-7 "L_obs" mva.Measures.l_obs stpn.Measures.l_obs

let test_mms_stpn_sim_vs_exact_mva () =
  (* k = 2 MMS: STPN simulation against the exact product-form solution. *)
  let p = { Params.default with Params.k = 2; n_t = 2; p_remote = 0.5 } in
  let r = Mms_stpn.run ~horizon:50_000. p in
  let m = r.Mms_stpn.measures in
  let e = Mms.solve ~solver:Mms.Exact_mva p in
  let rel a b = abs_float (a -. b) /. b in
  if rel m.Measures.u_p e.Measures.u_p > 0.03 then
    Alcotest.failf "U_p stpn %g vs exact %g" m.Measures.u_p e.Measures.u_p;
  if rel m.Measures.lambda_net e.Measures.lambda_net > 0.03 then
    Alcotest.failf "lambda_net stpn %g vs exact %g" m.Measures.lambda_net
      e.Measures.lambda_net;
  if rel m.Measures.s_obs e.Measures.s_obs > 0.06 then
    Alcotest.failf "S_obs stpn %g vs exact %g" m.Measures.s_obs e.Measures.s_obs

let test_mms_stpn_figure11_band () =
  (* The paper's validation bands: lambda_net within 2%, S_obs within 5% of
     the model at p_remote = 0.5 on the 4x4 machine. *)
  let p = { Params.default with Params.p_remote = 0.5; n_t = 4 } in
  let r = Mms_stpn.run ~horizon:20_000. p in
  let m = r.Mms_stpn.measures in
  let model = Mms.solve p in
  let rel a b = abs_float (a -. b) /. b in
  if rel m.Measures.lambda_net model.Measures.lambda_net > 0.04 then
    Alcotest.failf "lambda_net %g vs %g" m.Measures.lambda_net
      model.Measures.lambda_net;
  if rel m.Measures.s_obs model.Measures.s_obs > 0.08 then
    Alcotest.failf "S_obs %g vs %g" m.Measures.s_obs model.Measures.s_obs

let test_mms_stpn_multiport_exact () =
  (* k = 1 with a dual-ported memory: exact tangible chain equals the
     brute-force CTMC of the corresponding Multi_server network. *)
  let p =
    { Params.default with Params.k = 1; n_t = 4; p_remote = 0.; mem_ports = 2 }
  in
  let stpn = Mms_stpn.exact p in
  let ctmc = Lattol_markov.Qn_ctmc.solve (Mms.build_network p) in
  close ~eps:1e-8 "lambda" ctmc.Lattol_queueing.Solution.throughput.(0)
    stpn.Measures.lambda

let test_mms_stpn_deterministic_memory_sensitivity () =
  (* The paper's Section 8 check: switching L from exponential to
     deterministic moves S_obs by less than 10%. *)
  let p = { Params.default with Params.k = 2; n_t = 3; p_remote = 0.5 } in
  let exp_run = Mms_stpn.run ~horizon:30_000. p in
  let det_run =
    Mms_stpn.run ~horizon:30_000. ~memory:Mms_stpn.Deterministic_memory p
  in
  let a = exp_run.Mms_stpn.measures.Measures.s_obs in
  let b = det_run.Mms_stpn.measures.Measures.s_obs in
  if abs_float (a -. b) /. a > 0.10 then
    Alcotest.failf "deterministic L moved S_obs %g -> %g (> 10%%)" a b

let test_mms_stpn_validation () =
  Alcotest.(check bool) "L = 0 rejected" true
    (try
       ignore (Mms_stpn.build { Params.default with Params.l_mem = 0. });
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "n_t = 0 rejected" true
    (try
       ignore (Mms_stpn.build { Params.default with Params.n_t = 0 });
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "SU rejected" true
    (try
       ignore (Mms_stpn.build { Params.default with Params.sync_unit = 0.5 });
       false
     with Invalid_argument _ -> true)

(* [Mms_stpn.run] cache lines recorded before the firing path refreshed
   only consumers, pinning every bit (and, through [iterations], the
   event count) of the sample path for each seed. *)
let stpn_recorded_lines =
  [
    ( "default 4x4, seed 1",
      Params.default,
      None,
      1,
      600.,
      "u_p=0x1.b5547ca3c3c1cp-1;lambda=0x1.b369d0369d035p-1;lambda_net=0x1.5f258bf258befp-3;s_obs=0x1.639893d8edec4p+2;l_obs=0x1.d28cedefa2d6bp+1;cycle_time=0x1.2d076679aa754p+3;util_memory=0x1.ade8590f75ba8p-1;util_switch_in=0x1.34fe5c6690492p-1;util_switch_out=0x1.61a6624094e56p-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.7f5bab22f3bacp+1;queue_memory=0x1.8cc327c8e918p+1;queue_network=0x1.e7c25a2846598p+0;iterations=50860;converged=true"
    );
    ( "default 4x4, seed 2",
      Params.default,
      None,
      2,
      600.,
      "u_p=0x1.aa3f63db133dp-1;lambda=0x1.ae147ae147ae1p-1;lambda_net=0x1.551eb851eb85p-3;s_obs=0x1.6f6d94b2ce0b8p+2;l_obs=0x1.e6ab26c5a16ccp+1;cycle_time=0x1.30c30c30c30c3p+3;util_memory=0x1.af33c7be10021p-1;util_switch_in=0x1.2fbabf039bfb6p-1;util_switch_out=0x1.5a6587a035d16p-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.726643b89f209p+1;queue_memory=0x1.98cd350c68e07p+1;queue_network=0x1.e9990e75effe8p+0;iterations=49845;converged=true"
    );
    ( "k = 2, n_t = 2, seed 1",
      { Params.default with Params.k = 2; n_t = 2 },
      None,
      1,
      600.,
      "u_p=0x1.0621cdc2d8a9bp-1;lambda=0x1.0333333333333p-1;lambda_net=0x1.aaaaaaaaaaaaap-4;s_obs=0x1.6e3992ef2048fp+1;l_obs=0x1.7662408e3181dp+0;cycle_time=0x1.f9add3c0ca459p+1;util_memory=0x1.f93ecdd21a6ep-2;util_switch_in=0x1.1ae7e24b41772p-2;util_switch_out=0x1.b37be23780dcp-3;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.53bfbdcae4098p-1;queue_memory=0x1.7b1047c32bb9dp-1;queue_network=0x1.312ffa71f03ccp-1;iterations=7201;converged=true"
    );
    ( "k = 2, n_t = 2, seed 2",
      { Params.default with Params.k = 2; n_t = 2 },
      None,
      2,
      600.,
      "u_p=0x1.073950a19333bp-1;lambda=0x1.0a06d3a06d3a1p-1;lambda_net=0x1.afc962fc962fcp-4;s_obs=0x1.7be6b2cc7a834p+1;l_obs=0x1.60c698cb7633ep+0;cycle_time=0x1.ecb3d61ecb3d5p+1;util_memory=0x1.048eb07ac35f1p-1;util_switch_in=0x1.2da308c9814c2p-2;util_switch_out=0x1.addbfadf808bp-3;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.51061bed5a38fp-1;queue_memory=0x1.6e97c30bc02a7p-1;queue_network=0x1.40622106e59ccp-1;iterations=7395;converged=true"
    );
    ( "mem_ports = 2, seed 1",
      { Params.default with Params.mem_ports = 2 },
      None,
      1,
      600.,
      "u_p=0x1.f0ce9a85bae56p-1;lambda=0x1.ee06d3a06d3ap-1;lambda_net=0x1.7b17e4b17e4acp-3;s_obs=0x1.9b4788df6913p+2;l_obs=0x1.3d1b24723db66p+0;cycle_time=0x1.095048f614108p+3;util_memory=-0x1.7f80e8c479ccp-5;util_switch_in=0x1.49d9036c8852ap-1;util_switch_out=0x1.7695ee08f6acep-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.1b3f52be58e5p+2;queue_memory=0x1.31f96a8db2886p+0;queue_network=0x1.3084a53c74f1cp+1;iterations=56486;converged=true"
    );
    ( "mem_ports = 2, seed 2",
      { Params.default with Params.mem_ports = 2 },
      None,
      2,
      600.,
      "u_p=0x1.edc914fa99a46p-1;lambda=0x1.e93a06d3a06d4p-1;lambda_net=0x1.8b851eb851eb1p-3;s_obs=0x1.ac07ead394043p+2;l_obs=0x1.3aa337bc66268p+0;cycle_time=0x1.0beaada4bda9ap+3;util_memory=-0x1.e6e9361e4996p-5;util_switch_in=0x1.55ef452f9f653p-1;util_switch_out=0x1.8bf3b8924d8fp-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.0f832a71ae06bp+2;queue_memory=0x1.2ca48b6ab6683p+0;queue_network=0x1.4aa7656748bdcp+1;iterations=56893;converged=true"
    );
    ( "switch_pipeline = 2, p_remote = 0.6, seed 1",
      { Params.default with Params.switch_pipeline = 2; p_remote = 0.6 },
      None,
      1,
      600.,
      "u_p=0x1.6ba72fc9227dcp-1;lambda=0x1.7281b4e81b4e8p-1;lambda_net=0x1.b428f5c28f5bfp-2;s_obs=0x1.24d67a3c9685fp+2;l_obs=0x1.b24b95d7a0375p+1;cycle_time=0x1.61c3a3943fd33p+3;util_memory=0x1.77abbead4c65ap-1;util_switch_in=0x1.dc38b11826e54p-2;util_switch_out=-0x1.26d3099a795ap-3;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.a59a70ccb9effp+0;queue_memory=0x1.3a46a4c787b32p+1;queue_network=0x1.f2ec22d21b553p+1;iterations=72739;converged=true"
    );
    ( "switch_pipeline = 2, p_remote = 0.6, seed 2",
      { Params.default with Params.switch_pipeline = 2; p_remote = 0.6 },
      None,
      2,
      600.,
      "u_p=0x1.6babaf46fdfcap-1;lambda=0x1.707ae147ae149p-1;lambda_net=0x1.ba740da740da2p-2;s_obs=0x1.351cdad7f1648p+2;l_obs=0x1.7af443aaa35dfp+1;cycle_time=0x1.63b5bedc515e5p+3;util_memory=0x1.6a7cedd3144a5p-1;util_switch_in=0x1.0243e409be225p-1;util_switch_out=-0x1.f72e90671f8ap-4;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.b20b1206d3306p+0;queue_memory=0x1.10ba83942a889p+1;queue_network=0x1.0b1ff9b435efap+2;iterations=72908;converged=true"
    );
    ( "deterministic memory, seed 1",
      Params.default,
      Some Mms_stpn.Deterministic_memory,
      1,
      600.,
      "u_p=0x1.c717a46e4e393p-1;lambda=0x1.c851eb851eb86p-1;lambda_net=0x1.751eb851eb84cp-3;s_obs=0x1.79108419f36f4p+2;l_obs=0x1.a4d46d03ab774p+1;cycle_time=0x1.1f3cadc7454bcp+3;util_memory=0x1.c877cf8e244a7p-1;util_switch_in=0x1.440efaaa5d4d2p-1;util_switch_out=0x1.73fb62f7c5be4p-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.762651c5a857p+1;queue_memory=0x1.771086476e425p+1;queue_network=0x1.12c927f2e966ep+1;iterations=53452;converged=true"
    );
    ( "deterministic memory, seed 2",
      Params.default,
      Some Mms_stpn.Deterministic_memory,
      2,
      600.,
      "u_p=0x1.c6cb4d53d4a46p-1;lambda=0x1.c85f92c5f92c4p-1;lambda_net=0x1.6c28f5c28f5cp-3;s_obs=0x1.8311e15cc9e14p+2;l_obs=0x1.a78ed83e928dcp+1;cycle_time=0x1.1f3415e636267p+3;util_memory=0x1.c8406dd2d51b2p-1;util_switch_in=0x1.41e7f5407dc77p-1;util_switch_out=0x1.6d48ad68f7b7cp-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.73280992ec57ap+1;queue_memory=0x1.798a49045c641p+1;queue_network=0x1.134dad68b7444p+1;iterations=52870;converged=true"
    );
    ( "k = 3, runlength = 2, p_remote = 0.8, seed 1",
      { Params.default with Params.k = 3; runlength = 2.; p_remote = 0.8 },
      None,
      1,
      600.,
      "u_p=0x1.86eacc408d5f7p-1;lambda=0x1.81b4e81b4e81cp-2;lambda_net=0x1.38215ff3dd1bcp-2;s_obs=0x1.138841cf2ff73p+3;l_obs=0x1.9babce287e57ap+0;cycle_time=0x1.53d2b0b53d2bp+4;util_memory=0x1.844ec036bc472p-2;util_switch_in=0x1.9cf12a8a1c6ccp-1;util_switch_out=0x1.3bb8be6c22f89p-1;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.1293fe87035bcp+1;queue_memory=0x1.3620258bbb568p-1;queue_network=0x1.4ff1fc0b06e75p+2;iterations=23499;converged=true"
    );
    ( "k = 3, runlength = 2, p_remote = 0.8, seed 2",
      { Params.default with Params.k = 3; runlength = 2.; p_remote = 0.8 },
      None,
      2,
      600.,
      "u_p=0x1.87892f4e83cb3p-1;lambda=0x1.8d159e26af37cp-2;lambda_net=0x1.39a5bc7dea00dp-2;s_obs=0x1.15082fd7db2d3p+3;l_obs=0x1.a25db4e3fe82dp+0;cycle_time=0x1.4a16017790812p+4;util_memory=0x1.9347d53e9b26cp-2;util_switch_in=0x1.a980fa1bb26fcp-1;util_switch_out=0x1.39253f7e38984p-1;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.080d71caa448ep+1;queue_memory=0x1.447752d53b25cp-1;queue_network=0x1.536a5cc00676cp+2;iterations=23924;converged=true"
    );
    ( "default 4x4, seed 1, horizon 20000",
      Params.default,
      None,
      1,
      20_000.,
      "u_p=0x1.b0299fafd749cp-1;lambda=0x1.afded288ce703p-1;lambda_net=0x1.58d1b71758e24p-3;s_obs=0x1.61e5f9b778457p+2;l_obs=0x1.e369f5726a601p+1;cycle_time=0x1.2f7f9adfd30d5p+3;util_memory=0x1.afc7e614b8154p-1;util_switch_in=0x1.295697d3d1a8cp-1;util_switch_out=0x1.59a123472250ep-2;util_sync=0x0p+0;su_obs=0x0p+0;queue_processor=0x1.79e6737397e2ep+1;queue_memory=0x1.97c213d6dde2bp+1;queue_network=0x1.dcaef16b1471ep+0;iterations=1667637;converged=true"
    );
  ]

let test_mms_stpn_recorded_lines () =
  List.iter
    (fun (name, p, memory, seed, horizon, line) ->
      let r = Mms_stpn.run ~seed ~warmup:100. ~horizon ?memory p in
      Alcotest.(check string) name line
        (Lattol_exec.Cache.encode_measures_line r.Mms_stpn.measures))
    stpn_recorded_lines

(* An exact count over one default 4x4 run, net construction included:
   the firing path allocates only the engine's cancellation handle and
   the PRNG's draw per service (965 words per event when every firing
   re-tested every transition on a touched place through closures). *)
let test_mms_stpn_allocation () =
  let w0 = Gc.minor_words () in
  let r = Mms_stpn.run ~seed:1 ~warmup:100. ~horizon:600. Params.default in
  let words = Gc.minor_words () -. w0 in
  let per_event = words /. float_of_int r.Mms_stpn.stats.Simulation.events in
  if per_event > 100. then
    Alcotest.failf "%.1f minor words per measured event" per_event

(* ------------------------------------------------------------------ *)
(* Invariant discovery *)

let test_invariants_two_phase () =
  let net, _, _, _, _ = two_phase ~m0:3 ~to1:1. ~to0:2. in
  match Invariants.p_semiflows net with
  | [ w ] ->
    Alcotest.(check (array int)) "single conservation law" [| 1; 1 |] w;
    Alcotest.(check int) "conserved total" 3
      (Invariants.conserved_total net ~weights:w)
  | flows -> Alcotest.failf "expected 1 semiflow, got %d" (List.length flows)

let test_invariants_weighted () =
  (* t consumes 2 tokens of a and produces 1 of b; a + 2b is conserved. *)
  let b = Petri.Builder.create () in
  let pa = Petri.Builder.add_place b ~initial:4 "a" in
  let pb = Petri.Builder.add_place b "b" in
  let _ =
    Petri.Builder.add_transition b "fwd"
      (Petri.Timed (Variate.Exponential 1.))
      ~inputs:[ (pa, 2) ]
      ~outputs:[ (pb, 1) ]
  in
  let _ =
    Petri.Builder.add_transition b "bwd"
      (Petri.Timed (Variate.Exponential 1.))
      ~inputs:[ (pb, 1) ]
      ~outputs:[ (pa, 2) ]
  in
  let net = Petri.Builder.build b in
  match Invariants.p_semiflows net with
  | [ w ] -> Alcotest.(check (array int)) "a + 2b" [| 1; 2 |] w
  | flows -> Alcotest.failf "expected 1 semiflow, got %d" (List.length flows)

let test_invariants_discover_mms_structure () =
  (* The MMS STPN's conservation laws should be found automatically: one
     per node's threads plus one per server, and every place covered. *)
  let p = { Params.default with Params.k = 2; n_t = 2; p_remote = 0.5 } in
  let lay = Mms_stpn.build p in
  let net = lay.Mms_stpn.net in
  let flows = Invariants.p_semiflows ~max_rows:100_000 net in
  (* 4 thread laws + 4 memory + 4 outbound + 4 inbound = 16 *)
  Alcotest.(check int) "16 conservation laws" 16 (List.length flows);
  List.iter
    (fun w ->
      Alcotest.(check bool) "validates" true
        (Petri.is_invariant net ~weights:(Array.map float_of_int w)))
    flows;
  for pl = 0 to Petri.num_places net - 1 do
    if not (Invariants.covers flows ~place:pl) then
      Alcotest.failf "place %s not covered" (Petri.place_name net pl)
  done;
  (* the thread law for node 0 conserves exactly n_t tokens *)
  let ready0 = lay.Mms_stpn.ready.(0) in
  let thread_law =
    List.find (fun w -> w.(ready0) > 0) flows
  in
  Alcotest.(check int) "n_t conserved" 2
    (Invariants.conserved_total net ~weights:thread_law)

let test_invariants_row_cap () =
  let p = { Params.default with Params.k = 2; n_t = 2; p_remote = 0.5 } in
  let lay = Mms_stpn.build p in
  Alcotest.(check bool) "cap enforced" true
    (try
       ignore (Invariants.p_semiflows ~max_rows:3 lay.Mms_stpn.net);
       false
     with Invariants.Too_many_rows _ -> true)

let test_t_semiflows_cycle () =
  (* A ring of transitions has exactly one firing cycle: one of each. *)
  let b = Petri.Builder.create () in
  let places =
    Array.init 3 (fun i ->
        Petri.Builder.add_place b ~initial:(if i = 0 then 1 else 0)
          (Printf.sprintf "p%d" i))
  in
  for i = 0 to 2 do
    ignore
      (Petri.Builder.add_transition b
         (Printf.sprintf "t%d" i)
         (Petri.Timed (Variate.Exponential 1.))
         ~inputs:[ (places.(i), 1) ]
         ~outputs:[ (places.((i + 1) mod 3), 1) ])
  done;
  let net = Petri.Builder.build b in
  (match Invariants.t_semiflows net with
  | [ x ] ->
    Alcotest.(check (array int)) "one of each" [| 1; 1; 1 |] x;
    Alcotest.(check bool) "reproduces marking" true
      (Invariants.reproduces_marking net ~firings:x)
  | flows -> Alcotest.failf "expected 1 T-semiflow, got %d" (List.length flows));
  Alcotest.(check bool) "partial firing does not reproduce" false
    (Invariants.reproduces_marking net ~firings:[| 1; 1; 0 |])

let test_t_semiflows_mms_access_cycle () =
  (* The single-node machine has exactly one steady-state cycle: execute,
     route locally, grab the memory, serve. *)
  let p = { Params.default with Params.k = 1; n_t = 3; p_remote = 0. } in
  let lay = Mms_stpn.build p in
  match Invariants.t_semiflows lay.Mms_stpn.net with
  | [ x ] ->
    Alcotest.(check bool) "reproduces" true
      (Invariants.reproduces_marking lay.Mms_stpn.net ~firings:x);
    Alcotest.(check int) "four transitions, once each" 4
      (Array.fold_left ( + ) 0 x)
  | flows -> Alcotest.failf "expected 1 cycle, got %d" (List.length flows)

let test_invariants_unbounded_net_has_uncovered_place () =
  let b = Petri.Builder.create () in
  let src = Petri.Builder.add_place b ~initial:1 "src" in
  let sink = Petri.Builder.add_place b "sink" in
  let _ =
    Petri.Builder.add_transition b "gen"
      (Petri.Timed (Variate.Exponential 1.))
      ~inputs:[ (src, 1) ]
      ~outputs:[ (src, 1); (sink, 1) ]
  in
  let net = Petri.Builder.build b in
  let flows = Invariants.p_semiflows net in
  Alcotest.(check bool) "sink uncovered" false
    (Invariants.covers flows ~place:sink)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_invariant_detects_conservation =
  QCheck.Test.make ~name:"cycle nets conserve tokens" ~count:50
    QCheck.(pair (int_range 2 6) (int_range 1 5))
    (fun (stages, tokens) ->
      (* ring of [stages] places, token moves around *)
      let b = Petri.Builder.create () in
      let places =
        Array.init stages (fun i ->
            Petri.Builder.add_place b
              ~initial:(if i = 0 then tokens else 0)
              (Printf.sprintf "p%d" i))
      in
      for i = 0 to stages - 1 do
        ignore
          (Petri.Builder.add_transition b
             (Printf.sprintf "t%d" i)
             (Petri.Timed (Variate.Exponential 1.))
             ~inputs:[ (places.(i), 1) ]
             ~outputs:[ (places.((i + 1) mod stages), 1) ])
      done;
      let net = Petri.Builder.build b in
      Petri.is_invariant net ~weights:(Array.make stages 1.))

let prop_simulation_conserves_ring_tokens =
  QCheck.Test.make ~name:"simulated ring keeps total place mean = tokens"
    ~count:10
    QCheck.(pair (int_range 2 5) (int_range 1 4))
    (fun (stages, tokens) ->
      let b = Petri.Builder.create () in
      let places =
        Array.init stages (fun i ->
            Petri.Builder.add_place b
              ~initial:(if i = 0 then tokens else 0)
              (Printf.sprintf "p%d" i))
      in
      for i = 0 to stages - 1 do
        ignore
          (Petri.Builder.add_transition b
             (Printf.sprintf "t%d" i)
             (Petri.Timed (Variate.Exponential 1.))
             ~inputs:[ (places.(i), 1) ]
             ~outputs:[ (places.((i + 1) mod stages), 1) ])
      done;
      let net = Petri.Builder.build b in
      let stats = Simulation.simulate ~horizon:5_000. net in
      let total = Array.fold_left ( +. ) 0. stats.Simulation.place_mean in
      abs_float (total -. float_of_int tokens) < 1e-6)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lattol_petri"
    [
      ( "structure",
        [
          Alcotest.test_case "builder" `Quick test_builder_basic;
          Alcotest.test_case "fire semantics" `Quick test_fire_semantics;
          Alcotest.test_case "builder validation" `Quick test_builder_validation;
          Alcotest.test_case "invariants" `Quick test_invariants;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "two-phase occupancy" `Slow test_simulation_two_phase;
          Alcotest.test_case "immediate weights" `Slow test_simulation_immediate_weights;
          Alcotest.test_case "conflict weights after a firing" `Quick
            test_simulation_conflict_weights;
          Alcotest.test_case "deterministic timing" `Quick
            test_simulation_deterministic_timing;
          Alcotest.test_case "vanishing livelock" `Quick
            test_simulation_vanishing_loop_detected;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "two-phase vs CTMC" `Quick
            test_reachability_two_phase_vs_ctmc;
          Alcotest.test_case "vanishing elimination" `Quick
            test_reachability_vanishing_elimination;
          Alcotest.test_case "unbounded detection" `Quick
            test_reachability_unbounded_detected;
          Alcotest.test_case "non-exponential rejected" `Quick
            test_reachability_rejects_non_exponential;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "MMS deadlock-free" `Quick test_mms_stpn_deadlock_free;
          Alcotest.test_case "simulation vs reachability" `Slow
            test_simulation_matches_reachability;
        ] );
      ( "infinite-server",
        [
          Alcotest.test_case "reachability exact (c=1,2,3)" `Quick
            test_infinite_server_reachability_exact;
          Alcotest.test_case "simulation" `Slow test_infinite_server_simulation;
          Alcotest.test_case "enabling degree" `Quick test_enabling_degree;
        ] );
      ( "mms-stpn",
        [
          Alcotest.test_case "structure + invariants" `Quick test_mms_stpn_structure;
          Alcotest.test_case "exact repairman" `Quick test_mms_stpn_exact_repairman;
          Alcotest.test_case "sim vs exact MVA (k=2)" `Slow
            test_mms_stpn_sim_vs_exact_mva;
          Alcotest.test_case "figure 11 band" `Slow test_mms_stpn_figure11_band;
          Alcotest.test_case "multiport exact" `Quick test_mms_stpn_multiport_exact;
          Alcotest.test_case "deterministic-L sensitivity" `Slow
            test_mms_stpn_deterministic_memory_sensitivity;
          Alcotest.test_case "validation" `Quick test_mms_stpn_validation;
          Alcotest.test_case "recorded lines" `Quick test_mms_stpn_recorded_lines;
          Alcotest.test_case "allocation" `Quick test_mms_stpn_allocation;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "two-phase" `Quick test_invariants_two_phase;
          Alcotest.test_case "weighted law" `Quick test_invariants_weighted;
          Alcotest.test_case "discovers MMS structure" `Quick
            test_invariants_discover_mms_structure;
          Alcotest.test_case "row cap" `Quick test_invariants_row_cap;
          Alcotest.test_case "unbounded uncovered" `Quick
            test_invariants_unbounded_net_has_uncovered_place;
          Alcotest.test_case "T-semiflow ring" `Quick test_t_semiflows_cycle;
          Alcotest.test_case "T-semiflow MMS access cycle" `Quick
            test_t_semiflows_mms_access_cycle;
        ] );
      ( "properties",
        qcheck
          [ prop_invariant_detects_conservation; prop_simulation_conserves_ring_tokens ]
      );
    ]
