(* Tests for the resilient-solver supervisor, the fault-injection layer,
   and the solver hardening that underpins them: the zero-demand guard,
   NaN termination and the per-sweep observer hook. *)

open Lattol_core
open Lattol_queueing
open Lattol_robust

let close ?(eps = 1e-9) = Alcotest.(check (float eps))
let default = Params.default

(* ------------------------------------------------------------------ *)
(* Solver hardening (satellites: zero-demand guard, NaN termination) *)

(* [Network.make] rejects a populated zero-demand class, but
   [with_population] can populate one after the fact.  The solver must
   keep it inert instead of dividing pops by a zero cycle time. *)
let test_zero_demand_class_inert () =
  let nw =
    Network.make
      ~stations:[| ("cpu", Network.Queueing); ("disk", Network.Queueing) |]
      ~classes:
        [|
          {
            Network.class_name = "real";
            population = 2;
            visits = [| 1.; 0.5 |];
            service = [| 1.; 2. |];
          };
          {
            Network.class_name = "ghost";
            population = 0;
            visits = [| 0.; 0. |];
            service = [| 0.; 0. |];
          };
        |]
  in
  let nw = Network.with_population nw [| 2; 3 |] in
  let s = Amva.solve nw in
  Alcotest.(check bool) "converged" true s.Solution.converged;
  close "ghost throughput forced to 0" 0. s.Solution.throughput.(1);
  Alcotest.(check bool)
    "real throughput finite" true
    (Float.is_finite s.Solution.throughput.(0));
  Alcotest.(check bool)
    "real throughput positive" true (s.Solution.throughput.(0) > 0.);
  let lin = Linearizer.solve nw in
  close "linearizer ghost throughput 0" 0. lin.Solution.throughput.(1);
  Alcotest.(check bool)
    "linearizer real finite" true
    (Float.is_finite lin.Solution.throughput.(0))

(* Finite service times at the ends of the float range (1.7e308 and
   1e-300) pass [Network.make] but overflow the first sweeps' queue
   updates.  The solver must stop immediately with [converged = false]
   rather than declare victory (NaN deltas compare false against any
   threshold) or spin to the cap. *)
let test_nan_residual_terminates () =
  let nw =
    Network.make
      ~stations:[| ("huge", Network.Queueing); ("tiny", Network.Queueing) |]
      ~classes:
        [|
          {
            Network.class_name = "c";
            population = 50;
            visits = [| 1.; 1. |];
            service = [| 1.7e308; 1e-300 |];
          };
        |]
  in
  let s = Amva.solve nw in
  Alcotest.(check bool) "not converged" false s.Solution.converged;
  Alcotest.(check bool)
    "stopped on first sweeps, not the cap" true
    (s.Solution.iterations < 5)

(* A NaN damping fails every comparison, so a range check written as
   [d < 0. || d >= 1.] would let it through to poison the sweep. *)
let test_nan_damping_rejected () =
  Alcotest.check_raises "Amva" (Invalid_argument "Amva.solve: damping in [0, 1)")
    (fun () ->
      ignore
        (Amva.solve
           ~options:{ Amva.default_options with Amva.damping = Float.nan }
           (Mms.build_network default)));
  Alcotest.check_raises "symmetric solver"
    (Invalid_argument "Mms.solve_symmetric: damping in [0, 1)") (fun () ->
      ignore (Mms.solve_network ~damping:Float.nan default))

let test_on_sweep_abort () =
  let nw = Mms.build_network default in
  let options =
    {
      Amva.default_options with
      Amva.on_sweep =
        Some
          (fun ~iteration ~residual:_ ->
            if iteration >= 3 then Amva.Abort else Amva.Continue);
    }
  in
  let s = Amva.solve ~options nw in
  Alcotest.(check bool) "not converged" false s.Solution.converged;
  Alcotest.(check int) "aborted exactly at sweep 3" 3 s.Solution.iterations

(* ------------------------------------------------------------------ *)
(* Non-convergence propagation *)

let test_nonconvergence_propagates () =
  let sol = Mms.solve_network ~max_iterations:2 default in
  Alcotest.(check bool) "solution flag" false sol.Solution.converged;
  let m = Mms.measures_of_solution default sol in
  Alcotest.(check bool) "measures flag" false m.Measures.converged;
  let sol_gen =
    Mms.solve_network ~solver:Mms.General_amva ~max_iterations:2 default
  in
  Alcotest.(check bool) "general solver flag" false sol_gen.Solution.converged

(* ------------------------------------------------------------------ *)
(* Supervisor *)

let ill_conditioned = { default with Params.p_remote = 0.9; n_t = 10 }

let test_supervisor_clean_first_try () =
  match Supervisor.solve default with
  | Error _ -> Alcotest.fail "default params must converge"
  | Ok (m, d) ->
    Alcotest.(check bool) "converged" true m.Measures.converged;
    Alcotest.(check int) "no fallbacks" 0 d.Supervisor.fallbacks;
    Alcotest.(check int) "one attempt" 1 (List.length d.Supervisor.attempts);
    Alcotest.(check int)
      "no bound violations" 0
      (List.length d.Supervisor.violations);
    Alcotest.(check int) "exit code 0" 0
      (Supervisor.exit_code (Supervisor.outcome (Ok (m, d))));
    (* the supervised answer matches the unsupervised solver *)
    let direct = Mms.solve default in
    close ~eps:1e-9 "same u_p as direct solve" direct.Measures.u_p
      m.Measures.u_p

let test_supervisor_ladder_recovers () =
  (* base budget of 8 sweeps forces the early rungs to fail by iteration
     cap; the doubling ladder must still land on a converged rung. *)
  match Supervisor.solve ~base_iterations:8 ill_conditioned with
  | Error _ -> Alcotest.fail "ladder must recover"
  | Ok (m, d) ->
    Alcotest.(check bool) "converged" true m.Measures.converged;
    Alcotest.(check bool) "u_p finite" true (Float.is_finite m.Measures.u_p);
    Alcotest.(check bool) "fallbacks happened" true (d.Supervisor.fallbacks > 0);
    Alcotest.(check int)
      "attempt log complete"
      (d.Supervisor.fallbacks + 1)
      (List.length d.Supervisor.attempts);
    (* every failed attempt records a reason; the accepted one records none *)
    let rec check_reasons = function
      | [] -> Alcotest.fail "empty attempt log"
      | [ last ] ->
        Alcotest.(check bool) "accepted attempt converged" true
          last.Supervisor.converged;
        Alcotest.(check bool) "accepted attempt has no reason" true
          (last.Supervisor.reason = None)
      | a :: rest ->
        Alcotest.(check bool) "failed attempt has a reason" true
          (a.Supervisor.reason <> None);
        check_reasons rest
    in
    check_reasons d.Supervisor.attempts;
    Alcotest.(check int) "exit code 3" 3
      (Supervisor.exit_code (Supervisor.outcome (Ok (m, d))))

let test_supervisor_all_rungs_fail () =
  match
    Supervisor.solve ~solvers:[ Mms.Symmetric_amva ] ~dampings:[ 0. ]
      ~base_iterations:1 ill_conditioned
  with
  | Ok _ -> Alcotest.fail "one 1-sweep rung cannot converge"
  | Error d ->
    Alcotest.(check int) "single attempt" 1 (List.length d.Supervisor.attempts);
    Alcotest.(check int) "exit code 4" 4
      (Supervisor.exit_code (Supervisor.outcome (Error d)))

let test_supervisor_agrees_with_direct_solve () =
  (* The recovered ill-conditioned solution must agree with an unsupervised
     solve given a generous budget: the ladder changes how we get there,
     never the fixed point itself. *)
  let direct = Mms.solve ill_conditioned in
  match Supervisor.solve ~base_iterations:8 ill_conditioned with
  | Error _ -> Alcotest.fail "ladder must recover"
  | Ok (m, _) ->
    close ~eps:1e-6 "u_p agrees" direct.Measures.u_p m.Measures.u_p;
    close ~eps:1e-6 "lambda agrees" direct.Measures.lambda m.Measures.lambda

(* ------------------------------------------------------------------ *)
(* Fault plans *)

let test_fault_plan_validation () =
  let ok plan =
    Alcotest.(check bool) "valid" true (Result.is_ok (Fault_plan.validate plan))
  in
  let bad plan =
    Alcotest.(check bool) "invalid" true
      (Result.is_error (Fault_plan.validate plan))
  in
  ok Fault_plan.none;
  ok
    {
      Fault_plan.switch =
        Some (Fault_plan.process ~mtbf:100. ~mttr:10. ~degrade:0.);
      memory = None;
    };
  bad
    {
      Fault_plan.switch =
        Some { Fault_plan.mtbf = 0.; mttr = 10.; degrade = 0. };
      memory = None;
    };
  bad
    {
      Fault_plan.switch = None;
      memory = Some { Fault_plan.mtbf = 100.; mttr = -1.; degrade = 0. };
    };
  bad
    {
      Fault_plan.switch = None;
      memory = Some { Fault_plan.mtbf = 100.; mttr = 10.; degrade = 1.5 };
    };
  Alcotest.(check bool) "none inactive" false (Fault_plan.active Fault_plan.none)

let test_fault_plan_quasi_static () =
  let p = Fault_plan.process ~mtbf:900. ~mttr:100. ~degrade:0. in
  close "availability" 0.9 (Fault_plan.availability p);
  close ~eps:1e-9 "full-outage slowdown" (1. /. 0.9) (Fault_plan.slowdown p);
  let half = { p with Fault_plan.degrade = 0.5 } in
  close ~eps:1e-9 "half-speed slowdown" (1. /. 0.95) (Fault_plan.slowdown half);
  let plan = { Fault_plan.switch = Some p; memory = Some half } in
  let degraded = Fault_plan.degrade_params plan default in
  close ~eps:1e-9 "switch time inflated"
    (default.Params.s_switch /. 0.9)
    degraded.Params.s_switch;
  close ~eps:1e-9 "memory time inflated"
    (default.Params.l_mem /. 0.95)
    degraded.Params.l_mem;
  (* no plan leaves the parameters untouched *)
  let same = Fault_plan.degrade_params Fault_plan.none default in
  close "s_switch unchanged" default.Params.s_switch same.Params.s_switch;
  close "l_mem unchanged" default.Params.l_mem same.Params.l_mem

(* ------------------------------------------------------------------ *)
(* DES fault injection *)

open Lattol_sim

let small = { default with Params.k = 2; n_t = 2 }

let des_config ?(faults = Fault_plan.none) () =
  { Mms_des.default_config with Mms_des.horizon = 5_000.; faults }

let switch_outages =
  {
    Fault_plan.switch = Some (Fault_plan.process ~mtbf:500. ~mttr:50. ~degrade:0.);
    memory = None;
  }

let test_des_fault_injection () =
  let base = Mms_des.run ~config:(des_config ()) small in
  Alcotest.(check int) "no fault stats without a plan" 0
    (List.length base.Mms_des.faults);
  let faulty = Mms_des.run ~config:(des_config ~faults:switch_outages ()) small in
  Alcotest.(check int) "one faulty component class" 1
    (List.length faulty.Mms_des.faults);
  let fs = List.hd faulty.Mms_des.faults in
  Alcotest.(check string) "component" "switch" fs.Mms_des.component;
  Alcotest.(check bool) "failures observed" true (fs.Mms_des.failures > 0);
  Alcotest.(check bool) "downtime accrued" true (fs.Mms_des.downtime > 0.);
  (* unavailability should sit near the analytical 50 / 550 ~ 0.0909 *)
  Alcotest.(check bool)
    "unavailability plausible" true
    (fs.Mms_des.unavailability > 0.02 && fs.Mms_des.unavailability < 0.3);
  Alcotest.(check bool)
    "mean outage finite" true (Float.is_finite fs.Mms_des.mean_outage);
  Alcotest.(check bool)
    "faulty measures finite" true
    (Float.is_finite faulty.Mms_des.measures.Measures.u_p);
  Alcotest.(check bool)
    "outages cost utilization" true
    (faulty.Mms_des.measures.Measures.u_p < base.Mms_des.measures.Measures.u_p)

let test_des_fault_determinism () =
  let run () = Mms_des.run ~config:(des_config ~faults:switch_outages ()) small in
  let a = run () and b = run () in
  close "u_p reproducible" a.Mms_des.measures.Measures.u_p
    b.Mms_des.measures.Measures.u_p;
  let fa = List.hd a.Mms_des.faults and fb = List.hd b.Mms_des.faults in
  Alcotest.(check int) "failures reproducible" fa.Mms_des.failures
    fb.Mms_des.failures;
  close "downtime reproducible" fa.Mms_des.downtime fb.Mms_des.downtime

let test_des_degraded_service () =
  let plan =
    {
      Fault_plan.switch = None;
      memory = Some (Fault_plan.process ~mtbf:300. ~mttr:100. ~degrade:0.5);
    }
  in
  let r = Mms_des.run ~config:(des_config ~faults:plan ()) small in
  let fs = List.hd r.Mms_des.faults in
  Alcotest.(check string) "component" "memory" fs.Mms_des.component;
  Alcotest.(check bool) "failures observed" true (fs.Mms_des.failures > 0);
  Alcotest.(check bool)
    "measures finite under degradation" true
    (Float.is_finite r.Mms_des.measures.Measures.u_p);
  Alcotest.(check bool) "simulation still productive" true
    (r.Mms_des.measures.Measures.lambda > 0.)

(* ------------------------------------------------------------------ *)
(* Chaos injection plans *)

let rejects f =
  match f () with
  | _ -> Alcotest.fail "invalid plan accepted"
  | exception Invalid_argument _ -> ()

let test_chaos_plan_validation () =
  rejects (fun () -> Chaos.plan ~fail_rate:1.5 ());
  rejects (fun () -> Chaos.plan ~fail_rate:(-0.1) ());
  rejects (fun () -> Chaos.plan ~fail_attempts:(-1) ());
  rejects (fun () -> Chaos.plan ~delay:(-1.) ());
  Alcotest.(check bool) "none is inert" false (Chaos.active Chaos.none);
  Alcotest.(check bool) "a failure rate activates" true
    (Chaos.active (Chaos.plan ~fail_rate:0.5 ()));
  Alcotest.(check bool) "a delay alone activates" true
    (Chaos.active (Chaos.plan ~delay:0.001 ()))

let test_chaos_affected_deterministic () =
  let tasks = List.init 200 (fun i -> Printf.sprintf "p_remote=%d" i) in
  let hits plan = List.map (fun t -> Chaos.affected plan ~task:t) tasks in
  let p = Chaos.plan ~fail_rate:0.5 ~seed:7 () in
  Alcotest.(check (list bool))
    "pure in (seed, task): same plan, same set" (hits p) (hits p);
  let count l = List.length (List.filter Fun.id l) in
  let n = count (hits p) in
  Alcotest.(check bool) "rate 0.5 hits some" true (n > 0);
  Alcotest.(check bool) "rate 0.5 spares some" true (n < 200);
  Alcotest.(check bool) "a different seed picks a different set" true
    (hits p <> hits (Chaos.plan ~fail_rate:0.5 ~seed:8 ()));
  Alcotest.(check int) "rate 1 hits everything" 200
    (count (hits (Chaos.plan ~fail_rate:1. ())));
  Alcotest.(check int) "rate 0 hits nothing" 0 (count (hits Chaos.none))

let test_chaos_inject_recovers () =
  (* An affected task fails attempts 1..fail_attempts, then succeeds —
     the contract that makes [retries > fail_attempts] always recover. *)
  let p = Chaos.plan ~fail_rate:1. ~fail_attempts:2 () in
  let faulted attempt =
    match Chaos.inject p ~task:"t" ~attempt with
    | () -> false
    | exception Chaos.Injected_fault _ -> true
  in
  Alcotest.(check bool) "attempt 1 faults" true (faulted 1);
  Alcotest.(check bool) "attempt 2 faults" true (faulted 2);
  Alcotest.(check bool) "attempt 3 clears" false (faulted 3);
  (* An unaffected task is never touched, whatever the attempt. *)
  let spared = Chaos.plan ~fail_rate:0. ~fail_attempts:9 () in
  Alcotest.(check bool) "inert plan injects nothing" false
    (match Chaos.inject spared ~task:"t" ~attempt:1 with
    | () -> false
    | exception Chaos.Injected_fault _ -> true)

(* ------------------------------------------------------------------ *)
(* Retry policies *)

let test_retry_policy_validation () =
  rejects (fun () -> Retry.policy ~max_attempts:0 ());
  rejects (fun () -> Retry.policy ~base_delay:(-0.1) ());
  rejects (fun () -> Retry.policy ~base_delay:0.5 ~max_delay:0.1 ());
  rejects (fun () -> Retry.policy ~jitter:(-1.) ())

let test_retry_delay_deterministic_and_bounded () =
  let p = Retry.policy ~base_delay:0.05 ~max_delay:0.4 ~jitter:0.5 () in
  let distinct = ref false in
  for attempt = 1 to 8 do
    let rung =
      Float.min 0.4 (0.05 *. Float.pow 2. (float_of_int (attempt - 1)))
    in
    for salt = 0 to 15 do
      let d = Retry.delay p ~attempt ~salt in
      Alcotest.(check (float 0.))
        "deterministic in (salt, attempt)" d
        (Retry.delay p ~attempt ~salt);
      Alcotest.(check bool) "at least the rung" true (d >= rung);
      Alcotest.(check bool) "at most rung * (1 + jitter)" true
        (d <= rung *. 1.5);
      if salt > 0 && d <> Retry.delay p ~attempt ~salt:0 then distinct := true
    done
  done;
  Alcotest.(check bool) "jitter desynchronizes salts" true !distinct;
  (* jitter 0 collapses to the bare exponential rung, capped. *)
  let bare = Retry.policy ~base_delay:0.05 ~max_delay:0.4 ~jitter:0. () in
  Alcotest.(check (float 1e-12)) "first rung" 0.05
    (Retry.delay bare ~attempt:1 ~salt:3);
  Alcotest.(check (float 1e-12)) "doubling" 0.1
    (Retry.delay bare ~attempt:2 ~salt:3);
  Alcotest.(check (float 1e-12)) "capped" 0.4
    (Retry.delay bare ~attempt:8 ~salt:3)

let test_retry_classify_defaults () =
  let t e = Retry.default_classify e = Retry.Transient in
  Alcotest.(check bool) "injected fault transient" true
    (t (Chaos.Injected_fault "x"));
  Alcotest.(check bool) "deadline transient" true (t Retry.Deadline_exceeded);
  Alcotest.(check bool) "flaky I/O transient" true (t (Sys_error "eio"));
  Alcotest.(check bool) "unix error transient" true
    (t (Unix.Unix_error (Unix.EIO, "read", "")));
  Alcotest.(check bool) "Failure fatal" false (t (Failure "deterministic"));
  Alcotest.(check bool) "Invalid_argument fatal" false
    (t (Invalid_argument "bad"))

let test_retry_deadline_expires () =
  let d = Retry.start ~timeout:0.005 in
  Alcotest.(check bool) "fresh deadline unexpired" false (Retry.expired d);
  Retry.check d;
  Retry.sleep 0.02;
  Alcotest.(check bool) "expired after its timeout" true (Retry.expired d);
  match Retry.check d with
  | () -> Alcotest.fail "check passed an expired deadline"
  | exception Retry.Deadline_exceeded -> ()

(* ------------------------------------------------------------------ *)
(* STPN quasi-static mirror *)

let test_stpn_quasi_static_faults () =
  let plan =
    {
      Fault_plan.switch = None;
      memory = Some (Fault_plan.process ~mtbf:900. ~mttr:100. ~degrade:0.);
    }
  in
  let r = Lattol_petri.Mms_stpn.run ~horizon:2_000. ~faults:plan small in
  close ~eps:1e-9 "layout carries degraded L"
    (small.Params.l_mem /. 0.9)
    r.Lattol_petri.Mms_stpn.layout.Lattol_petri.Mms_stpn.params.Params.l_mem;
  Alcotest.(check bool)
    "measures finite" true
    (Float.is_finite r.Lattol_petri.Mms_stpn.measures.Measures.u_p)

(* ------------------------------------------------------------------ *)

let () =
  (* keep solver warnings (expected in several tests) off the test output *)
  Logs.set_level (Some Logs.Error);
  Alcotest.run "robust"
    [
      ( "hardening",
        [
          Alcotest.test_case "zero-demand class stays inert" `Quick
            test_zero_demand_class_inert;
          Alcotest.test_case "NaN residual terminates" `Quick
            test_nan_residual_terminates;
          Alcotest.test_case "NaN damping rejected" `Quick
            test_nan_damping_rejected;
          Alcotest.test_case "on_sweep abort" `Quick test_on_sweep_abort;
          Alcotest.test_case "non-convergence propagates" `Quick
            test_nonconvergence_propagates;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "clean first try" `Quick
            test_supervisor_clean_first_try;
          Alcotest.test_case "ladder recovers" `Quick
            test_supervisor_ladder_recovers;
          Alcotest.test_case "all rungs fail" `Quick
            test_supervisor_all_rungs_fail;
          Alcotest.test_case "agrees with direct solve" `Quick
            test_supervisor_agrees_with_direct_solve;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "plan validation" `Quick test_chaos_plan_validation;
          Alcotest.test_case "affected set deterministic" `Quick
            test_chaos_affected_deterministic;
          Alcotest.test_case "inject recovers past fail_attempts" `Quick
            test_chaos_inject_recovers;
        ] );
      ( "retry",
        [
          Alcotest.test_case "policy validation" `Quick
            test_retry_policy_validation;
          Alcotest.test_case "delay deterministic and bounded" `Quick
            test_retry_delay_deterministic_and_bounded;
          Alcotest.test_case "default classification" `Quick
            test_retry_classify_defaults;
          Alcotest.test_case "deadline expires" `Quick
            test_retry_deadline_expires;
        ] );
      ( "faults",
        [
          Alcotest.test_case "plan validation" `Quick test_fault_plan_validation;
          Alcotest.test_case "quasi-static math" `Quick
            test_fault_plan_quasi_static;
          Alcotest.test_case "DES injection" `Quick test_des_fault_injection;
          Alcotest.test_case "DES determinism" `Quick test_des_fault_determinism;
          Alcotest.test_case "DES degraded service" `Quick
            test_des_degraded_service;
          Alcotest.test_case "STPN quasi-static" `Quick
            test_stpn_quasi_static_faults;
        ] );
    ]
