(* Telemetry layer: metrics registry, span tracer, solver telemetry and the
   latency-breakdown profiler, including the DES cross-checks. *)

open Lattol_obs
open Lattol_core
open Lattol_sim

let check_float = Alcotest.(check (float 1e-9))

let close ~eps name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %g, got %g" name expected actual

let read_file file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_temp_file f =
  let file = Filename.temp_file "lattol_obs" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_instruments () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "events" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter" 5 (Metrics.counter_value c);
  let g = Metrics.gauge reg "u_p" in
  Metrics.set_gauge g 0.25;
  Metrics.set_gauge g 0.75;
  check_float "gauge keeps last" 0.75 (Metrics.gauge_value g);
  let h = Metrics.histogram reg ~hi:10. ~bins:10 "lat" in
  List.iter (Metrics.record h) [ 0.5; 1.5; 2.5 ];
  Alcotest.(check int) "histogram count" 3
    (Lattol_stats.Histogram.count (Metrics.histogram_data h));
  Alcotest.(check int) "size" 3 (Metrics.size reg)

let test_metrics_duplicate_rejected () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg ~labels:[ ("station", "mem0") ] "util");
  (* same name, different labels: a distinct series, accepted *)
  ignore (Metrics.counter reg ~labels:[ ("station", "mem1") ] "util");
  Alcotest.(check bool) "exact duplicate rejected" true
    (try
       ignore (Metrics.counter reg ~labels:[ ("station", "mem0") ] "util");
       false
     with Invalid_argument _ -> true)

let test_metrics_sinks () =
  let reg = Metrics.create () in
  Metrics.set_gauge (Metrics.gauge reg "u_p") 0.5;
  Metrics.incr ~by:7 (Metrics.counter reg ~labels:[ ("node", "3") ] "hits");
  let h = Metrics.histogram reg ~hi:4. ~bins:4 "lat" in
  List.iter (Metrics.record h) [ 0.5; 1.5; 2.5; 9. ];
  with_temp_file (fun file ->
      let oc = open_out file in
      Metrics.write_json reg oc;
      close_out oc;
      let json = read_file file in
      Alcotest.(check bool) "json document" true
        (String.length json > 0 && json.[0] = '{');
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true (contains ~needle json))
        [
          "\"name\":\"u_p\"";
          "\"value\":0.5";
          "\"labels\":{\"node\":\"3\"}";
          "\"value\":7";
          "\"type\":\"histogram\"";
          "\"overflow\":1";
        ]);
  with_temp_file (fun file ->
      let oc = open_out file in
      Metrics.write_csv reg oc;
      close_out oc;
      let csv = read_file file in
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true (contains ~needle csv))
        [
          "name,labels,type,field,value";
          "u_p,,gauge,value,0.5";
          "hits,node=3,counter,value,7";
          "lat,,histogram,count,4";
        ])

(* ------------------------------------------------------------------ *)
(* Metrics snapshots *)

let test_snapshot_point_in_time () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "events" in
  let h = Metrics.histogram reg ~hi:10. ~bins:5 "lat" in
  Metrics.incr ~by:3 c;
  Metrics.record h 1.;
  let snap = Metrics.snapshot reg in
  (* The snapshot is plain data: later updates must not leak into it. *)
  Metrics.incr ~by:100 c;
  Metrics.record h 2.;
  (match snap with
  | [ { Metrics.s_value = Metrics.Counter_v v; _ };
      { Metrics.s_value = Metrics.Hist_v (hd, _); _ } ] ->
    Alcotest.(check int) "counter frozen" 3 v;
    Alcotest.(check int) "histogram frozen" 1 (Lattol_stats.Histogram.count hd)
  | _ -> Alcotest.fail "unexpected snapshot shape");
  Alcotest.(check string) "snapshot renders like the sink"
    (with_temp_file (fun file ->
         let oc = open_out file in
         Metrics.write_json reg oc;
         close_out oc;
         read_file file))
    (Metrics.json_of_snapshot (Metrics.snapshot reg))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------------------------ *)
(* Events *)

let test_events_capacity () =
  let t = Events.create ~capacity:2 () in
  for i = 0 to 4 do
    Events.emit t ~track:0 ~name:"compute" ~t0:(float_of_int i) 1.
  done;
  Alcotest.(check int) "buffered" 2 (Events.count t);
  Alcotest.(check int) "dropped" 3 (Events.dropped t);
  let seen = ref 0 in
  Events.iter t (fun s ->
      incr seen;
      Alcotest.(check string) "name" "compute" s.Events.name);
  Alcotest.(check int) "iter covers buffer" 2 !seen

let test_events_chrome_format () =
  let t = Events.create () in
  Events.name_process t 0 "node0";
  Events.name_track t ~pid:0 1 "thread1";
  Events.emit t ~pid:0 ~cat:"proc" ~track:1 ~name:"compute" ~t0:2.5 1.5;
  with_temp_file (fun file ->
      let oc = open_out file in
      Events.write_chrome t oc;
      close_out oc;
      let json = read_file file in
      Alcotest.(check bool) "header" true
        (String.length json > 16 && String.sub json 0 16 = "{\"traceEvents\":[");
      Alcotest.(check bool) "footer" true
        (contains ~needle:"],\"displayTimeUnit\":\"ms\"}" json);
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true (contains ~needle json))
        [
          "\"ph\":\"M\"";
          "\"name\":\"process_name\"";
          "\"ph\":\"X\"";
          "\"ts\":2.5";
          "\"dur\":1.5";
        ])

(* ------------------------------------------------------------------ *)
(* Causal trace contexts *)

let test_trace_ctx_tree () =
  let r = Trace_ctx.create ~root:"unit test!" () in
  Alcotest.(check string) "root name" "unit test!" (Trace_ctx.root_name r);
  Alcotest.(check bool) "trace id sanitized" true
    (String.length (Trace_ctx.trace_id r) > 9
    && String.sub (Trace_ctx.trace_id r) 0 9 = "unit-test");
  let root = Trace_ctx.root_ctx r in
  Alcotest.(check bool) "enabled" true (Trace_ctx.enabled root);
  let h = Trace_ctx.start ~point:"grid/3" ~cat:"point" ~name:"n_t=3" root in
  let pctx = Trace_ctx.ctx_of h in
  Alcotest.(check string) "point rescoped" "grid/3" (Trace_ctx.point pctx);
  Alcotest.(check string) "exemplar id" (Trace_ctx.trace_id r ^ "/grid/3")
    (Trace_ctx.point_trace_id pctx);
  Trace_ctx.with_span ~cat:"solve" ~name:"solve" pctx (fun sctx ->
      Trace_ctx.record_since ~cat:"solve" ~name:"residual" sctx);
  Trace_ctx.record_since ~cat:"queue" ~name:"queue-wait" pctx;
  Trace_ctx.finish ~meta:[ ("k", "v") ] h;
  Trace_ctx.finish h (* idempotent: must not double-buffer *);
  Trace_ctx.seal r;
  Trace_ctx.seal r;
  let spans = Trace_ctx.spans r in
  Alcotest.(check int) "span count" 5 (List.length spans);
  Alcotest.(check int) "count agrees" 5 (Trace_ctx.count r);
  Alcotest.(check int) "nothing dropped" 0 (Trace_ctx.dropped r);
  let by_name n =
    List.find (fun (s : Trace_ctx.span) -> s.name = n) spans
  in
  let root_s = by_name "unit test!"
  and point_s = by_name "n_t=3"
  and solve_s = by_name "solve"
  and leaf_s = by_name "residual" in
  Alcotest.(check int) "root id" 1 root_s.id;
  Alcotest.(check int) "root parentless" 0 root_s.parent;
  Alcotest.(check int) "point under root" root_s.id point_s.parent;
  Alcotest.(check int) "solve under point" point_s.id solve_s.parent;
  Alcotest.(check int) "leaf under solve" solve_s.id leaf_s.parent;
  Alcotest.(check string) "point inherited" "grid/3" leaf_s.point;
  Alcotest.(check string) "run-level span has no point" "" root_s.point;
  Alcotest.(check (list (pair string string))) "meta kept" [ ("k", "v") ]
    point_s.meta;
  List.iter
    (fun (s : Trace_ctx.span) ->
      Alcotest.(check bool) (s.name ^ " duration non-negative") true
        (Int64.compare s.dur_ns 0L >= 0))
    spans;
  (* children nest within the parent's interval *)
  let within (c : Trace_ctx.span) (p : Trace_ctx.span) =
    Int64.compare c.t0_ns p.t0_ns >= 0
    && Int64.compare (Int64.add c.t0_ns c.dur_ns)
         (Int64.add p.t0_ns p.dur_ns)
       <= 0
  in
  Alcotest.(check bool) "solve within point" true (within solve_s point_s);
  Alcotest.(check bool) "point within root" true (within point_s root_s)

let test_trace_ctx_disabled () =
  Alcotest.(check bool) "disabled" false (Trace_ctx.enabled Trace_ctx.disabled);
  Alcotest.(check string) "no exemplar id" ""
    (Trace_ctx.point_trace_id Trace_ctx.disabled);
  Alcotest.(check bool) "opened_ns zero (no clock read)" true
    (Int64.equal 0L (Trace_ctx.opened_ns Trace_ctx.disabled));
  let h = Trace_ctx.start ~cat:"solve" ~name:"x" Trace_ctx.disabled in
  Trace_ctx.finish h;
  Trace_ctx.record_since ~name:"y" Trace_ctx.disabled;
  Trace_ctx.with_span ~name:"z" Trace_ctx.disabled (fun c ->
      Alcotest.(check bool) "child stays disabled" false (Trace_ctx.enabled c))

let test_trace_ctx_capacity () =
  let r = Trace_ctx.create ~capacity:3 ~root:"tiny" () in
  let ctx = Trace_ctx.root_ctx r in
  for i = 1 to 5 do
    Trace_ctx.record_since ~name:(string_of_int i) ctx
  done;
  Alcotest.(check int) "buffer clamped" 3 (Trace_ctx.count r);
  Alcotest.(check int) "overflow counted" 2 (Trace_ctx.dropped r)

(* ------------------------------------------------------------------ *)
(* Critical-path report *)

let test_trace_report_reconciles () =
  let r = Trace_ctx.create ~root:"report" () in
  let root = Trace_ctx.root_ctx r in
  (* Spans mirror the sweep's shape: queue-wait measured from the point
     span's open, solve nested inside it.  Real (small) sleeps make the
     verdicts deterministic; reconciliation is exact by construction. *)
  let mk_point ~point ~label ~queue_s ~solve_s =
    let h = Trace_ctx.start ~point ~cat:"point" ~name:label root in
    let pctx = Trace_ctx.ctx_of h in
    Unix.sleepf queue_s;
    Trace_ctx.record_since ~cat:"queue" ~name:"queue-wait" pctx;
    Trace_ctx.with_span ~cat:"solve" ~name:"solve" pctx (fun _ ->
        Unix.sleepf solve_s);
    Trace_ctx.finish h
  in
  (* natural order must put grid/9 before grid/10; walls of ~41 ms and
     ~13 ms, so sleep jitter cannot reorder them *)
  mk_point ~point:"grid/10" ~label:"n_t=10" ~queue_s:0.001 ~solve_s:0.040;
  mk_point ~point:"grid/9" ~label:"n_t=9" ~queue_s:0.012 ~solve_s:0.001;
  (* A batched checkpoint commit serves a whole chunk, so it hangs off
     the run, under no point. *)
  Trace_ctx.with_span ~cat:"journal" ~name:"append-batch" root (fun _ ->
      Unix.sleepf 0.002);
  Trace_ctx.seal r;
  let rep = Trace_report.analyze r in
  Alcotest.(check (list string)) "natural point order" [ "grid/9"; "grid/10" ]
    (List.map (fun p -> p.Trace_report.point) rep.Trace_report.r_points);
  List.iter
    (fun (p : Trace_report.point_report) ->
      close ~eps:1e-4 (p.point ^ " reconciles") p.wall_ms
        (p.queue_ms +. p.cache_ms +. p.solve_ms +. p.journal_ms +. p.other_ms))
    rep.Trace_report.r_points;
  (match rep.Trace_report.r_points with
  | [ nine; ten ] ->
    Alcotest.(check string) "queue-bound point" "queue" nine.verdict;
    Alcotest.(check string) "solve-bound point" "solve" ten.verdict;
    Alcotest.(check string) "exemplar ids carried"
      (Trace_ctx.trace_id r ^ "/grid/9")
      nine.Trace_report.p_trace_id;
    Alcotest.(check bool) "critical path starts at the point span" true
      (match ten.Trace_report.critical_path with
      | top :: _ -> top.Trace_report.s_name = "n_t=10"
      | [] -> false)
  | ps -> Alcotest.failf "expected 2 points, got %d" (List.length ps));
  (* slowest: wall is dominated by the 40ms solve *)
  (match Trace_report.slowest 1 rep with
  | [ p ] -> Alcotest.(check string) "slowest" "grid/10" p.Trace_report.point
  | _ -> Alcotest.fail "slowest 1 should yield one point");
  Alcotest.(check int) "one run-level journal span" 1
    rep.Trace_report.r_run_journal_spans;
  Alcotest.(check bool) "run-level journal time reported" true
    (rep.Trace_report.r_run_journal_ms >= 2.);
  Alcotest.(check (float 0.)) "run-level journal stays out of the TOTAL row"
    0. rep.Trace_report.r_journal_ms;
  let table = Buffer.create 512 in
  Trace_report.pp_table table rep;
  Alcotest.(check bool) "run-level journal line" true
    (contains ~needle:"\nrun-level journal: " (Buffer.contents table)
    && contains ~needle:" ms in 1 spans\n" (Buffer.contents table));
  let b = Buffer.create 512 in
  Trace_report.to_json b rep;
  let json = Buffer.contents b in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains ~needle json))
    [
      "\"schema\":\"lattol-trace/1\"";
      "\"verdict\"";
      "\"critical_path\"";
      "\"cache_wait_ms\"";
      "\"run_journal_ms\":";
      "\"run_journal_spans\":1";
    ]

let test_trace_report_nested_claim () =
  (* The pool's traced path hangs a chunk's claim span off its first
     point, beside that point's queue-wait and inside the wait's
     interval: a slow (5 ms) claim must be counted once. *)
  let r = Trace_ctx.create ~root:"claim" () in
  let h =
    Trace_ctx.start ~point:"grid/0" ~cat:"point" ~name:"n_t=1"
      (Trace_ctx.root_ctx r)
  in
  let pctx = Trace_ctx.ctx_of h in
  Unix.sleepf 0.001;
  let t0 = Trace_ctx.now_ns () in
  Unix.sleepf 0.005;
  Trace_ctx.record_interval ~cat:"queue" ~name:"chunk-claim" ~t0_ns:t0 pctx;
  Trace_ctx.record_since ~cat:"queue" ~name:"queue-wait" pctx;
  Trace_ctx.with_span ~cat:"solve" ~name:"solve" pctx (fun _ ->
      Unix.sleepf 0.001);
  Trace_ctx.finish h;
  Trace_ctx.seal r;
  match (Trace_report.analyze r).Trace_report.r_points with
  | [ p ] ->
    close ~eps:0.01 "claim inside the wait reconciles" p.wall_ms
      (p.queue_ms +. p.cache_ms +. p.solve_ms +. p.journal_ms +. p.other_ms)
  | ps -> Alcotest.failf "expected 1 point, got %d" (List.length ps)

let test_trace_report_live_probe () =
  (* analyze must not seal: a live probe mid-run sees elapsed-so-far and
     the recorder keeps accepting spans afterwards. *)
  let r = Trace_ctx.create ~root:"live" () in
  let ctx = Trace_ctx.root_ctx r in
  Trace_ctx.record_since ~cat:"solve" ~name:"early" ctx;
  let rep = Trace_report.analyze r in
  Alcotest.(check bool) "elapsed-so-far wall" true
    (rep.Trace_report.r_wall_ms >= 0.);
  Trace_ctx.record_since ~cat:"solve" ~name:"late" ctx;
  Alcotest.(check int) "recorder still open" 2 (Trace_ctx.count r)

(* ------------------------------------------------------------------ *)
(* Histogram exemplars *)

let test_histogram_exemplars () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg ~hi:10. ~bins:10 "lat" in
  Metrics.record ~exemplar:"t/1" h 2.5;
  Metrics.record ~exemplar:"t/2" h 2.6 (* same bucket: last write wins *);
  Metrics.record ~exemplar:"t/over" h 99. (* overflow cell *);
  Metrics.record h 7.5 (* no exemplar: cell stays empty *);
  match Metrics.snapshot reg with
  | [ { Metrics.s_value = Metrics.Hist_v (_, cells); _ } ] ->
    Alcotest.(check int) "bins + under/overflow cells" 12 (Array.length cells);
    (match cells.(2) with
    | Some e ->
      Alcotest.(check string) "last write wins" "t/2" e.Metrics.e_trace;
      close ~eps:1e-9 "exemplar value" 2.6 e.Metrics.e_value
    | None -> Alcotest.fail "bucket 2 should carry an exemplar");
    (match cells.(11) with
    | Some e -> Alcotest.(check string) "overflow exemplar" "t/over" e.Metrics.e_trace
    | None -> Alcotest.fail "overflow cell should carry an exemplar");
    Alcotest.(check bool) "unexemplared bucket empty" true (cells.(7) = None)
  | _ -> Alcotest.fail "expected one histogram series"

(* ------------------------------------------------------------------ *)
(* Structured logging *)

let test_log_jsonl () =
  with_temp_file (fun file ->
      let oc = open_out file in
      Log.set_channel oc;
      Log.set_level (Some Log.Info);
      Fun.protect
        ~finally:(fun () ->
          Log.set_level None;
          Log.set_channel stderr;
          close_out oc)
        (fun () ->
          Alcotest.(check bool) "info enabled" true (Log.enabled Log.Info);
          Alcotest.(check bool) "debug gated" false (Log.enabled Log.Debug);
          Log.infof ~fields:[ ("solver", "amva") ] ~src:"lattol.test"
            "rung %d" 2;
          Log.debugf ~src:"lattol.test" "suppressed %s" "line";
          Log.errorf ~src:"lattol.test" "with \"quotes\"");
      let lines =
        String.split_on_char '\n' (read_file file)
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "debug suppressed" 2 (List.length lines);
      let first = List.nth lines 0 in
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true (contains ~needle first))
        [
          "\"level\":\"info\"";
          "\"src\":\"lattol.test\"";
          "\"msg\":\"rung 2\"";
          "\"solver\":\"amva\"";
        ];
      Alcotest.(check bool) "quotes escaped" true
        (contains ~needle:"with \\\"quotes\\\"" (List.nth lines 1)));
  Alcotest.(check bool) "level restored" true (Log.level () = None)

(* ------------------------------------------------------------------ *)
(* Solver trace *)

let test_solver_trace_supervised_converged () =
  let tel = Solver_trace.create () in
  (match Lattol_robust.Supervisor.solve ~telemetry:tel Params.default with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "default config should converge");
  match Solver_trace.attempts tel with
  | [ a ] ->
    Alcotest.(check string) "solver" "symmetric" a.Solver_trace.solver;
    Alcotest.(check bool) "converged" true a.Solver_trace.converged;
    Alcotest.(check bool) "residuals recorded" true
      (a.Solver_trace.samples <> []);
    Alcotest.(check bool) "iterations recorded" true
      (a.Solver_trace.iterations > 0);
    (* residual trajectory eventually decreases *)
    let residuals =
      List.map (fun s -> s.Solver_trace.residual) a.Solver_trace.samples
    in
    Alcotest.(check bool) "trajectory shrinks" true
      (List.nth residuals (List.length residuals - 1) < List.hd residuals)
  | l -> Alcotest.failf "expected 1 attempt, got %d" (List.length l)

let test_solver_trace_escalation () =
  let tel = Solver_trace.create () in
  (* A 2-sweep budget cannot converge: the single rung fails and the
     ladder exhausts. *)
  (match
     Lattol_robust.Supervisor.solve ~solvers:[ Mms.General_amva ]
       ~dampings:[ 0. ] ~base_iterations:2 ~telemetry:tel Params.default
   with
  | Ok _ -> Alcotest.fail "2-sweep budget should fail"
  | Error _ -> ());
  match Solver_trace.attempts tel with
  | [ a ] ->
    Alcotest.(check bool) "not converged" false a.Solver_trace.converged;
    Alcotest.(check (option string)) "reason" (Some "iteration cap")
      a.Solver_trace.reason;
    Alcotest.(check int) "budget" 2 a.Solver_trace.budget
  | l -> Alcotest.failf "expected 1 attempt, got %d" (List.length l)

let test_solver_trace_direct_api () =
  let tel = Solver_trace.create ~sample_capacity:2 () in
  Solver_trace.start_attempt tel ~solver:"amva" ~damping:0.5 ();
  Solver_trace.record tel ~iteration:1 ~residual:1.0;
  Solver_trace.record tel ~iteration:2 ~residual:0.5;
  Solver_trace.record tel ~iteration:3 ~residual:0.25;
  (* a second start closes the dangling first attempt *)
  Solver_trace.start_attempt tel ~solver:"linearizer" ~damping:0.9 ();
  Solver_trace.finish_attempt tel ~converged:true ~iterations:4;
  (match Solver_trace.attempts tel with
  | [ a; b ] ->
    Alcotest.(check (option string)) "superseded" (Some "superseded")
      a.Solver_trace.reason;
    Alcotest.(check int) "cap kept 2 samples" 2
      (List.length a.Solver_trace.samples);
    Alcotest.(check int) "1 dropped" 1 a.Solver_trace.dropped;
    Alcotest.(check bool) "second converged" true b.Solver_trace.converged
  | l -> Alcotest.failf "expected 2 attempts, got %d" (List.length l));
  with_temp_file (fun file ->
      let oc = open_out file in
      Solver_trace.write_csv tel oc;
      close_out oc;
      let csv = read_file file in
      Alcotest.(check bool) "csv has samples" true
        (contains ~needle:"1,,amva,0.5,1,1" csv))

(* ------------------------------------------------------------------ *)
(* Latency profile *)

let test_profile_summary_math () =
  let t = Events.create () in
  let e name t0 dur = Events.emit t ~track:0 ~name ~t0 dur in
  e "compute" 0. 4.;
  e "memory-queue" 4. 1.;
  e "memory-service" 5. 2.;
  e "compute" 7. 4.;
  e "switch-queue" 11. 1.;
  e "network-transit" 12. 2.;
  e "network-trip" 11. 3.;
  let summary =
    Latency_profile.summarize
      (Latency_profile.of_events t)
      ~processors:1 ~span_time:20.
  in
  Alcotest.(check int) "cycles" 2 summary.Latency_profile.cycles;
  check_float "u_p" 0.4 summary.Latency_profile.u_p;
  check_float "lambda" 0.1 summary.Latency_profile.lambda;
  check_float "s_obs" 3. summary.Latency_profile.s_obs;
  check_float "l_obs" 3. summary.Latency_profile.l_obs;
  (* shares: denominator excludes the trip span (it re-counts switches) *)
  let row c =
    List.find
      (fun r -> r.Latency_profile.component = c)
      summary.Latency_profile.rows
  in
  check_float "compute share" (8. /. 14.)
    (row Latency_profile.Compute).Latency_profile.share;
  check_float "transit share" (2. /. 14.)
    (row Latency_profile.Network_transit).Latency_profile.share;
  Alcotest.(check bool) "trip not a row" true
    (not
       (List.exists
          (fun r -> r.Latency_profile.component = Latency_profile.Network_trip)
          summary.Latency_profile.rows))

let test_profile_tolerance_check () =
  let check =
    Latency_profile.check_tolerance ~u_p:(0.8, 0.05) ~u_p_ideal:(1.0, 0.05)
      ~analytical:0.85
  in
  check_float "tol" 0.8 check.Latency_profile.tol;
  close ~eps:1e-3 "error propagation" 0.064 check.Latency_profile.tol_half;
  Alcotest.(check bool) "within" true check.Latency_profile.within_ci;
  let check =
    Latency_profile.check_tolerance ~u_p:(0.8, 0.05) ~u_p_ideal:(1.0, 0.05)
      ~analytical:0.9
  in
  Alcotest.(check bool) "outside" false check.Latency_profile.within_ci

let test_profile_from_des_matches_measures () =
  let p = { Params.default with Params.k = 2; n_t = 2 } in
  let trace = Events.create () in
  let horizon = 10_000. in
  let cfg =
    { Mms_des.default_config with Mms_des.horizon; trace = Some trace }
  in
  let r = Mms_des.run ~config:cfg p in
  Alcotest.(check int) "no spans dropped" 0 (Events.dropped trace);
  let summary =
    Latency_profile.summarize
      (Latency_profile.of_events trace)
      ~processors:(Params.num_processors p)
      ~span_time:horizon
  in
  let m = r.Mms_des.measures in
  (* The span-derived breakdown reproduces the simulator's own estimates:
     S_obs exactly (same samples), U_p and lambda up to window-edge
     effects. *)
  close ~eps:1e-9 "s_obs identical" m.Measures.s_obs
    summary.Latency_profile.s_obs;
  close ~eps:0.05 "u_p" m.Measures.u_p summary.Latency_profile.u_p;
  close ~eps:0.05 "lambda" m.Measures.lambda summary.Latency_profile.lambda;
  close ~eps:0.2 "l_obs" m.Measures.l_obs summary.Latency_profile.l_obs

let test_des_metrics_registry () =
  let p = { Params.default with Params.k = 2; n_t = 2 } in
  let reg = Metrics.create () in
  let cfg =
    {
      Mms_des.default_config with
      Mms_des.horizon = 2_000.;
      metrics = Some reg;
    }
  in
  ignore (Mms_des.run ~config:cfg p);
  (* headline gauges + counters + trip histogram + per-station families
     (4 nodes x 4 station kinds x 2 series) *)
  Alcotest.(check bool) "registry populated" true (Metrics.size reg > 30);
  with_temp_file (fun file ->
      let oc = open_out file in
      Metrics.write_json reg oc;
      close_out oc;
      let json = read_file file in
      List.iter
        (fun needle ->
          Alcotest.(check bool) needle true (contains ~needle json))
        [
          "\"name\":\"u_p\"";
          "\"name\":\"trip_time\"";
          "\"station\":\"mem0\"";
          "\"name\":\"station_queue\"";
        ])

let test_network_sim_trace () =
  let nw =
    Lattol_queueing.Network.make
      ~stations:
        [|
          ("cpu", Lattol_queueing.Network.Queueing);
          ("think", Lattol_queueing.Network.Delay);
        |]
      ~classes:
        [|
          {
            Lattol_queueing.Network.class_name = "jobs";
            population = 3;
            visits = [| 1.; 1. |];
            service = [| 0.5; 2. |];
          };
        |]
  in
  let trace = Events.create () in
  ignore (Network_sim.run ~warmup:50. ~horizon:500. ~trace nw);
  Alcotest.(check bool) "spans recorded" true (Events.count trace > 0);
  let names = Hashtbl.create 8 in
  Events.iter trace (fun s -> Hashtbl.replace names s.Events.name ());
  Alcotest.(check bool) "cpu service spans" true (Hashtbl.mem names "cpu");
  Alcotest.(check bool) "delay spans" true (Hashtbl.mem names "think")


(* ------------------------------------------------------------------ *)
(* Attribution: the profiler's bucket fold over synthetic streams *)

let ev ring at_ns kind = { Attribution.ring; at_ns; kind }

let split_sum (s : Attribution.split) =
  Int64.add s.Attribution.gc_ns
    (Int64.add s.Attribution.compute_ns
       (Int64.add s.Attribution.idle_ns s.Attribution.spawn_ns))

let check_ns name expected (actual : int64) =
  Alcotest.(check int64) name expected actual

let test_attr_partition () =
  (* One ring, window [0,1000]: worker [100,900], task [200,600], one GC
     pause inside the task [300,400] and one between tasks [700,750].
     Every bucket is hand-computable and the four must sum to wall. *)
  let st = Attribution.create () in
  Attribution.feed_list st
    [
      ev 0 100L Attribution.Worker_begin;
      ev 0 200L Attribution.Task_begin;
      ev 0 300L Attribution.Gc_begin;
      ev 0 400L Attribution.Gc_end;
      ev 0 600L Attribution.Task_end;
      ev 0 700L Attribution.Gc_begin;
      ev 0 750L Attribution.Gc_end;
      ev 0 900L Attribution.Worker_end;
    ];
  let r = Attribution.finish st ~t0:0L ~t1:1000L in
  match r.Attribution.domains with
  | [ s ] ->
    check_ns "wall" 1000L s.Attribution.wall_ns;
    check_ns "gc" 150L s.Attribution.gc_ns;
    check_ns "compute (task minus gc-in-task)" 300L s.Attribution.compute_ns;
    check_ns "idle (worker minus task minus gc-between)" 350L
      s.Attribution.idle_ns;
    check_ns "spawn (remainder outside the worker loop)" 200L
      s.Attribution.spawn_ns;
    check_ns "partition is exact" s.Attribution.wall_ns (split_sum s);
    Alcotest.(check int) "tasks" 1 s.Attribution.tasks;
    Alcotest.(check int) "pauses" 2 s.Attribution.gc_pauses;
    check_ns "max pause" 100L s.Attribution.max_gc_pause_ns
  | ds -> Alcotest.failf "expected 1 domain, got %d" (List.length ds)

let test_attr_open_spans () =
  (* A stream cut mid-everything: worker, task and GC all still open at
     the window end must be closed at t1, leaking no time. *)
  let st = Attribution.create () in
  Attribution.feed_list st
    [
      ev 0 100L Attribution.Worker_begin;
      ev 0 200L Attribution.Task_begin;
      ev 0 900L Attribution.Gc_begin;
    ];
  let r = Attribution.finish st ~t0:0L ~t1:1000L in
  match r.Attribution.domains with
  | [ s ] ->
    check_ns "gc closed at window end" 100L s.Attribution.gc_ns;
    check_ns "compute" 700L s.Attribution.compute_ns;
    check_ns "idle" 100L s.Attribution.idle_ns;
    check_ns "spawn" 100L s.Attribution.spawn_ns;
    check_ns "partition survives the cut" s.Attribution.wall_ns (split_sum s);
    Alcotest.(check int) "open task counted" 1 s.Attribution.tasks;
    Alcotest.(check int) "open pause counted" 1 s.Attribution.gc_pauses
  | ds -> Alcotest.failf "expected 1 domain, got %d" (List.length ds)

let test_attr_nested_gc () =
  (* Nested runtime phases (major slice containing a minor) must count
     as one outermost pause, never double-count the overlap. *)
  let st = Attribution.create () in
  Attribution.feed_list st
    [
      ev 0 0L Attribution.Worker_begin;
      ev 0 100L Attribution.Gc_begin;
      ev 0 150L Attribution.Gc_begin;
      ev 0 200L Attribution.Gc_end;
      ev 0 300L Attribution.Gc_end;
      ev 0 1000L Attribution.Worker_end;
    ];
  let r = Attribution.finish st ~t0:0L ~t1:1000L in
  match r.Attribution.domains with
  | [ s ] ->
    check_ns "nested gc counted once" 200L s.Attribution.gc_ns;
    Alcotest.(check int) "one outermost pause" 1 s.Attribution.gc_pauses;
    check_ns "partition" s.Attribution.wall_ns (split_sum s)
  | ds -> Alcotest.failf "expected 1 domain, got %d" (List.length ds)

let test_attr_sampler_dropped () =
  (* A ring that only ever GCs (the sampler/exporter domains) is noise:
     the default report drops it, ~only_instrumented:false keeps it. *)
  let stream =
    [
      ev 0 100L Attribution.Worker_begin;
      ev 0 900L Attribution.Worker_end;
      ev 7 200L Attribution.Gc_begin;
      ev 7 300L Attribution.Gc_end;
    ]
  in
  let st = Attribution.create () in
  Attribution.feed_list st stream;
  let r = Attribution.finish st ~t0:0L ~t1:1000L in
  Alcotest.(check (list int))
    "sampler ring dropped" [ 0 ]
    (List.map (fun s -> s.Attribution.ring) r.Attribution.domains);
  let st = Attribution.create () in
  Attribution.feed_list st stream;
  let r =
    Attribution.finish ~only_instrumented:false st ~t0:0L ~t1:1000L
  in
  Alcotest.(check (list int))
    "kept when asked" [ 0; 7 ]
    (List.map (fun s -> s.Attribution.ring) r.Attribution.domains)

let test_attr_verdict () =
  (* GC-dominated stream names GC; a queue-starved one names the queue.
     Tolerance is the compute share of total domain time. *)
  let gc_heavy =
    [
      ev 0 0L Attribution.Worker_begin;
      ev 0 0L Attribution.Task_begin;
      ev 0 100L Attribution.Gc_begin;
      ev 0 700L Attribution.Gc_end;
      ev 0 1000L Attribution.Task_end;
      ev 0 1000L Attribution.Worker_end;
    ]
  in
  let st = Attribution.create () in
  Attribution.feed_list st gc_heavy;
  let r = Attribution.finish st ~t0:0L ~t1:1000L in
  Alcotest.(check string)
    "gc verdict" "gc-bound"
    (Attribution.verdict_string r.Attribution.verdict);
  check_float "tolerance = compute share" 0.4 r.Attribution.tolerance;
  let starved =
    [
      ev 0 0L Attribution.Worker_begin;
      ev 0 0L Attribution.Task_begin;
      ev 0 200L Attribution.Task_end;
      ev 0 1000L Attribution.Worker_end;
    ]
  in
  let st = Attribution.create () in
  Attribution.feed_list st starved;
  let r = Attribution.finish st ~t0:0L ~t1:1000L in
  Alcotest.(check string)
    "starved verdict" "queue-starved"
    (Attribution.verdict_string r.Attribution.verdict)

(* Any stream at all — balanced or not, interleaved or not — must keep
   the partition exact on every ring: gc + compute + idle + spawn =
   wall.  This is the invariant the percentage table rests on. *)
let attr_event_gen =
  let open QCheck.Gen in
  let kind =
    oneofl
      [
        Attribution.Gc_begin;
        Attribution.Gc_end;
        Attribution.Task_begin;
        Attribution.Task_end;
        Attribution.Worker_begin;
        Attribution.Worker_end;
      ]
  in
  list_size (int_range 0 60)
    (map2
       (fun ring k -> (ring, k))
       (int_range 0 2) kind)

let attr_stream_of spec =
  (* Timestamps strictly increasing so the per-ring ordering contract
     holds regardless of ring interleaving. *)
  List.mapi
    (fun i (ring, kind) ->
      { Attribution.ring; at_ns = Int64.of_int ((i + 1) * 10); kind })
    spec

let prop_attr_partition_exact =
  QCheck.Test.make ~name:"attribution partitions wall exactly" ~count:500
    (QCheck.make attr_event_gen)
    (fun spec ->
      let st = Attribution.create () in
      Attribution.feed_list st (attr_stream_of spec);
      let r =
        Attribution.finish ~only_instrumented:false st ~t0:0L ~t1:2000L
      in
      List.for_all
        (fun s -> Int64.equal (split_sum s) s.Attribution.wall_ns)
        r.Attribution.domains)

let () =
  Alcotest.run "lattol_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "instruments" `Quick test_metrics_instruments;
          Alcotest.test_case "duplicate rejected" `Quick
            test_metrics_duplicate_rejected;
          Alcotest.test_case "sinks" `Quick test_metrics_sinks;
        ] );
      ( "metrics-merge",
        [
          Alcotest.test_case "snapshot is point-in-time" `Quick
            test_snapshot_point_in_time;
        ] );
      ( "events",
        [
          Alcotest.test_case "capacity" `Quick test_events_capacity;
          Alcotest.test_case "chrome format" `Quick test_events_chrome_format;
        ] );
      ( "trace-ctx",
        [
          Alcotest.test_case "span tree" `Quick test_trace_ctx_tree;
          Alcotest.test_case "disabled is inert" `Quick
            test_trace_ctx_disabled;
          Alcotest.test_case "capacity drop" `Quick test_trace_ctx_capacity;
        ] );
      ( "trace-report",
        [
          Alcotest.test_case "attribution reconciles" `Quick
            test_trace_report_reconciles;
          Alcotest.test_case "nested claim counted once" `Quick
            test_trace_report_nested_claim;
          Alcotest.test_case "live probe does not seal" `Quick
            test_trace_report_live_probe;
        ] );
      ( "exemplars",
        [ Alcotest.test_case "bucket exemplars" `Quick test_histogram_exemplars ] );
      ( "log",
        [ Alcotest.test_case "structured jsonl" `Quick test_log_jsonl ] );
      ( "solver-trace",
        [
          Alcotest.test_case "supervised converged" `Quick
            test_solver_trace_supervised_converged;
          Alcotest.test_case "escalation recorded" `Quick
            test_solver_trace_escalation;
          Alcotest.test_case "direct api" `Quick test_solver_trace_direct_api;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "exact partition" `Quick test_attr_partition;
          Alcotest.test_case "open spans closed at window end" `Quick
            test_attr_open_spans;
          Alcotest.test_case "nested gc" `Quick test_attr_nested_gc;
          Alcotest.test_case "sampler ring dropped" `Quick
            test_attr_sampler_dropped;
          Alcotest.test_case "verdict and tolerance" `Quick test_attr_verdict;
        ]
        @ qcheck [ prop_attr_partition_exact ] );
      ( "latency-profile",
        [
          Alcotest.test_case "summary math" `Quick test_profile_summary_math;
          Alcotest.test_case "tolerance check" `Quick
            test_profile_tolerance_check;
          Alcotest.test_case "matches DES measures" `Slow
            test_profile_from_des_matches_measures;
          Alcotest.test_case "DES metrics registry" `Quick
            test_des_metrics_registry;
          Alcotest.test_case "network-sim trace" `Quick test_network_sim_trace;
        ] );
    ]
