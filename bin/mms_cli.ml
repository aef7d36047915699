(* Command-line front end for the latency-tolerance toolkit.

   Subcommands:
     solve       evaluate the analytical model on one configuration
     tolerance   tolerance indices (network and memory)
     bottleneck  closed-form analysis (Eqs. 4 and 5)
     sweep       sweep one or more parameters (optionally in parallel), CSV to stdout
     figures     reproduce the paper's figure sweeps as cached CSV batches
     simulate    run the DES or STPN simulator (with parallel replications)
     partition   thread-partitioning table for a work budget
     sensitivity rank parameters by their effect on U_p
     report      everything above in one analysis

   Examples:
     mms_cli solve -k 4 --threads 8 --p-remote 0.2
     mms_cli sweep --param p_remote --from 0 --to 1 --steps 21
     mms_cli simulate --engine stpn --horizon 20000 --p-remote 0.5
     mms_cli sensitivity -k 6 --threads 8
*)

open Cmdliner
open Lattol_core

(* Verbosity: -v enables solver diagnostics on stderr — both the legacy
   Logs reporter (core solvers) and the structured JSONL logger
   (supervisor and friends), whose lines carry causal-trace ids. *)
let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning));
  Lattol_obs.Log.set_level
    (Some (if verbose then Lattol_obs.Log.Debug else Lattol_obs.Log.Warn))

let verbose_term =
  let arg =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print solver diagnostics.")
  in
  Term.(const setup_logs $ arg)

(* ------------------------------------------------------------------ *)
(* Shared parameter terms *)

let k_arg =
  Arg.(value & opt int 4 & info [ "k" ] ~docv:"K" ~doc:"Nodes per torus dimension.")

let dimensions_arg =
  Arg.(
    value & opt int 2
    & info [ "d"; "dimensions" ] ~docv:"D"
        ~doc:"Network dimensionality: 1 = ring, 2 = torus, 3 = cube, ...")

let threads_arg =
  Arg.(
    value
    & opt int 8
    & info [ "t"; "threads" ] ~docv:"N" ~doc:"Threads per processor (n_t).")

let runlength_arg =
  Arg.(
    value
    & opt float 1.
    & info [ "R"; "runlength" ] ~docv:"R" ~doc:"Mean thread runlength.")

let context_switch_arg =
  Arg.(
    value
    & opt float 0.
    & info [ "C"; "context-switch" ] ~docv:"C" ~doc:"Context switch time.")

let p_remote_arg =
  Arg.(
    value
    & opt float 0.2
    & info [ "p"; "p-remote" ] ~docv:"P" ~doc:"Remote access probability.")

let p_sw_arg =
  Arg.(
    value
    & opt float 0.5
    & info [ "p-sw" ] ~docv:"PSW"
        ~doc:"Geometric locality parameter (ignored with $(b,--uniform)).")

let uniform_arg =
  Arg.(
    value & flag
    & info [ "uniform" ] ~doc:"Uniform remote access pattern instead of geometric.")

let l_mem_arg =
  Arg.(value & opt float 1. & info [ "L"; "mem" ] ~docv:"L" ~doc:"Memory service time.")

let mem_ports_arg =
  Arg.(
    value & opt int 1
    & info [ "mem-ports" ] ~docv:"C"
        ~doc:"Concurrent accesses a memory module serves (multiporting).")

let s_switch_arg =
  Arg.(
    value & opt float 1. & info [ "S"; "switch" ] ~docv:"S" ~doc:"Switch service time.")

let switch_pipeline_arg =
  Arg.(
    value & opt int 1
    & info [ "pipeline" ] ~docv:"D"
        ~doc:"Switch pipeline depth (concurrent messages per switch).")

let sync_unit_arg =
  Arg.(
    value & opt float 0.
    & info [ "su"; "sync-unit" ] ~docv:"T"
        ~doc:
          "EARTH-style synchronization unit service time per remote touch \
           (0 = no SU).")

let mesh_arg =
  Arg.(value & flag & info [ "mesh" ] ~doc:"Open mesh instead of a torus.")

let params_term =
  let open Lattol_topology in
  let make k dimensions n_t runlength context_switch p_remote p_sw uniform
      l_mem mem_ports s_switch switch_pipeline sync_unit mesh =
    let pattern = if uniform then Access.Uniform else Access.Geometric p_sw in
    let topology = if mesh then Topology.Mesh else Topology.Torus in
    match
      Params.validate
        {
          Params.topology;
          k;
          dimensions;
          n_t;
          runlength;
          context_switch;
          p_remote;
          pattern;
          l_mem;
          mem_ports;
          s_switch;
          switch_pipeline;
          sync_unit;
        }
    with
    | Ok p -> `Ok p
    | Error msg -> `Error (false, msg)
  in
  Term.(
    ret
      (const make $ k_arg $ dimensions_arg $ threads_arg $ runlength_arg
     $ context_switch_arg $ p_remote_arg $ p_sw_arg $ uniform_arg $ l_mem_arg
     $ mem_ports_arg $ s_switch_arg $ switch_pipeline_arg $ sync_unit_arg
     $ mesh_arg))

let solver_term =
  let conv_solver = function
    | "symmetric" -> Ok Mms.Symmetric_amva
    | "amva" -> Ok Mms.General_amva
    | "linearizer" -> Ok Mms.Linearizer_amva
    | "exact" -> Ok Mms.Exact_mva
    | s -> Error (`Msg (Printf.sprintf "unknown solver %S" s))
  in
  let parser s = conv_solver s in
  let printer ppf = function
    | Mms.Symmetric_amva -> Fmt.string ppf "symmetric"
    | Mms.General_amva -> Fmt.string ppf "amva"
    | Mms.Linearizer_amva -> Fmt.string ppf "linearizer"
    | Mms.Exact_mva -> Fmt.string ppf "exact"
  in
  Arg.(
    value
    & opt (some (conv (parser, printer))) None
    & info [ "solver" ] ~docv:"SOLVER"
        ~doc:
          "Solver: $(b,symmetric) (default on torus), $(b,amva), \
           $(b,linearizer), or $(b,exact).")

(* ------------------------------------------------------------------ *)
(* telemetry sinks (shared by solve, sweep, simulate, profile) *)

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's metrics registry to $(docv): long-form CSV when \
           the name ends in .csv, JSON otherwise.")

let trace_out_arg doc =
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let solver_trace_doc =
  "Write solver telemetry (one attempt per solve with its residual \
   trajectory) to $(docv): CSV when the name ends in .csv, JSONL otherwise."

let span_trace_doc =
  "Write the simulation's span trace to $(docv) in Chrome trace-event JSON \
   (open in Perfetto or chrome://tracing)."

let with_out file f =
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)

let write_metrics reg file =
  with_out file (fun oc ->
      if Filename.check_suffix file ".csv" then
        Lattol_obs.Metrics.write_csv reg oc
      else Lattol_obs.Metrics.write_json reg oc)

let write_solver_trace tel file =
  with_out file (fun oc ->
      if Filename.check_suffix file ".csv" then
        Lattol_obs.Solver_trace.write_csv tel oc
      else Lattol_obs.Solver_trace.write_jsonl tel oc)

let write_span_trace trace file =
  with_out file (fun oc -> Lattol_obs.Events.write_chrome trace oc)

module Exec = Lattol_exec

(* ------------------------------------------------------------------ *)
(* interrupted-run flushing

   A sink opened for --trace-out / --metrics-out registers a flusher here
   so a Ctrl-C'd run still leaves a valid (truncated) file behind.  The
   SIGINT handler turns the signal into [exit 130], which runs the
   [at_exit] hook; runs that complete normally unregister first and write
   their full files on the ordinary path. *)

let pending_flushes : (string, unit -> unit) Hashtbl.t = Hashtbl.create 4

let flush_on_exit file f = Hashtbl.replace pending_flushes file f

let flushed file = Hashtbl.remove pending_flushes file

let flush_pending () =
  Hashtbl.iter
    (fun _ f -> try f () with Sys_error _ | Unix.Unix_error _ -> ())
    pending_flushes;
  Hashtbl.reset pending_flushes

let () = at_exit flush_pending

let () = Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130))

(* ------------------------------------------------------------------ *)
(* live metrics exporter (--serve / --serve-socket) *)

module Serve = Lattol_serve

let serve_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "serve" ] ~docv:"PORT"
        ~doc:
          "Expose live metrics over HTTP on 127.0.0.1:$(docv) while the run \
           executes: $(b,/metrics) (Prometheus text), $(b,/metrics.json) \
           (the --metrics-out JSON document) and $(b,/healthz).  Port 0 \
           picks a free port; the bound address is printed on stderr.")

let serve_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "serve-socket" ] ~docv:"PATH"
        ~doc:
          "Like $(b,--serve) but listening on a Unix-domain socket at \
           $(docv) (for sandboxes without loopback TCP).")

(* The two flags fold into one endpoint.  Naming both is rejected while
   the command line is parsed, before any journal is opened. *)
let serve_term =
  let endpoint serve serve_socket =
    match (serve, serve_socket) with
    | Some _, Some _ ->
      `Error (false, "--serve and --serve-socket are mutually exclusive")
    | Some port, None -> `Ok (Some (Serve.Exporter.Tcp port))
    | None, Some path -> `Ok (Some (Serve.Exporter.Unix_path path))
    | None, None -> `Ok None
  in
  Term.(ret (const endpoint $ serve_arg $ serve_socket_arg))

(* Run [k] with the exporter live on [endpoint], shutting it down
   afterwards.  Exit 124 on a bind failure — nothing has been computed yet
   at that point. *)
let with_exporter ?health ?runtime ?trace ~snapshot endpoint k =
  match endpoint with
  | None -> k ()
  | Some endpoint -> (
    match Serve.Exporter.start ?health ?runtime ?trace ~snapshot endpoint with
    | Error msg ->
      Printf.eprintf "mms: %s\n%!" msg;
      exit 124
    | Ok exporter ->
      Printf.eprintf "serving metrics on %s\n%!"
        (Serve.Exporter.address exporter);
      Fun.protect ~finally:(fun () -> Serve.Exporter.stop exporter) k)

let write_metrics_snapshot snap file =
  with_out file (fun oc ->
      if Filename.check_suffix file ".csv" then
        Lattol_obs.Metrics.write_csv_snapshot snap oc
      else Lattol_obs.Metrics.write_json_snapshot snap oc)

(* The --metrics-out file of a run that keeps a registry [reg].  When
   serving, the file is the final scrape: the bytes /metrics.json returns
   from here on.  Returns the number of series written. *)
let write_run_metrics ~serving ~snapshot reg file =
  let snap = if serving then snapshot () else Lattol_obs.Metrics.snapshot reg in
  write_metrics_snapshot snap file;
  flushed file;
  List.length snap

(* ------------------------------------------------------------------ *)
(* causal tracing (--causal-trace / mms trace) *)

module Tc = Lattol_obs.Trace_ctx
module Trace_report = Lattol_obs.Trace_report

let causal_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "causal-trace" ] ~docv:"FILE"
        ~doc:
          "Record a causal trace of the run — per-point span trees through \
           the pool, cache, solver and journal — and write the \
           critical-path report to $(docv) as JSON.  Stdout is untouched: \
           the CSV stays byte-identical to an untraced run at any \
           $(b,--jobs).")

let causal_chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "causal-chrome" ] ~docv:"FILE"
        ~doc:
          "Also write the causal trace's merged span timeline (one track \
           per grid point) to $(docv) in Chrome trace-event JSON (open in \
           Perfetto or chrome://tracing).  Implies causal tracing even \
           without $(b,--causal-trace).")

(* The /trace.json live probe: analyze the running trace on demand.
   analyze does not seal, so scrapes never freeze the root span. *)
let trace_probe recorder () =
  let b = Buffer.create 4096 in
  Trace_report.to_json b (Trace_report.analyze recorder);
  Buffer.contents b

let write_causal_report report file =
  with_out file (fun oc ->
      let b = Buffer.create 8192 in
      Trace_report.to_json b report;
      Buffer.add_char b '\n';
      output_string oc (Buffer.contents b))

let write_causal_chrome recorder file =
  with_out file (fun oc ->
      Lattol_obs.Events.write_chrome (Trace_report.to_events recorder) oc)

(* Exemplar-linked metrics: the per-point wall-time distribution, each
   bucket remembering the trace id of the last point that landed in it,
   so a fat histogram tail links straight to a concrete traced point. *)
let register_point_walls reg report =
  let h =
    Lattol_obs.Metrics.histogram reg ~hi:1000. ~bins:20
      ~help:"causal-traced point wall time (ms), buckets carry exemplars"
      "trace_point_wall_ms"
  in
  List.iter
    (fun p ->
      Lattol_obs.Metrics.record ~exemplar:p.Trace_report.p_trace_id h
        p.Trace_report.wall_ms)
    report.Trace_report.r_points

(* ------------------------------------------------------------------ *)
(* runtime profiler (mms prof / --profile-runtime) *)

module Rp = Lattol_obs.Runtime_profile

let profile_runtime_arg =
  Arg.(
    value & flag
    & info [ "profile-runtime" ]
        ~doc:
          "Run under the runtime profiler: a sampler domain consumes the \
           OCaml runtime's tracing rings (GC pauses, allocation counters, \
           pool task spans) and the per-domain bottleneck-attribution table \
           is printed to stderr when the run completes.  With \
           $(b,--serve), live $(b,runtime_*) counters join the scrape and \
           $(b,/runtime.json) answers.")

let start_runtime_profile enabled = if enabled then Some (Rp.start ()) else None

(* While profiling and serving, the live runtime counters join every
   scrape as runtime_* families. *)
let register_runtime_pulls progress session =
  Option.iter
    (fun s ->
      List.iter
        (fun (name, _) ->
          let kind =
            if Filename.check_suffix name "_total" then `Counter else `Gauge
          in
          Serve.Progress.register_pull progress ~kind name (fun () ->
              Option.value ~default:0.
                (List.assoc_opt name (Rp.live_counters s))))
        (Rp.live_counters s))
    session

(* Stop the session and print the attribution table to [ppf]. *)
let finish_runtime_profile ppf session =
  Option.map
    (fun s ->
      let p = Rp.stop s in
      Format.fprintf ppf "%a@." Lattol_obs.Attribution.pp_report p.Rp.report;
      if p.Rp.lost_events > 0 then
        Format.fprintf ppf
          "warning: %d runtime events were overwritten before the sampler \
           read them — the attribution above undercounts@."
          p.Rp.lost_events;
      p)
    session

(* The profiler watches the pool through an ordinary monitor.  Each hook
   writes its runtime event on the pool domain that fires it, so worker
   and task spans land in that domain's ring, on the clock of its GC
   events. *)
let profiler_monitor =
  {
    Exec.Pool.on_start = (fun ~jobs:_ ~items:_ -> ());
    on_worker =
      (fun ~worker:_ ~busy ->
        if busy then Rp.worker_begin () else Rp.worker_end ());
    on_claim = (fun ~remaining -> Rp.queue_depth remaining);
    on_item = ignore;
    on_task =
      (fun ~worker:_ ~busy ->
        if busy then Rp.task_begin () else Rp.task_end ());
  }

(* One monitor that fires [a]'s hook, then [b]'s, for every event. *)
let both_monitors (a : Exec.Pool.monitor) (b : Exec.Pool.monitor) =
  {
    Exec.Pool.on_start =
      (fun ~jobs ~items ->
        a.Exec.Pool.on_start ~jobs ~items;
        b.Exec.Pool.on_start ~jobs ~items);
    on_worker =
      (fun ~worker ~busy ->
        a.Exec.Pool.on_worker ~worker ~busy;
        b.Exec.Pool.on_worker ~worker ~busy);
    on_claim =
      (fun ~remaining ->
        a.Exec.Pool.on_claim ~remaining;
        b.Exec.Pool.on_claim ~remaining);
    on_item =
      (fun () ->
        a.Exec.Pool.on_item ();
        b.Exec.Pool.on_item ());
    on_task =
      (fun ~worker ~busy ->
        a.Exec.Pool.on_task ~worker ~busy;
        b.Exec.Pool.on_task ~worker ~busy);
  }

(* Bracket a non-pool workload (a single simulator run) in the worker and
   task marks the profiler's pool monitor writes, so its main-domain time
   reads as compute, not spawn overhead.  No-ops when profiling is off. *)
let profiled_section f =
  Rp.worker_begin ();
  Rp.task_begin ();
  Fun.protect
    ~finally:(fun () ->
      Rp.task_end ();
      Rp.worker_end ())
    f

(* The exporter polls the solve cache on every scrape. *)
let register_cache_pulls progress cache =
  let stat f () = float_of_int (f (Exec.Cache.stats cache)) in
  Serve.Progress.register_pull progress ~kind:`Counter "cache_memo_hits"
    (stat (fun s -> s.Exec.Cache.memo_hits));
  Serve.Progress.register_pull progress ~kind:`Counter "cache_disk_hits"
    (stat (fun s -> s.Exec.Cache.disk_hits));
  Serve.Progress.register_pull progress ~kind:`Counter "cache_misses"
    (stat (fun s -> s.Exec.Cache.misses));
  Serve.Progress.register_pull progress ~kind:`Counter "cache_solves"
    (stat (fun s -> s.Exec.Cache.solves));
  Serve.Progress.register_pull progress "cache_inflight" (fun () ->
      float_of_int (Exec.Cache.inflight cache));
  Serve.Progress.register_pull progress ~kind:`Counter "cache_corrupt"
    (stat (fun s -> s.Exec.Cache.corrupt))

(* /healthz stops lying "ok" once the store has shown us corruption:
   corrupt records are never served (their keys re-solve) but the probe
   should surface that the disk is eating bytes, until a scrub. *)
let cache_health cache () =
  let s = Exec.Cache.stats cache in
  if s.Exec.Cache.corrupt > 0 then
    Some (Printf.sprintf "%d corrupt cache records" s.Exec.Cache.corrupt)
  else None

(* Analytical measures as gauges, one labeled series family per field. *)
let register_measures reg ?labels (m : Measures.t) =
  let g name v =
    Lattol_obs.Metrics.set_gauge (Lattol_obs.Metrics.gauge reg ?labels name) v
  in
  g "u_p" m.Measures.u_p;
  g "lambda" m.Measures.lambda;
  g "lambda_net" m.Measures.lambda_net;
  g "s_obs" m.Measures.s_obs;
  g "l_obs" m.Measures.l_obs;
  g "cycle_time" m.Measures.cycle_time;
  g "util_memory" m.Measures.util_memory;
  g "util_switch_in" m.Measures.util_switch_in;
  g "util_switch_out" m.Measures.util_switch_out;
  g "queue_processor" m.Measures.queue_processor;
  g "queue_memory" m.Measures.queue_memory;
  g "queue_network" m.Measures.queue_network;
  g "sweeps" (float_of_int m.Measures.iterations)

(* [Mms.solve], recorded as one solver-trace attempt when [telemetry] is
   given. *)
let solve_with_telemetry ?solver ?telemetry params =
  match telemetry with
  | Some tel when params.Params.n_t > 0 ->
    let solver =
      match solver with Some s -> s | None -> Mms.default_solver params
    in
    Lattol_obs.Solver_trace.solve tel ~solver params
  | Some _ | None -> Mms.solve ?solver params

(* ------------------------------------------------------------------ *)
(* supervised solving (shared by solve and report) *)

let supervise_arg =
  Arg.(
    value & flag
    & info [ "supervise" ]
        ~doc:
          "Solve under the robustness supervisor: watch the fixed-point \
           residual, abort divergent or stalled attempts, escalate through \
           damping factors and fallback solvers, and cross-check the \
           accepted solution against closed-form bounds.  Exit code 0 = \
           converged first try, 3 = converged after fallback, 4 = failed.")

let budget_iterations_arg =
  Arg.(
    value & opt int 2_000
    & info [ "budget-iterations" ] ~docv:"N"
        ~doc:
          "First-rung iteration budget of the supervisor's escalation \
           ladder (doubled at every later rung).")

let budget_time_arg =
  Arg.(
    value & opt (some float) None
    & info [ "budget-time" ] ~docv:"SECONDS"
        ~doc:"CPU-time budget across all supervisor attempts.")

(* Run the supervisor, print its diagnosis, hand the measures to [k], and
   exit with the outcome's code (0 converged / 3 after fallback / 4 failed).
   The solver trace, when requested, is written before exiting so failed
   ladders leave their telemetry behind too. *)
let supervised_exit ?trace_out params ~base_iterations ~time_budget k =
  if base_iterations < 1 then begin
    Format.eprintf "mms_cli: --budget-iterations must be at least 1@.";
    exit 124
  end;
  (match time_budget with
  | Some b when b <= 0. ->
    Format.eprintf "mms_cli: --budget-time must be positive@.";
    exit 124
  | _ -> ());
  let telemetry =
    Option.map (fun _ -> Lattol_obs.Solver_trace.create ()) trace_out
  in
  let result =
    Lattol_robust.Supervisor.solve ?telemetry ~base_iterations ?time_budget
      params
  in
  (match (telemetry, trace_out) with
  | Some tel, Some file -> write_solver_trace tel file
  | _ -> ());
  (match result with
  | Ok (m, d) ->
    Format.printf "%a@.@." Lattol_robust.Supervisor.pp_diagnosis d;
    k m
  | Error d ->
    Format.printf "%a@." Lattol_robust.Supervisor.pp_diagnosis d;
    Format.printf "supervisor: no trustworthy solution@.");
  exit
    (Lattol_robust.Supervisor.exit_code (Lattol_robust.Supervisor.outcome result))

(* ------------------------------------------------------------------ *)
(* solve *)

let solve_cmd =
  let run () params solver supervise base_iterations time_budget metrics_out
      trace_out =
    Format.printf "%a@.@." Params.pp params;
    let finish m =
      Format.printf "%a@." Measures.pp m;
      Option.iter
        (fun file ->
          let reg = Lattol_obs.Metrics.create () in
          register_measures reg m;
          write_metrics reg file)
        metrics_out
    in
    if supervise then
      supervised_exit ?trace_out params ~base_iterations ~time_budget finish
    else begin
      let telemetry =
        Option.map (fun _ -> Lattol_obs.Solver_trace.create ()) trace_out
      in
      let m = solve_with_telemetry ?solver ?telemetry params in
      (match (telemetry, trace_out) with
      | Some tel, Some file -> write_solver_trace tel file
      | _ -> ());
      finish m
    end
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Evaluate the analytical model once")
    Term.(
      const run $ verbose_term $ params_term $ solver_term $ supervise_arg
      $ budget_iterations_arg $ budget_time_arg $ metrics_out_arg
      $ trace_out_arg solver_trace_doc)

(* ------------------------------------------------------------------ *)
(* tolerance *)

let tolerance_cmd =
  let method_arg =
    Arg.(
      value
      & opt (enum [ ("zero-delay", Tolerance.Zero_delay); ("zero-remote", Tolerance.Zero_remote) ])
          Tolerance.Zero_remote
      & info [ "method" ] ~docv:"METHOD"
          ~doc:"Ideal-network method: $(b,zero-delay) or $(b,zero-remote).")
  in
  let run () params solver meth =
    Format.printf "%a@.@." Params.pp params;
    let net = Tolerance.network ?solver ~ideal_method:meth params in
    let mem = Tolerance.memory ?solver params in
    Format.printf "%a@.%a@." Tolerance.pp_report net Tolerance.pp_report mem
  in
  Cmd.v
    (Cmd.info "tolerance" ~doc:"Tolerance indices for network and memory")
    Term.(const run $ verbose_term $ params_term $ solver_term $ method_arg)

(* ------------------------------------------------------------------ *)
(* bottleneck *)

let bottleneck_cmd =
  let run params =
    Format.printf "%a@.%a@." Params.pp params Bottleneck.pp
      (Bottleneck.analyze params)
  in
  Cmd.v
    (Cmd.info "bottleneck" ~doc:"Closed-form bottleneck analysis (Eqs. 4 and 5)")
    Term.(const run $ params_term)

(* ------------------------------------------------------------------ *)
(* batch runs: shared flags, the journal and the live side

   sweep, figures, trace, simulate and prof run their work on the pool.
   Every flag they share is one term below that validates itself;
   [with_journal] owns the checkpoint journal and [with_run] everything
   that watches a run while it executes. *)

let jobs_term doc =
  let check jobs =
    if jobs < 1 then `Error (false, "--jobs must be at least 1") else `Ok jobs
  in
  Term.(
    ret
      (const check
      $ Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)))

let sweep_jobs_doc =
  "Worker domains.  Output is byte-identical for every value; $(b,--jobs 1) \
   runs in the calling domain.  The pool never spawns more domains than \
   the machine has cores (oversubscribed domains fight over the minor-GC \
   barrier and run SLOWER than serial), so $(docv) is a ceiling, not a \
   promise."

let chunk_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "chunk" ] ~docv:"N"
        ~doc:
          "Tasks claimed per queue operation.  Default: adaptive (guided \
           self-scheduling — large chunks early, single tasks at the \
           tail).  $(b,--chunk 1) maximizes balance for uneven work; \
           larger chunks amortize scheduling for uniform grids.  Output \
           is byte-identical for every value.")

let chunk_term =
  let check = function
    | Some c when c < 1 -> `Error (false, "--chunk must be at least 1")
    | chunk -> `Ok chunk
  in
  Term.(ret (const check $ chunk_arg))

let cache_arg doc = Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)

let journal_arg doc =
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let sweep_journal_doc =
  "Checkpoint journal: completed grid points are committed to $(docv) \
   with one fsync per pool chunk (one per point at $(b,--jobs) 1), so a \
   killed run loses at most one chunk and can $(b,--resume)."

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Replay completed work units from the checkpoint journal instead \
           of recomputing them.  The journal must have been written by the \
           same run configuration; output is byte-identical to an \
           uninterrupted run.")

let retries_arg =
  Arg.(
    value & opt int 1
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Attempts per work unit.  Transient failures (injected chaos, \
           I/O errors, expired deadlines) retry with exponential backoff; \
           a unit still failing after $(docv) attempts becomes an error \
           row instead of sinking the run.  Deterministic solver errors \
           are never retried.")

let task_deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "task-deadline" ] ~docv:"SECONDS"
        ~doc:
          "Per-attempt deadline: a work unit running longer is cancelled \
           cooperatively and handled as a transient failure.")

let chaos_fail_rate_arg =
  Arg.(
    value & opt float 0.
    & info [ "chaos-fail-rate" ] ~docv:"F"
        ~doc:
          "(chaos harness) Fraction of work units that fail their leading \
           attempts with an injected fault — deterministic in \
           $(b,--chaos-seed).")

let chaos_fail_attempts_arg =
  Arg.(
    value & opt int 1
    & info [ "chaos-fail-attempts" ] ~docv:"N"
        ~doc:
          "(chaos harness) Leading attempts an affected unit fails before \
           succeeding, so $(b,--retries) > $(docv) always recovers.")

let chaos_delay_arg =
  Arg.(
    value & opt float 0.
    & info [ "chaos-delay" ] ~docv:"SECONDS"
        ~doc:"(chaos harness) Injected latency before every attempt.")

let chaos_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "chaos-seed" ] ~docv:"SEED"
        ~doc:"(chaos harness) Selects the affected-unit subset.")

let chaos_kill_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "chaos-kill-after" ] ~docv:"N"
        ~doc:
          "(chaos harness) SIGKILL this process right after the $(docv)-th \
           journal record of this run is appended — an unclean mid-run \
           death for resume testing.  Requires a journal.")

(* Fault handling for sweep and figures: retries, deadlines and the chaos
   harness. *)
type faults = {
  retry : Lattol_robust.Retry.policy option;
  deadline : float option;
  chaos : Lattol_robust.Chaos.plan;
  kill_after : int option;  (* needs a journal: see [with_journal] *)
}

(* Fold the seven flags into one validated record.  Retry backoff is
   compressed (20 ms doubling to a 100 ms cap) — these are solver tasks,
   not network calls, and the chaos soak tests retry hundreds of them. *)
let faults_term =
  let make retries deadline rate attempts delay seed kill_after =
    if retries < 1 then `Error (false, "--retries must be at least 1")
    else if (match deadline with Some d -> d <= 0. | None -> false) then
      `Error (false, "--task-deadline must be positive")
    else if (match kill_after with Some n -> n < 1 | None -> false) then
      `Error (false, "--chaos-kill-after must be at least 1")
    else
      match
        if rate > 0. || delay > 0. then
          Lattol_robust.Chaos.plan ~fail_rate:rate ~fail_attempts:attempts
            ~delay ~seed ()
        else Lattol_robust.Chaos.none
      with
      | exception Invalid_argument msg -> `Error (false, msg)
      | chaos ->
        let retry =
          if retries = 1 then None
          else
            Some
              (Lattol_robust.Retry.policy ~max_attempts:retries
                 ~base_delay:0.02 ~max_delay:0.1 ())
        in
        `Ok { retry; deadline; chaos; kill_after }
  in
  Term.(
    ret
      (const make $ retries_arg $ task_deadline_arg $ chaos_fail_rate_arg
     $ chaos_fail_attempts_arg $ chaos_delay_arg $ chaos_seed_arg
     $ chaos_kill_after_arg))

(* Open (or resume) the journal at [path], report what a resume replayed,
   run [k] with it and close it.  [kill_after] arms the chaos kill switch
   on the journal's records.  Without a path, [resume] and [kill_after]
   have nothing to act on; they, and a journal that cannot be opened, are
   an [`Error] (exit 124) before any work. *)
let with_journal ?kill_after ~resume ~meta path k =
  match path with
  | None when kill_after <> None ->
    `Error (false, "--chaos-kill-after requires a journal")
  | None when resume -> `Error (false, "--resume requires --journal")
  | None -> k None
  | Some path -> (
    let on_record =
      Option.map
        (fun n k -> if k >= n then Lattol_robust.Chaos.kill_self ())
        kill_after
    in
    match
      if resume then Exec.Journal.resume ?on_record ~path ~meta ()
      else Ok (Exec.Journal.create ?on_record ~path ~meta ())
    with
    | Error msg -> `Error (false, msg)
    | Ok j ->
      if Exec.Journal.replayed j > 0 || Exec.Journal.discarded j > 0 then
        Printf.eprintf "journal: replayed %d records (%d discarded)\n%!"
          (Exec.Journal.replayed j)
          (Exec.Journal.discarded j);
      Fun.protect
        ~finally:(fun () -> Exec.Journal.close j)
        (fun () -> k (Some j)))

(* The live side of a batch run.  [work] gets the progress heartbeat
   ([total] units of [phase]) and the pool monitor to attach: the
   heartbeat's when serving, the profiler's when profiling, both when
   both, and none otherwise, so an unserved, unprofiled run stays
   unobserved.  The profiler starts before the exporter and stops after
   it.  The clock freezes before [report] runs, so a --metrics-out
   snapshot it writes holds the bytes of the final scrape.  [series]
   joins every snapshot, [cache] adds its counters and the /healthz
   probe, [trace] the /trace.json probe.  Returns [report]'s result and
   the profile, whose attribution table went to [table] (stderr by
   default). *)
let with_run ~phase ~total ?cache ?trace ?series
    ?(table = Format.err_formatter) ~serve ~profile ~report work =
  let progress = Serve.Progress.create ~phase () in
  Serve.Progress.set_total progress total;
  Option.iter (register_cache_pulls progress) cache;
  let session = start_runtime_profile profile in
  register_runtime_pulls progress session;
  let snapshot () =
    Serve.Progress.to_snapshot progress
    @ match series with Some f -> f () | None -> []
  in
  let monitor =
    match
      ( Option.map (fun _ -> Serve.Progress.pool_monitor progress) serve,
        Option.map (fun _ -> profiler_monitor) session )
    with
    | Some live, Some profiler -> Some (both_monitors live profiler)
    | (Some _ as m), None | None, m -> m
  in
  let result =
    with_exporter
      ?health:(Option.map cache_health cache)
      ?runtime:(Option.map (fun s () -> Rp.live_json s) session)
      ?trace:(Option.map trace_probe trace)
      ~snapshot serve
      (fun () ->
        Serve.Progress.start progress;
        let r = work progress monitor in
        Serve.Progress.finish progress;
        report snapshot r)
  in
  (result, finish_runtime_profile table session)

let figure_points figures =
  List.fold_left
    (fun acc f -> acc + List.length (Exec.Sweep.points f.Exec.Figures.axes))
    0 figures

let unknown_figure name =
  `Error
    ( false,
      Printf.sprintf "unknown figure %s (available: %s)" name
        (String.concat ", "
           (List.map (fun f -> f.Exec.Figures.name) (Exec.Figures.all ()))) )

(* ------------------------------------------------------------------ *)
(* sweep *)

let measure_header = "u_p,lambda,lambda_net,s_obs,l_obs,tol_network,tol_memory"

let sweep_cmd =
  let param_conv =
    Arg.enum (List.map (fun p -> (Exec.Sweep.param_name p, p)) Exec.Sweep.all_params)
  in
  let param_arg =
    Arg.(
      non_empty
      & opt_all param_conv []
      & info [ "param" ] ~docv:"PARAM"
          ~doc:
            "Parameter to sweep: $(b,p_remote), $(b,n_t), $(b,runlength), \
             $(b,k), $(b,p_sw), $(b,l_mem) or $(b,s_switch).  Repeat \
             together with $(b,--from)/$(b,--to)/$(b,--steps) to sweep a \
             multi-parameter grid (first axis varies slowest).")
  in
  let from_arg =
    Arg.(non_empty & opt_all float [] & info [ "from" ] ~docv:"LO" ~doc:"Start value.")
  in
  let to_arg =
    Arg.(non_empty & opt_all float [] & info [ "to" ] ~docv:"HI" ~doc:"End value.")
  in
  let steps_arg =
    Arg.(
      value & opt_all int []
      & info [ "steps" ] ~docv:"N" ~doc:"Number of points (default 11).")
  in
  let print_rows params axes registry rows =
    let single = match axes with [ _ ] -> true | _ -> false in
    if single then
      Format.printf "# %a@.param,value,%s@." Params.pp params measure_header
    else
      Format.printf "# %a@.%s,%s@." Params.pp params
        (String.concat ","
           (List.map (fun a -> Exec.Sweep.param_name a.Exec.Sweep.param) axes))
        measure_header;
    List.iter
      (fun row ->
        let assigns = row.Exec.Sweep.assigns in
        match row.Exec.Sweep.result with
        | Error msg ->
          Format.printf "# skipped %s: %s@." (Exec.Sweep.label assigns) msg
        | Ok s ->
          let m = s.Exec.Sweep.measures in
          Option.iter
            (fun reg ->
              register_measures reg
                ~labels:
                  (List.map
                     (fun (p, v) ->
                       (Exec.Sweep.param_name p, Printf.sprintf "%g" v))
                     assigns)
                m)
            registry;
          let key =
            if single then
              let param, v = List.hd assigns in
              Printf.sprintf "%s,%g" (Exec.Sweep.param_name param) v
            else
              String.concat ","
                (List.map (fun (_, v) -> Printf.sprintf "%g" v) assigns)
          in
          Format.printf "%s,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f@." key
            m.Measures.u_p m.Measures.lambda m.Measures.lambda_net
            m.Measures.s_obs m.Measures.l_obs
            s.Exec.Sweep.tol_network.Tolerance.tol
            s.Exec.Sweep.tol_memory.Tolerance.tol)
      rows
  in
  let run params solver names froms tos stepss jobs chunk cache_dir
      metrics_out trace_out causal_out causal_chrome serve journal resume
      faults profile =
    let n = List.length names in
    let stepss = stepss @ List.init (max 0 (n - List.length stepss)) (fun _ -> 11) in
    if List.length froms <> n || List.length tos <> n || List.length stepss <> n
    then
      `Error
        (false, "--param, --from, --to (and --steps) must be repeated together")
    else if List.exists (fun s -> s < 2) stepss then
      `Error (false, "--steps must be at least 2")
    else begin
      let axes =
        List.map2
          (fun param (lo, (hi, steps)) ->
            { Exec.Sweep.param; values = Exec.Sweep.linspace ~lo ~hi ~steps })
          names
          (List.combine froms (List.combine tos stepss))
      in
      let meta = Exec.Sweep.journal_meta ?solver ~base:params axes in
      with_journal ?kill_after:faults.kill_after ~resume ~meta journal
      @@ fun journal ->
      let serving = serve <> None in
      let telemetry =
        Option.map (fun _ -> Lattol_obs.Solver_trace.create ()) trace_out
      in
      let causal =
        if causal_out <> None || causal_chrome <> None then
          Some (Tc.create ~root:"sweep" ())
        else None
      in
      let registry =
        if metrics_out <> None || serving then
          Some (Lattol_obs.Metrics.create ())
        else None
      in
      let cache = Exec.Cache.create ?dir:cache_dir () in
      (match (telemetry, trace_out) with
      | Some tel, Some file ->
        flush_on_exit file (fun () -> write_solver_trace tel file)
      | _ -> ());
      (match (registry, metrics_out) with
      | Some reg, Some file ->
        flush_on_exit file (fun () -> write_metrics reg file)
      | _ -> ());
      let report snapshot () =
        (match causal with
        | Some recorder ->
          Tc.seal recorder;
          let report = Trace_report.analyze recorder in
          Option.iter (fun reg -> register_point_walls reg report) registry;
          Option.iter (write_causal_report report) causal_out;
          Option.iter (write_causal_chrome recorder) causal_chrome
        | None -> ());
        (match (telemetry, trace_out) with
        | Some tel, Some file ->
          write_solver_trace tel file;
          flushed file
        | _ -> ());
        (match (registry, metrics_out) with
        | Some reg, Some file ->
          ignore (write_run_metrics ~serving ~snapshot reg file)
        | _ -> ());
        `Ok ()
      in
      fst
        ( with_run ~phase:"sweep"
            ~total:(List.length (Exec.Sweep.points axes))
            ~cache ?trace:causal
            ?series:
              (Option.map (fun reg () -> Lattol_obs.Metrics.snapshot reg)
                 registry)
            ~serve ~profile ~report
        @@ fun _ monitor ->
          Exec.Sweep.run ?solver ~cache ~jobs ?chunk ?trace:telemetry
            ?causal:(Option.map Tc.root_ctx causal) ?monitor ?journal
            ?retry:faults.retry ?deadline:faults.deadline ~chaos:faults.chaos
            ~base:params axes
          |> print_rows params axes registry )
    end
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep one or more parameters and print CSV")
    Term.(
      ret
        (const run $ params_term $ solver_term $ param_arg $ from_arg $ to_arg
       $ steps_arg
       $ jobs_term sweep_jobs_doc
       $ chunk_term
       $ cache_arg
           "Content-addressed solve cache: re-runs over the same \
            configurations perform zero new solves."
       $ metrics_out_arg $ trace_out_arg solver_trace_doc $ causal_trace_arg
       $ causal_chrome_arg $ serve_term
       $ journal_arg sweep_journal_doc
       $ resume_arg $ faults_term $ profile_runtime_arg))

(* ------------------------------------------------------------------ *)
(* figures *)

let figures_cmd =
  let out_arg =
    Arg.(
      value & opt string "figures"
      & info [ "out"; "o" ] ~docv:"DIR" ~doc:"Output directory for the CSVs.")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Solve everything fresh; keep no disk cache.")
  in
  let only_arg =
    Arg.(
      value & opt_all string []
      & info [ "only" ] ~docv:"NAME"
          ~doc:"Produce only the named figure (repeatable).")
  in
  let run params solver out jobs chunk cache_dir no_cache only metrics_out
      serve journal resume faults profile =
    let figures = Exec.Figures.all ~base:params () in
    match
      List.find_opt
        (fun name ->
          not (List.exists (fun f -> f.Exec.Figures.name = name) figures))
        only
    with
    | Some name -> unknown_figure name
    | None ->
      let figures =
        if only = [] then figures
        else List.filter (fun f -> List.mem f.Exec.Figures.name only) figures
      in
      let dir =
        if no_cache then None
        else
          Some (Option.value cache_dir ~default:(Filename.concat out "cache"))
      in
      let cache = Exec.Cache.create ?dir () in
      let meta = Exec.Figures.journal_meta ?solver figures in
      (* The journal is always on for figures — the batch is long enough
         that crash-safety should not be opt-in. *)
      let default = Filename.concat out "journal.ltj" in
      with_journal ?kill_after:faults.kill_after ~resume ~meta
        (Some (Option.value journal ~default))
      @@ fun journal ->
      let report snapshot () =
        Option.iter
          (fun file -> write_metrics_snapshot (snapshot ()) file)
          metrics_out;
        `Ok ()
      in
      fst
        ( with_run ~phase:"figures" ~total:(figure_points figures) ~cache
            ~serve ~profile ~report
        @@ fun _ monitor ->
          let written =
            Exec.Figures.write ?solver ~cache ~jobs ?chunk ?monitor ?journal
              ?retry:faults.retry ?deadline:faults.deadline
              ~chaos:faults.chaos ~dir:out figures
          in
          List.iter
            (fun w ->
              Format.printf "wrote %s (%d rows)@." w.Exec.Figures.path
                w.Exec.Figures.rows)
            written;
          Format.printf "cache: %a@." Exec.Cache.pp_stats
            (Exec.Cache.stats cache) )
  in
  Cmd.v
    (Cmd.info "figures"
       ~doc:
         "Reproduce the paper's figure sweeps as CSVs in one (optionally \
          parallel) cached batch")
    Term.(
      ret
        (const run $ params_term $ solver_term $ out_arg
       $ jobs_term
           "Worker domains per figure sweep (capped at the machine's core \
            count).  The CSVs are byte-identical for every value."
       $ chunk_term
       $ cache_arg "Cache directory (default $(docv) = OUT/cache)."
       $ no_cache_arg $ only_arg $ metrics_out_arg $ serve_term
       $ journal_arg
           "Checkpoint journal (default OUT/journal.ltj — always on): \
            solved grid points are committed with one fsync per pool \
            chunk (one per point at $(b,--jobs) 1), so a killed batch \
            loses at most one chunk and can $(b,--resume)."
       $ resume_arg $ faults_term $ profile_runtime_arg))

(* ------------------------------------------------------------------ *)
(* trace: causal-trace a figure grid and explain where the time went *)

let trace_cmd =
  let figure_arg =
    Arg.(
      value & opt string "fig04_grid"
      & info [ "figure" ] ~docv:"NAME"
          ~doc:
            "Figure grid to trace (the same names $(b,mms figures --only) \
             accepts); default is the paper's Fig. 4 grid.")
  in
  let slowest_arg =
    Arg.(
      value & opt int 3
      & info [ "slowest" ] ~docv:"K"
          ~doc:
            "Exemplar digest size: after the table, print the $(docv) \
             slowest points with their critical paths and trace ids \
             (0 disables the digest).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the critical-path report (the $(b,lattol-trace/1) \
             document /trace.json serves live) to $(docv).")
  in
  let chrome_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"FILE"
          ~doc:
            "Write the merged span timeline (one track per grid point) to \
             $(docv) in Chrome trace-event JSON.")
  in
  let run () solver figure jobs chunk cache_dir slowest json_out chrome_out
      serve =
    if slowest < 0 then `Error (false, "--slowest must be non-negative")
    else
      match Exec.Figures.find figure with
      | None -> unknown_figure figure
      | Some fig ->
        let recorder = Tc.create ~root:("trace-" ^ fig.Exec.Figures.name) () in
        let cache = Exec.Cache.create ?dir:cache_dir () in
        let report _ rows =
          Tc.seal recorder;
          let report = Trace_report.analyze recorder in
          let b = Buffer.create 8192 in
          Trace_report.pp_table b report;
          if slowest > 0 && report.Trace_report.r_points <> [] then begin
            Buffer.add_string b "\nslowest points:\n";
            Trace_report.pp_digest b ~k:slowest report
          end;
          print_string (Buffer.contents b);
          Format.printf "cache: %a@." Exec.Cache.pp_stats
            (Exec.Cache.stats cache);
          let failed =
            List.length
              (List.filter (fun r -> Result.is_error r.Exec.Sweep.result) rows)
          in
          if failed > 0 then
            Format.printf "note: %d grid points failed validation@." failed;
          Option.iter (write_causal_report report) json_out;
          Option.iter (write_causal_chrome recorder) chrome_out;
          `Ok ()
        in
        fst
          ( with_run ~phase:"trace" ~total:(figure_points [ fig ]) ~cache
              ~trace:recorder ~serve ~profile:false ~report
          @@ fun _ monitor ->
            Exec.Sweep.run ?solver ~cache ~jobs ?chunk ?monitor
              ~causal:(Tc.root_ctx recorder)
              ~journal_prefix:(fig.Exec.Figures.name ^ "/")
              ~base:fig.Exec.Figures.base fig.Exec.Figures.axes )
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Causal-trace a figure grid: per-point span trees through the \
          pool, cache, solver and journal, rendered as a critical-path \
          waterfall with a bottleneck verdict per point")
    Term.(
      ret
        (const run $ verbose_term $ solver_term $ figure_arg
       $ jobs_term
           "Worker domains for the traced sweep.  The trace explains where \
            the time goes at any $(docv); the solved rows are identical \
            for every value."
       $ chunk_term
       $ cache_arg
           "Content-addressed solve cache: trace a warm re-run to see \
            cache-wait spans replace solve spans."
       $ slowest_arg $ json_arg $ chrome_arg $ serve_term))

(* ------------------------------------------------------------------ *)
(* simulator inputs (simulate, profile, prof): one definition per flag,
   each command with its own defaults *)

let engine_arg doc =
  Arg.(
    value
    & opt (enum [ ("des", `Des); ("stpn", `Stpn) ]) `Des
    & info [ "engine" ] ~docv:"ENGINE" ~doc)

let engine_name = function `Des -> "des" | `Stpn -> "stpn"

let horizon_arg ?(doc = "Measured simulation time.") default =
  Arg.(value & opt float default & info [ "horizon" ] ~docv:"T" ~doc)

let warmup_arg ?(doc = "Warm-up time discarded before measuring.") default =
  Arg.(value & opt float default & info [ "warmup" ] ~docv:"T" ~doc)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let replications_term default doc =
  let check n =
    if n < 1 then `Error (false, "--replications must be at least 1")
    else `Ok n
  in
  Term.(
    ret
      (const check
      $ Arg.(
          value & opt int default & info [ "replications" ] ~docv:"N" ~doc)))

(* ------------------------------------------------------------------ *)
(* simulate *)

let simulate_cmd =
  let fault_mtbf_arg =
    Arg.(
      value & opt float 0.
      & info [ "fault-mtbf" ] ~docv:"T"
          ~doc:
            "Mean time between failures of the targeted components \
             (0 disables fault injection).")
  in
  let fault_mttr_arg =
    Arg.(
      value & opt float 0.
      & info [ "fault-mttr" ] ~docv:"T"
          ~doc:"Mean time to repair an outage (required with a nonzero MTBF).")
  in
  let fault_degrade_arg =
    Arg.(
      value & opt float 0.
      & info [ "fault-degrade" ] ~docv:"F"
          ~doc:
            "Service-rate multiplier during an outage: 0 (default) is a \
             full stop, 0.5 runs the component at half speed.")
  in
  let fault_target_arg =
    Arg.(
      value
      & opt (enum [ ("switch", `Switch); ("memory", `Memory); ("both", `Both) ])
          `Both
      & info [ "fault-target" ] ~docv:"TARGET"
          ~doc:
            "Component class the fault process applies to: $(b,switch), \
             $(b,memory) or $(b,both).")
  in
  let fault_plan mtbf mttr degrade target =
    if Float.equal mtbf 0. then Ok Lattol_robust.Fault_plan.none
    else begin
      let pr = Lattol_robust.Fault_plan.process ~mtbf ~mttr ~degrade in
      let plan =
        {
          Lattol_robust.Fault_plan.switch =
            (match target with `Switch | `Both -> Some pr | `Memory -> None);
          memory =
            (match target with `Memory | `Both -> Some pr | `Switch -> None);
        }
      in
      Lattol_robust.Fault_plan.validate plan
    end
  in
  let run_replicated params engine horizon warmup seed faults replications
      jobs chunk monitor journal =
    (* [jobs] must not appear here: the report is byte-identical for every
       degree of parallelism. *)
    Format.printf "replications: %d (%s)@." replications (engine_name engine);
    (* The report only ever reads each replication's measures, so the
       fan-out runs at measures level — the granularity the checkpoint
       journal records. *)
    let s =
      match engine with
      | `Des ->
        let config =
          {
            Lattol_sim.Mms_des.default_config with
            Lattol_sim.Mms_des.horizon;
            warmup;
            seed;
            faults;
          }
        in
        Exec.Replicate.des_measures ~jobs ?chunk ?monitor ?journal ~config
          ~replications params
      | `Stpn ->
        Exec.Replicate.stpn_measures ~jobs ?chunk ?monitor ?journal ~seed
          ~warmup ~horizon ~faults ~replications params
    in
    List.iteri
      (fun i m ->
        Format.printf "rep %d: U_p=%.6f lambda=%.6f@." (i + 1) m.Measures.u_p
          m.Measures.lambda)
      s.Exec.Replicate.results;
    let ci name =
      Option.iter (fun (mean, half) ->
          Format.printf "%s 95%% CI: %.4f +- %.4f across replications@." name
            mean half)
    in
    ci "U_p" s.Exec.Replicate.u_p_ci;
    ci "lambda" s.Exec.Replicate.lambda_ci
  in
  (* Everything that decides a replication's result, digested the same
     way a cache key is: a journal written under different simulation
     inputs must refuse to resume. *)
  let simulate_meta params engine horizon warmup seed faults replications =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "simulate/%d;%s;engine=%s;seed=%d;horizon=%h;\
                          warmup=%h;reps=%d;faults=%s"
            Exec.Journal.format_version
            (Exec.Cache.canonical params)
            (engine_name engine) seed horizon warmup replications
            (Format.asprintf "%a" Lattol_robust.Fault_plan.pp faults)))
  in
  let no_report _ () = `Ok () in
  let run_des params horizon warmup seed faults metrics_out trace_out serve
      profile =
    let serving = serve <> None in
    let trace = Option.map (fun _ -> Lattol_obs.Events.create ()) trace_out in
    let metrics =
      if metrics_out <> None || serving then Some (Lattol_obs.Metrics.create ())
      else None
    in
    (match (trace, trace_out) with
    | Some tr, Some file ->
      flush_on_exit file (fun () -> write_span_trace tr file)
    | _ -> ());
    (match (metrics, metrics_out) with
    | Some reg, Some file ->
      flush_on_exit file (fun () -> write_metrics reg file)
    | _ -> ());
    let report snapshot () =
      (match (metrics, metrics_out) with
      | Some reg, Some file ->
        Format.printf "metrics: %d series -> %s@."
          (write_run_metrics ~serving ~snapshot reg file)
          file
      | _ -> ());
      `Ok ()
    in
    fst
      ( with_run ~phase:"des"
          ~total:Lattol_sim.Mms_des.default_config.Lattol_sim.Mms_des.batches
          ?series:
            (Option.map (fun reg () -> Lattol_obs.Metrics.snapshot reg)
               metrics)
          ~serve ~profile ~report
      @@ fun progress _ ->
        (* Event-rate estimation straddles batches: remember the last
           batch boundary's cumulative count and wall-clock stamp. *)
        let last = ref (0, 0.) in
        let on_batch =
          if serving then
            Some
              (fun ~events ~time ->
                Serve.Progress.step progress;
                let e0, t0 = !last in
                let now = Unix.gettimeofday () in
                if t0 > 0. && now > t0 then
                  Serve.Progress.set_gauge progress "des_event_rate"
                    (float_of_int (events - e0) /. (now -. t0));
                last := (events, now);
                Serve.Progress.set_gauge progress "des_virtual_time" time;
                Serve.Progress.set_gauge progress "des_events_total"
                  (float_of_int events))
          else None
        in
        let r =
          profiled_section (fun () ->
              Lattol_sim.Mms_des.run
                ~config:
                  {
                    Lattol_sim.Mms_des.default_config with
                    Lattol_sim.Mms_des.horizon;
                    warmup;
                    seed;
                    faults;
                    trace;
                    metrics;
                    on_batch;
                  }
                params)
        in
        Format.printf "%a@." Measures.pp r.Lattol_sim.Mms_des.measures;
        let mean, half = r.Lattol_sim.Mms_des.u_p_ci in
        Format.printf "U_p 95%% CI: %.4f +- %.4f (%d events, %d remote trips)@."
          mean half r.Lattol_sim.Mms_des.events
          r.Lattol_sim.Mms_des.remote_trips;
        List.iter
          (Format.printf "%a@." Lattol_sim.Mms_des.pp_fault_stats)
          r.Lattol_sim.Mms_des.faults;
        match (trace, trace_out) with
        | Some tr, Some file ->
          write_span_trace tr file;
          flushed file;
          Format.printf "trace: %d spans -> %s%s@."
            (Lattol_obs.Events.count tr) file
            (if Lattol_obs.Events.dropped tr = 0 then ""
             else
               Printf.sprintf " (%d dropped)" (Lattol_obs.Events.dropped tr))
        | _ -> () )
  in
  let run_stpn params horizon warmup seed faults profile =
    fst
      ( with_run ~phase:"stpn" ~total:1 ~serve:None ~profile ~report:no_report
      @@ fun _ _ ->
        let r =
          profiled_section (fun () ->
              Lattol_petri.Mms_stpn.run ~seed ~warmup ~horizon ~faults params)
        in
        Format.printf "%a@." Measures.pp r.Lattol_petri.Mms_stpn.measures;
        let layout = r.Lattol_petri.Mms_stpn.layout in
        if Lattol_robust.Fault_plan.active faults then
          Format.printf
            "fault plan applied quasi-statically: S=%g L=%g after degradation@."
            layout.Lattol_petri.Mms_stpn.params.Params.s_switch
            layout.Lattol_petri.Mms_stpn.params.Params.l_mem;
        Format.printf "%a, %d firings@." Lattol_petri.Petri.pp
          layout.Lattol_petri.Mms_stpn.net
          r.Lattol_petri.Mms_stpn.stats.Lattol_petri.Simulation.events )
  in
  let run params engine horizon warmup seed faults replications jobs chunk
      metrics_out trace_out serve journal resume profile =
    if engine = `Stpn && (metrics_out <> None || trace_out <> None) then
      `Error (false, "--metrics-out/--trace-out require --engine des")
    else if replications > 1 && (metrics_out <> None || trace_out <> None)
    then `Error (false, "--metrics-out/--trace-out require --replications 1")
    else if journal <> None && replications = 1 then
      `Error (false, "--journal requires --replications > 1")
    else if serve <> None && engine = `Stpn && replications = 1 then
      (* The STPN engine has no heartbeat hook; only the replication
         fan-out is observable live. *)
      `Error
        ( false,
          "--serve/--serve-socket with --engine stpn require \
           --replications > 1" )
    else
      let meta =
        simulate_meta params engine horizon warmup seed faults replications
      in
      with_journal ~resume ~meta journal @@ fun journal ->
      Format.printf "%a@." Params.pp params;
      if Lattol_robust.Fault_plan.active faults then
        Format.printf "fault plan: %a@." Lattol_robust.Fault_plan.pp faults;
      Format.printf "@.";
      if replications > 1 then
        fst
          ( with_run ~phase:"replications" ~total:replications ~serve ~profile
              ~report:no_report
          @@ fun _ monitor ->
            run_replicated params engine horizon warmup seed faults
              replications jobs chunk monitor journal )
      else
        match engine with
        | `Des ->
          run_des params horizon warmup seed faults metrics_out trace_out
            serve profile
        | `Stpn -> run_stpn params horizon warmup seed faults profile
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate the machine (DES or STPN)")
    Term.(
      ret
        (const run $ params_term
       $ engine_arg
           "Simulator: $(b,des) (discrete-event) or $(b,stpn) (Petri net)."
       $ horizon_arg 100_000. $ warmup_arg 1_000. $ seed_arg
       $ term_result'
           (const fault_plan $ fault_mtbf_arg $ fault_mttr_arg
          $ fault_degrade_arg $ fault_target_arg)
       $ replications_term 1
           "Independent replications, each on its own random stream split \
            from $(b,--seed); reports across-replication confidence \
            intervals.  The result set is identical for every $(b,--jobs) \
            value."
       $ jobs_term
           "Worker domains for the replication fan-out (with \
            $(b,--replications)); capped at the machine's core count."
       $ chunk_term
       $ metrics_out_arg $ trace_out_arg span_trace_doc $ serve_term
       $ journal_arg
           "Checkpoint journal for the replication fan-out (requires \
            $(b,--replications) > 1): replications' measures are \
            committed with one fsync per pool chunk (one per \
            replication at $(b,--jobs) 1), so a killed run loses at most \
            one chunk and can $(b,--resume) without re-simulating \
            completed replications."
       $ resume_arg $ profile_runtime_arg))

(* ------------------------------------------------------------------ *)
(* cache maintenance *)

let cache_cmd =
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR" ~doc:"Cache directory.")
  in
  let scrub_cmd =
    let run dir =
      let report = Exec.Cache.scrub ~dir in
      Format.printf "%a@." Exec.Cache.pp_scrub report;
      (* Nonzero exit when something was quarantined: a cron'd scrub can
         alert without parsing output.  The store is already healed —
         the next run simply re-solves the quarantined keys. *)
      exit (if report.Exec.Cache.quarantined > 0 then 1 else 0)
    in
    Cmd.v
      (Cmd.info "scrub"
         ~doc:
           "Compact a solve-cache store: verify every record of its log, \
            keep the latest intact record of each key, and move corrupt or \
            torn records to lattol-cache-3.quarantine (their keys re-solve \
            on next use).  Run it while no other process writes to the \
            store.  Exits 1 if anything was quarantined.")
      Term.(const run $ dir_arg)
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Solve-cache maintenance")
    [ scrub_cmd ]

(* ------------------------------------------------------------------ *)
(* chaos (file corruptors for the chaos harness) *)

let chaos_cmd =
  let file_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE" ~doc:"Target file.")
  in
  let flip_cmd =
    let offset_arg =
      Arg.(
        value & opt int 0
        & info [ "offset" ] ~docv:"N"
            ~doc:
              "Byte offset to corrupt; negative counts back from the end \
               of the file.")
    in
    let run file offset =
      let size =
        match (Unix.stat file).Unix.st_size with
        | s -> s
        | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "mms: %s: %s\n%!" file (Unix.error_message e);
          exit 124
      in
      let offset = if offset < 0 then size + offset else offset in
      match Lattol_robust.Chaos.flip_byte ~path:file ~offset with
      | () -> `Ok ()
      | exception Invalid_argument msg -> `Error (false, msg)
      | exception Unix.Unix_error (e, _, _) ->
        `Error (false, Printf.sprintf "%s: %s" file (Unix.error_message e))
    in
    Cmd.v
      (Cmd.info "flip"
         ~doc:"XOR one byte of $(b,--file) with 0xFF (simulated bit rot)")
      Term.(ret (const run $ file_arg $ offset_arg))
  in
  let truncate_cmd =
    let keep_arg =
      Arg.(
        value & opt int 0
        & info [ "keep" ] ~docv:"N" ~doc:"Bytes to keep from the start.")
    in
    let run file keep =
      match Lattol_robust.Chaos.truncate_file ~path:file ~keep with
      | () -> `Ok ()
      | exception Invalid_argument msg -> `Error (false, msg)
      | exception Unix.Unix_error (e, _, _) ->
        `Error (false, Printf.sprintf "%s: %s" file (Unix.error_message e))
    in
    Cmd.v
      (Cmd.info "truncate"
         ~doc:"Truncate $(b,--file) to its first $(b,--keep) bytes \
               (simulated torn write)")
      Term.(ret (const run $ file_arg $ keep_arg))
  in
  Cmd.group
    (Cmd.info "chaos"
       ~doc:
         "Deterministic fault injectors: corrupt files the way dying \
          hardware would, so the self-healing paths can be exercised from \
          tests")
    [ flip_cmd; truncate_cmd ]

(* ------------------------------------------------------------------ *)
(* bench *)

let bench_cmd =
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Shrink quotas, horizons and replication counts so the run \
             finishes in seconds: same code paths and metric names, \
             coarser numbers.  CI smoke jobs and the committed baselines \
             use this mode.")
  in
  let suite_arg =
    Arg.(
      value
      & opt (enum [ ("solvers", `Solvers); ("exec", `Exec); ("all", `All) ])
          `All
      & info [ "suite" ] ~docv:"SUITE"
          ~doc:"Which suite to run: $(b,solvers), $(b,exec) or $(b,all).")
  in
  let out_dir_arg =
    Arg.(
      value & opt string "."
      & info [ "out-dir" ] ~docv:"DIR"
          ~doc:"Directory the BENCH_*.json documents are written into.")
  in
  let run quick suite out_dir =
    if not (Sys.file_exists out_dir) then
      `Error (false, Printf.sprintf "--out-dir %s does not exist" out_dir)
    else begin
      let write doc =
        let file =
          Filename.concat out_dir
            ("BENCH_" ^ doc.Lattol_bench.Bench_json.suite ^ ".json")
        in
        Lattol_bench.Bench_json.to_file doc file;
        Format.printf "wrote %s (%d metrics)@." file
          (List.length doc.Lattol_bench.Bench_json.metrics)
      in
      (match suite with
      | `Solvers | `All ->
        write (Lattol_bench.Bench_suites.solvers ~quick ())
      | `Exec -> ());
      (match suite with
      | `Exec | `All -> write (Lattol_bench.Bench_suites.exec ~quick ())
      | `Solvers -> ());
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the perf-trajectory benchmark suites and write versioned \
          BENCH_*.json documents (diff them against a committed baseline \
          with tools/bench_compare)")
    Term.(ret (const run $ quick_arg $ suite_arg $ out_dir_arg))

(* ------------------------------------------------------------------ *)
(* profile *)

let profile_cmd =
  let run () params solver horizon warmup seed metrics_out trace_out =
    (* The cross-check defaults to the Linearizer so the empirical-vs-model
       gap reflects simulation noise, not Bard-Schweitzer approximation
       error (~3% on U_p at the default configuration). *)
    let solver = Some (Option.value solver ~default:Mms.Linearizer_amva) in
    Format.printf "%a@.@." Params.pp params;
    let trace = Lattol_obs.Events.create () in
    let metrics =
      Option.map (fun _ -> Lattol_obs.Metrics.create ()) metrics_out
    in
    let config =
      {
        Lattol_sim.Mms_des.default_config with
        Lattol_sim.Mms_des.horizon;
        warmup;
        seed;
        trace = Some trace;
        metrics;
      }
    in
    let r = Lattol_sim.Mms_des.run ~config params in
    if Lattol_obs.Events.dropped trace > 0 then
      Format.printf
        "warning: span buffer full, %d spans dropped — shorten the horizon \
         for an exact breakdown@."
        (Lattol_obs.Events.dropped trace);
    let profile = Lattol_obs.Latency_profile.of_events trace in
    let summary =
      Lattol_obs.Latency_profile.summarize profile
        ~processors:(Params.num_processors params)
        ~span_time:horizon
    in
    Format.printf "%a@.@." Lattol_obs.Latency_profile.pp_summary summary;
    Format.printf "%a@.@." Lattol_obs.Latency_profile.pp_vs_model
      (summary, Mms.solve ?solver params);
    (if params.Params.p_remote > 0. then begin
       (* Second run on the paper's ideal (p_remote = 0) machine yields the
          empirical tolerance index; its CI decides the agreement verdict. *)
       let ideal_p =
         Tolerance.ideal_params Tolerance.Network_latency Tolerance.Zero_remote
           params
       in
       let ideal =
         Lattol_sim.Mms_des.run
           ~config:
             { config with Lattol_sim.Mms_des.trace = None; metrics = None }
           ideal_p
       in
       let check =
         Lattol_obs.Latency_profile.check_tolerance
           ~u_p:r.Lattol_sim.Mms_des.u_p_ci
           ~u_p_ideal:ideal.Lattol_sim.Mms_des.u_p_ci
           ~analytical:(Tolerance.network ?solver params).Tolerance.tol
       in
       Format.printf "%a@." Lattol_obs.Latency_profile.pp_tolerance_check check
     end
     else
       Format.printf "network tolerance: trivially 1 (p_remote = 0)@.");
    Option.iter (write_span_trace trace) trace_out;
    (match (metrics, metrics_out) with
    | Some reg, Some file -> write_metrics reg file
    | _ -> ())
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Empirical latency breakdown from the DES, cross-checked against \
          the analytical model and tolerance prediction")
    Term.(
      const run $ verbose_term $ params_term $ solver_term
      $ horizon_arg 10_000. $ warmup_arg 1_000. $ seed_arg $ metrics_out_arg
      $ trace_out_arg span_trace_doc)

(* ------------------------------------------------------------------ *)
(* prof: run a workload under the runtime profiler *)

let prof_cmd =
  let workload_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("replicate", `Replicate); ("sweep", `Sweep);
               ("figures", `Figures);
             ])
          `Replicate
      & info [ "workload" ] ~docv:"W"
          ~doc:
            "Workload to profile: $(b,replicate) (parallel simulator \
             replications — the speedup_j2 regression's shape), \
             $(b,sweep) (a p_remote solver sweep) or $(b,figures) (the \
             full figure batch, written to a temporary directory).")
  in
  let steps_arg =
    Arg.(
      value & opt int 24
      & info [ "steps" ] ~docv:"N"
          ~doc:"Grid points for $(b,--workload sweep).")
  in
  let prof_trace_doc =
    "Write the merged runtime timeline (per-domain GC pauses interleaved \
     with pool task spans) to $(docv) in Chrome trace-event JSON."
  in
  let run () params solver workload engine replications horizon warmup seed
      steps jobs metrics_out trace_out serve =
    if steps < 2 then `Error (false, "--steps must be at least 2")
    else begin
      let figures = Exec.Figures.all ~base:params () in
      let total =
        match workload with
        | `Replicate -> replications
        | `Sweep -> steps
        | `Figures -> figure_points figures
      in
      let (), profile =
        with_run ~phase:"prof" ~total ~table:Format.std_formatter ~serve
          ~profile:true
          ~report:(fun _ () -> ())
        @@ fun _ monitor ->
        match workload with
        | `Replicate -> (
          Format.printf "profiling replicate (%s): %d replications, jobs %d@."
            (engine_name engine) replications jobs;
          match engine with
          | `Des ->
            let config =
              {
                Lattol_sim.Mms_des.default_config with
                Lattol_sim.Mms_des.horizon;
                warmup;
                seed;
              }
            in
            ignore
              (Exec.Replicate.des_measures ~jobs ?monitor ~config ~replications
                 params)
          | `Stpn ->
            ignore
              (Exec.Replicate.stpn_measures ~jobs ?monitor ~seed ~warmup
                 ~horizon ~replications params))
        | `Sweep ->
          Format.printf "profiling sweep (p_remote x %d): jobs %d@." steps jobs;
          let axes =
            [
              {
                Exec.Sweep.param = Exec.Sweep.P_remote;
                values = Exec.Sweep.linspace ~lo:0. ~hi:0.9 ~steps;
              };
            ]
          in
          let cache = Exec.Cache.create () in
          ignore
            (Exec.Sweep.run ?solver ~cache ~jobs ?monitor ~base:params axes)
        | `Figures ->
          Format.printf "profiling figures: jobs %d@." jobs;
          let out = Filename.temp_dir "mms_prof" "figures" in
          let cache = Exec.Cache.create () in
          ignore
            (Exec.Figures.write ?solver ~cache ~jobs ?monitor ~dir:out figures)
      in
      Option.iter
        (fun p ->
          Option.iter
            (fun file ->
              let ev = Rp.to_events p in
              write_span_trace ev file;
              Format.printf "trace: %d spans -> %s%s@."
                (Lattol_obs.Events.count ev) file
                (if p.Rp.dropped_spans = 0 then ""
                 else Printf.sprintf " (%d dropped)" p.Rp.dropped_spans))
            trace_out;
          Option.iter
            (fun file ->
              let reg = Lattol_obs.Metrics.create () in
              Rp.register_metrics p reg;
              write_metrics reg file;
              Format.printf "metrics: %d series -> %s@."
                (Lattol_obs.Metrics.size reg) file)
            metrics_out)
        profile;
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "prof"
       ~doc:
         "Run a workload under the runtime profiler and print the \
          per-domain bottleneck-attribution table (compute / GC / \
          queue-idle / spawn) with a verdict naming the dominant scaling \
          limiter")
    Term.(
      ret
        (const run $ verbose_term $ params_term $ solver_term $ workload_arg
       $ engine_arg "Simulator for $(b,--workload replicate)."
       $ replications_term 4 "Replications for $(b,--workload replicate)."
       $ horizon_arg ~doc:"Measured simulation time per replication." 5_000.
       $ warmup_arg ~doc:"Warm-up time per replication." 500.
       $ seed_arg $ steps_arg
       $ jobs_term
           "Worker domains for the profiled workload.  Compare $(b,--jobs \
            1) against $(b,--jobs 2) to see where the parallel speedup \
            goes."
       $ metrics_out_arg $ trace_out_arg prof_trace_doc $ serve_term))

(* ------------------------------------------------------------------ *)
(* partition *)

let partition_cmd =
  let work_arg =
    Arg.(
      value & opt float 8.
      & info [ "work" ] ~docv:"W" ~doc:"Exposed computation budget n_t x R.")
  in
  let run params work =
    let n_ts =
      List.filter (fun n -> float_of_int n <= work *. 16.) [ 1; 2; 4; 8; 16; 32 ]
    in
    Format.printf "%a, work budget %g@.@." Params.pp params work;
    let points = Partitioning.sweep params ~work ~n_ts in
    List.iter (fun pt -> Format.printf "%a@." Partitioning.pp_point pt) points;
    let best = Partitioning.best points in
    Format.printf "best: n_t = %d, R = %g@." best.Partitioning.n_t
      best.Partitioning.runlength
  in
  Cmd.v
    (Cmd.info "partition" ~doc:"Thread-partitioning table for a work budget")
    Term.(const run $ params_term $ work_arg)

(* ------------------------------------------------------------------ *)
(* kernels *)

let kernels_cmd =
  let compute_arg =
    Arg.(
      value & opt float 0.6
      & info [ "compute" ] ~docv:"F"
          ~doc:"Local (compute) fraction of each kernel's accesses.")
  in
  let run () params compute =
    if compute < 0. || compute > 1. then
      `Error (false, "--compute must lie in [0, 1]")
    else begin
      Format.printf "%a, kernel compute fraction %g@.@." Params.pp params
        compute;
      Format.printf "  %-22s %8s %10s %8s %8s@." "kernel" "U_p" "lambda_net"
        "S_obs" "tol_net";
      List.iter
        (fun kernel ->
          match
            Kernels.compare_kernels ~base:params ~compute
              ~runlength:params.Params.runlength [ kernel ]
          with
          | [ (k, m, tol) ] ->
            Format.printf "  %-22s %8.4f %10.4f %8.3f %8.4f@."
              (Kernels.kernel_to_string k)
              m.Measures.u_p m.Measures.lambda_net m.Measures.s_obs tol
          | _ -> ()
          | exception Invalid_argument reason ->
            Format.printf "  %-22s (skipped: %s)@."
              (Kernels.kernel_to_string kernel)
              reason)
        (Kernels.all ~num_nodes:(Params.num_processors params));
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "kernels"
       ~doc:"Evaluate the classic SPMD communication kernels on this machine")
    Term.(ret (const run $ verbose_term $ params_term $ compute_arg))

(* ------------------------------------------------------------------ *)
(* report *)

let report_cmd =
  let run () params solver supervise base_iterations time_budget =
    if supervise then
      (* Vet the configuration through the supervisor first: if no solver
         converges, refuse to print a report built on garbage. *)
      supervised_exit params ~base_iterations ~time_budget (fun _ ->
          Format.printf "%a@." Report.pp (Report.analyze ?solver params))
    else Format.printf "%a@." Report.pp (Report.analyze ?solver params)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Full analysis: measures, tolerance, bottlenecks, sensitivities")
    Term.(
      const run $ verbose_term $ params_term $ solver_term $ supervise_arg
      $ budget_iterations_arg $ budget_time_arg)

(* ------------------------------------------------------------------ *)
(* sensitivity *)

let sensitivity_cmd =
  let run params solver =
    Format.printf "%a@.@." Params.pp params;
    List.iter
      (fun d -> Format.printf "%a@." Sensitivity.pp_derivative d)
      (Sensitivity.ranked ?solver params)
  in
  Cmd.v
    (Cmd.info "sensitivity"
       ~doc:"Rank parameters by their effect on processor utilization")
    Term.(const run $ params_term $ solver_term)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "latency-tolerance analysis of multithreaded architectures" in
  Cmd.group
    (Cmd.info "mms_cli" ~version:"1.0.0" ~doc)
    [
      solve_cmd; tolerance_cmd; bottleneck_cmd; sweep_cmd; figures_cmd;
      trace_cmd; simulate_cmd; bench_cmd; profile_cmd; prof_cmd;
      partition_cmd; sensitivity_cmd; report_cmd; kernels_cmd; cache_cmd;
      chaos_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
