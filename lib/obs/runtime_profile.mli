(** Live consumer for the OCaml runtime's tracing ring buffers.

    Producer half: user events written into the per-domain
    [Runtime_events] rings — task/worker spans and queue depth — so pool
    activity and GC activity share one clock.  These are no-ops until a
    profiling session (or [OCAML_RUNTIME_EVENTS_START]) starts the ring
    collection, so instrumented code stays deterministic and clock-free.

    Consumer half: a sampler domain polling a self-monitoring cursor,
    folding GC phases, allocation counters and the user events into an
    {!Attribution.report}, a bounded span buffer for the Chrome
    timeline, and atomic live counters scraped via [/runtime.json]. *)

(** {1 Producer: the profiler's pool monitor and profiled sections}

    The pool itself writes nothing here.  A profiled run attaches a
    [Lattol_exec.Pool.monitor] whose hooks call these from the pool
    domain they describe: [on_worker] brackets the worker loop with
    {!worker_begin}/{!worker_end}, [on_task] each task with
    {!task_begin}/{!task_end}, and [on_claim] records {!queue_depth}.  A
    workload that runs outside the pool (a single simulator run) is
    bracketed as one worker running one task, so its time reads as
    compute rather than spawn overhead. *)

val task_begin : unit -> unit
val task_end : unit -> unit
val worker_begin : unit -> unit
val worker_end : unit -> unit

val queue_depth : int -> unit
(** Record the instantaneous work-queue depth. *)

(** {1 Profiling sessions} *)

type session

val start : unit -> session
(** Start ring collection (if not already started), open a cursor on
    this process and spawn the sampler domain.  The [<pid>.events] ring
    file goes to the working directory (or [OCAML_RUNTIME_EVENTS_DIR]);
    the timeline buffer holds 200_000 spans, and excess spans are
    counted, not stored. *)

type trace_span = {
  ring : int;
  name : string;
  cat : string;  (** ["gc"], ["runtime"], ["task"] or ["worker"] *)
  t0_ns : int64;
  t1_ns : int64;
}

type profile = {
  report : Attribution.report;
  trace_spans : trace_span list;  (** oldest first *)
  dropped_spans : int;
  pauses : (int * int64) list;  (** (ring, outermost pause ns) *)
  minor_allocated_words : int;
  minor_promoted_words : int;
  lost_events : int;
  base_ns : int64;  (** timestamp origin used by {!to_events} *)
}

val stop : session -> profile
(** Stop the sampler, drain the rings and fold the stream. *)

(** {1 Live scrape (safe while the session runs)} *)

val live_json : session -> string
(** One small JSON object from the live atomics — the [/runtime.json]
    payload. *)

val live_counters : session -> (string * float) list
(** The same live values as (metric name, value) pairs for gauge
    registration. *)

(** {1 Exports} *)

val to_events : profile -> Events.t
(** The merged timeline: one track per domain, GC/runtime spans
    interleaved with task/worker spans, timestamps rebased to
    [base_ns] in microseconds. *)

val register_metrics : profile -> Metrics.t -> unit
(** Fold the profile into a registry as [runtime_*] families:
    per-domain wall/fraction gauges and task/pause counters, a GC pause
    histogram, allocation totals, the tolerance gauge and the verdict. *)
