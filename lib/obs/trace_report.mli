(** Critical-path analysis over a causal trace.

    Groups a recorder's spans by sweep point, rebuilds each point's span
    tree, and attributes the point's wall time to bottleneck categories
    by {e exclusive} time (a span's duration minus its direct children's)
    so the per-point columns always reconcile with the measured point
    wall time: [queue + cache-wait + solve + journal + other = wall]
    exactly in integer nanoseconds, i.e. within 1e-5 ms of the printed
    (3-decimal) figures.  A span whose interval lies inside a sibling of
    the same category is counted there, not again: the pool's
    ["chunk-claim"] span sits inside its point's ["queue-wait"].  The
    verdict is the dominant category; the critical path follows the
    longest child at every level. *)

type step = { s_name : string; s_cat : string; s_ms : float }

type point_report = {
  point : string;        (** stable point id, e.g. ["fig04_grid/12"] *)
  label : string;        (** human axis label from the point span's name *)
  p_trace_id : string;   (** exemplar id: trace id + "/" + point *)
  wall_ms : float;       (** the point span's measured duration *)
  queue_ms : float;
  cache_ms : float;
  solve_ms : float;
  journal_ms : float;
  other_ms : float;      (** wall minus the four attributed categories *)
  verdict : string;      (** "queue", "cache-wait", "solve", "journal",
                             or "untracked" when nothing was attributed *)
  critical_path : step list; (** root-to-leaf chain of longest children *)
  span_count : int;
}

type t = {
  r_root : string;
  r_trace_id : string;
  r_wall_ms : float;       (** root span duration *)
  r_points : point_report list; (** in natural point-id order *)
  r_verdict : string;      (** aggregate over all points *)
  r_queue_ms : float;
  r_cache_ms : float;
  r_solve_ms : float;
  r_journal_ms : float;
  r_other_ms : float;
  r_run_journal_ms : float;
      (** journal spans under no point — batched checkpoint commits,
          each serving a whole pool chunk; outside every point's wall,
          so outside the TOTAL row too *)
  r_run_journal_spans : int;
  r_span_count : int;
  r_dropped : int;
}

val analyze : Trace_ctx.recorder -> t
(** Build the report from the spans recorded so far.  Does {e not} seal
    the recorder, so a live probe (the exporter's [/trace.json]) can
    analyze a running trace — [r_wall_ms] then reads "elapsed so far".
    End-of-run callers {!Trace_ctx.seal} first for an exact run wall.
    Point order is deterministic — natural (digit-aware) order of point
    ids — and independent of scheduling, so the same work at any
    [--jobs] yields the same table. *)

val slowest : int -> t -> point_report list
(** Top-k points by wall time (descending; ties by point id). *)

val pp_table : Buffer.t -> t -> unit
(** The human waterfall: one row per point (wall and per-category ms,
    verdict), a TOTAL row, the run-level journal line, and the
    aggregate verdict line. *)

val pp_digest : Buffer.t -> k:int -> t -> unit
(** Exemplar digest for the [k] slowest points: wall, verdict, critical
    path, and the point's exemplar trace id. *)

val to_json : Buffer.t -> t -> unit
(** Machine form: [{"schema":"lattol-trace/1", ...}] with totals, the
    run-level journal time ([run_journal_ms], [run_journal_spans]), per
    point categories, verdicts and critical paths. *)

val to_events : Trace_ctx.recorder -> Events.t
(** Chrome-trace projection: one track per point (run-level spans on
    track 0), timestamps in microseconds relative to the trace start.
    Write with {!Events.write_chrome}. *)
