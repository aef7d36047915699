(** Live run-progress heartbeat.

    A [Progress.t] is the mutable side-channel a running experiment
    publishes into — points done / total, pool worker busy/idle state,
    queue depth, ad-hoc gauges (DES virtual time, event rate) and pull
    callbacks (cache hit/miss/inflight) — and the {!Exporter} reads out of.
    Every update is lock-free ([Atomic]) or under a short internal mutex,
    so instrumentation hooks may fire from any pool domain without
    affecting the computed results.

    {!to_snapshot} renders the whole state as ordinary
    {!Lattol_obs.Metrics.snapshot} series (names below, unprefixed — the
    Prometheus renderer adds [lattol_]):

    - [<phase>_points_done] (counter), [<phase>_points_total] (gauge)
    - [pool_workers], [pool_busy_domains], [pool_queue_depth] (gauges)
    - [pool_worker_busy_ns{worker=..}], [pool_worker_idle_ns{worker=..}]
      (counters; cumulative per-worker task/starvation time, advanced on
      the pool's task edges)
    - [elapsed_seconds], [eta_seconds] (gauges; ETA is linear
      extrapolation from the done/total ratio, [nan] until known)
    - one gauge or counter per {!set_gauge} / {!register_pull} series. *)

type t

val create : ?phase:string -> unit -> t
(** [phase] names the unit of work (default ["run"]): it prefixes the
    points-done/total series, e.g. [sweep_points_done]. *)

(** {1 Work accounting} *)

val set_total : t -> int -> unit
val step : ?n:int -> t -> unit

(** {1 Pool state} — normally driven by {!pool_monitor}. *)

val set_workers : t -> int -> unit
val worker_busy : t -> bool -> unit
(** [worker_busy t b] increments (true) / decrements (false) the busy
    count. *)

val worker_times : t -> (int * float * float) list
(** [(worker, busy_seconds, idle_seconds)] per worker seen so far, sorted
    by worker id.  Busy is time inside tasks, idle is time inside the
    worker loop waiting between tasks; both advance on task edges, so a
    task in flight contributes only once it ends. *)

val pool_monitor : t -> Lattol_exec.Pool.monitor
(** The {!Lattol_exec.Pool} hook bundle that keeps this heartbeat
    current: worker count from [on_start], busy/idle transitions, queue
    depth after every claim, one {!step} per completed item. *)

(** {1 Ad-hoc series} *)

val set_gauge : t -> string -> float -> unit
(** Publish/update a named gauge (first write fixes its position in the
    snapshot order). *)

val register_pull :
  t -> ?kind:[ `Counter | `Gauge ] -> string -> (unit -> float) -> unit
(** Register a callback sampled at snapshot time (default [`Gauge]).  The
    callback runs on the scraping domain: it must be domain-safe (e.g.
    {!Lattol_exec.Cache.stats}, which locks internally). *)

(** {1 Clock} *)

val start : t -> unit
(** Stamp the wall-clock start (idempotent: first call wins). *)

val finish : t -> unit
(** Freeze the clock: [elapsed_seconds] stops moving and [eta_seconds]
    drops to 0, so every later snapshot — the final scrape and the
    [--metrics-out] flush — renders identical bytes. *)

val eta : t -> float
(** Linear extrapolation of the remaining work.  Always finite and
    non-negative: with no declared total, nothing done yet, or ~0 elapsed
    time the estimate is unknown and reads as [0.] — never [inf]/[nan],
    so the [eta_seconds] gauge stays JSON-parseable. *)

val to_snapshot : t -> Lattol_obs.Metrics.snapshot
(** Point-in-time view of everything above, safe to call from any
    domain. *)
