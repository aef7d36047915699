(** Generic FCFS service station for the simulator.

    A job is its completion callback, given at submission, which keeps
    model wiring in one place.  Statistics (busy time, time-averaged queue
    length, per-job response times) can be reset after warm-up so that
    steady-state estimates exclude the transient.

    Serving a job allocates nothing of its own: each priority level's
    queue is a ring of parallel arrays, each server is a slot whose
    completion event is made once by {!create}, and the statistics live
    in an all-float record.  A model that submits callbacks it made once
    (the DES's thread continuations) therefore runs its stations
    allocation-free. *)

type t

val create :
  ?servers:int -> ?priority_levels:int -> Engine.t ->
  rng:Lattol_stats.Prng.t -> name:string ->
  service:Lattol_stats.Variate.t -> t
(** [servers] (default 1) parallel servers share the queue.
    [priority_levels] (default 1) enables non-preemptive head-of-line
    priorities: level 0 is served before level 1, and so on; within a
    level the order is FCFS. *)

val name : t -> string

val submit :
  ?priority:int -> ?duration:float -> ?on_start:(unit -> unit) -> t ->
  (unit -> unit) -> unit
(** Enqueue a job; the callback fires at its service completion (current
    engine time), after the station has started its next waiting job.
    [priority] (default 0, clamped to the configured levels) selects the
    priority class; service order is FCFS within a class, non-preemptive
    across classes.  [duration] overrides the station's service
    distribution for this job (trace-driven workloads carry their own
    per-step times); it must be finite and [>= 0].  [on_start] fires at
    the instant the job's service begins — the telemetry layer uses it to
    split residence into queueing and service spans. *)

val queue_length : t -> int
(** Jobs currently present (waiting + in service). *)

val set_speed : t -> float -> unit
(** Change the station's service-rate multiplier: a job dispatched while
    the speed is [s] takes [work / s] time, where [work] is the drawn (or
    per-job) service demand.  Jobs already in service are unaffected
    (non-preemptive degradation).  The fault-injection layer uses this to
    model degraded switches and memory modules; [speed] must be positive
    and finite — model a full outage by seizing the servers with
    maximum-priority jobs of the repair duration instead. *)

val servers : t -> int

(* Statistics since the last {!reset_stats}. *)

val completed : t -> int

val utilization : t -> float
(** Mean fraction of servers busy over elapsed time. *)

val mean_queue_length : t -> float
(** Time-averaged number of jobs present. *)

val response_times : t -> Lattol_stats.Moments.t
(** Per-job response time (waiting + service) accumulator. *)

val reset_stats : t -> unit
(** Forget accumulated statistics; jobs in flight stay. *)
