(** Bottleneck attribution over a runtime-event stream.

    A pure fold from per-domain begin/end marks (GC pauses, pool task
    spans, worker-loop spans) to an exact partition of each domain's
    wall time into compute / gc / idle / spawn buckets, plus a verdict
    naming the dominant scaling limiter.  All arithmetic is on int64
    nanoseconds captured elsewhere; this module never reads a clock. *)

type event_kind =
  | Gc_begin  (** runtime entered a GC/STW pause on this ring *)
  | Gc_end
  | Task_begin  (** pool started executing a task on this ring *)
  | Task_end
  | Worker_begin  (** worker loop became live on this ring *)
  | Worker_end

type event = { ring : int; at_ns : int64; kind : event_kind }

type split = {
  ring : int;
  wall_ns : int64;  (** gc + compute + idle + spawn, exactly *)
  gc_ns : int64;
  compute_ns : int64;
  idle_ns : int64;
  spawn_ns : int64;
      (** outside the worker loop: the pool keeps its domains parked
          between maps, so this is mostly time parked there, not
          spawn/join cost *)
  tasks : int;
  gc_pauses : int;
  max_gc_pause_ns : int64;
}

type verdict = Gc_bound | Starved | Spawn_bound | Compute_bound

type report = {
  window_ns : int64;
  domains : split list;  (** sorted by ring id *)
  verdict : verdict;
  tolerance : float;
      (** achieved compute fraction of total domain time: 1 = every
          domain computed the whole window (all latency tolerated),
          0 = all latency exposed *)
}

type state

val create : unit -> state

val feed : state -> event -> unit
(** Events must be time-ordered per ring; rings are independent.
    Unbalanced ends and redundant begins are ignored, never fatal. *)

val feed_list : state -> event list -> unit

val finish : ?only_instrumented:bool -> state -> t0:int64 -> t1:int64 -> report
(** Close open spans at [t1] and partition [t0,t1] per ring.
    [only_instrumented] (default true) drops rings that never saw a
    task or worker span — e.g. the sampler domain itself. *)

val gc_fraction : split -> float
val compute_fraction : split -> float
val idle_fraction : split -> float
val spawn_fraction : split -> float

val verdict_string : verdict -> string
val pp_report : Format.formatter -> report -> unit
