(** Discrete-event simulation engine.

    A pending-event set (binary heap keyed by time, with a sequence number
    so that simultaneous events fire in schedule order — determinism
    matters for reproducible experiments) plus a simulation clock.  Events
    are plain closures; model components schedule each other.

    The heap is kept as parallel arrays (unboxed times, sequence numbers,
    actions, handles), so {!schedule}, {!schedule_at} and {!run} allocate
    nothing per event: a model that schedules closures it made once (a
    station's server slots, a thread's continuation) runs allocation-free
    apart from the floats that cross into the engine boxed.  Only
    {!schedule_cancellable} allocates, its handle. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay].  [delay] must be
    finite and [>= 0]; otherwise raises [Invalid_argument]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; [time] must not be in the past. *)

type handle

val schedule_cancellable : t -> delay:float -> (unit -> unit) -> handle
(** Like {!schedule} (and rejecting the same delays) but returns a handle
    usable with {!cancel}. *)

val cancel : t -> handle -> unit
(** Cancels a pending event; a no-op if it already fired or was cancelled. *)

val run : ?until:float -> t -> unit
(** Processes events in time order until the queue empties or the clock
    would pass [until] (the clock then stops exactly at [until]). *)

val events_processed : t -> int

val pending : t -> int
(** Number of scheduled (non-cancelled) events. *)
