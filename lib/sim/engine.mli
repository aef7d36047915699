(** Discrete-event simulation engine.

    A pending-event set (binary heap keyed by time, with a sequence number
    so that simultaneous events fire in schedule order — determinism
    matters for reproducible experiments) plus a simulation clock.  Events
    are plain closures; model components schedule each other. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t +. delay].  [delay >= 0]. *)

val schedule_at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time variant; [time] must not be in the past. *)

type handle

val schedule_cancellable : t -> delay:float -> (unit -> unit) -> handle
(** Like {!schedule} but returns a handle usable with {!cancel}. *)

val cancel : t -> handle -> unit
(** Cancels a pending event; a no-op if it already fired or was cancelled. *)

val run : ?until:float -> t -> unit
(** Processes events in time order until the queue empties or the clock
    would pass [until] (the clock then stops exactly at [until]). *)

val events_processed : t -> int

val pending : t -> int
(** Number of scheduled (non-cancelled) events. *)
