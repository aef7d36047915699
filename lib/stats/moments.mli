(** Streaming sample statistics.

    Welford's online algorithm: numerically stable single-pass mean and
    variance, plus extrema.  Used by the simulators for every observed
    quantity (waiting times, queue lengths, latencies). *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one observation. *)

val add_weighted : t -> weight:float -> float -> unit
(** Record an observation with a non-negative weight (used for time-weighted
    averages such as queue lengths, where the weight is the elapsed time). *)

val count : t -> int
(** Number of [add]/[add_weighted] calls. *)

val total_weight : t -> float

val mean : t -> float
(** Weighted mean; [nan] if nothing was recorded. *)

val variance : t -> float
(** Unbiased sample variance (frequency-weighted); [nan] when fewer than two
    observations. *)

val stddev : t -> float

val min : t -> float

val max : t -> float

val sum : t -> float

val merge : t -> t -> t
(** Combine two accumulators as if all observations went into one. *)
