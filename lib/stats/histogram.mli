(** Fixed-width histograms for distribution diagnostics (latency profiles,
    hop-count spreads) in the simulators and the CLI. *)

type t

val create : ?lo:float -> hi:float -> bins:int -> unit -> t
(** [create ~lo ~hi ~bins ()]: [bins] equal-width bins over [[lo, hi)];
    observations outside the range land in underflow/overflow counters.
    [lo] defaults to [0.]. *)

val add : t -> float -> unit

val count : t -> int
(** Total observations, including under/overflow. *)

val bins : t -> int
(** Number of bins. *)

val bin_count : t -> int -> int
(** Count in bin [i] (0-based). *)

val underflow : t -> int

val overflow : t -> int

val lo : t -> float
(** Lower bound of the binned range. *)

val hi : t -> float
(** Upper bound of the binned range. *)

val sum : t -> float
(** Sum of every observation ever added, outliers included — the
    Prometheus [_sum] companion to {!count}. *)

val copy : t -> t
(** Independent snapshot; further {!add}s to either side do not affect
    the other. *)

val bin_bounds : t -> int -> float * float
(** Inclusive-exclusive bounds of bin [i]. *)

val quantile : t -> float -> float
(** [quantile t q] approximates the [q]-quantile (0 < q < 1) by linear
    interpolation within the owning (populated) bin.  Mass outside the
    range is attributed to the nearest edge: overflow to [hi], underflow
    to [lo]; a quantile landing exactly on a bin boundary returns the
    boundary value. *)
