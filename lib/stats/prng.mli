(** Deterministic, splittable pseudo-random number generator.

    The generator is SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): a
    64-bit counter advanced by a golden-ratio increment and finalized by a
    Murmur3-style mixer.  It is fast, has a period of 2^64 and, crucially for
    reproducible parallel experiments, supports {!split}: deriving an
    independent stream from an existing one.  All simulation code in this
    project draws randomness through this module so that every experiment is
    replayable from a single integer seed. *)

type t
(** Mutable generator state. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] makes a fresh generator.  The default seed is a fixed
    constant so that library users get reproducible runs unless they opt into
    their own seed. *)

val copy : t -> t
(** [copy t] is an independent generator starting from [t]'s current state. *)

val split : t -> t
(** [split t] advances [t] and returns a statistically independent stream.
    Distinct splits of the same generator never share a sequence. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** [float t] is uniform on [[0, 1)] with 53 bits of precision. *)

val float_pos : t -> float
(** [float_pos t] is uniform on [(0, 1)]; never returns [0.], which makes it
    safe as an argument to [log]. *)

val int : t -> int -> int
(** [int t n] is uniform on [[0, n-1]].  [n] must be positive. *)
