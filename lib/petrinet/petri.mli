(** Stochastic timed Petri nets (structure).

    Places hold tokens; transitions consume [inputs] and produce [outputs]
    when they fire.  Transitions are either {e immediate} (fire in zero
    time, chosen among enabled immediates with probability proportional to
    weight) or {e timed} (fire after a random service delay; single-server
    semantics with enabling memory — see {!Simulation}).

    This is the modelling substrate for the paper's Section 8: the MMS is
    expressed as an STPN ({!Mms_stpn}) and simulated, cross-checking the
    queueing model from an independent formalism. *)

type place = int

type transition = int

type timing =
  | Immediate of float  (** weight (> 0) for probabilistic conflict resolution *)
  | Timed of Lattol_stats.Variate.t
      (** single-server: at most one firing in progress at a time *)
  | Timed_infinite of Lattol_stats.Variate.t
      (** infinite-server: one independent service per enabling degree
          (tokens permitting); used to model pooled multiserver stations *)

type t

module Builder : sig
  type net = t

  type t

  val create : unit -> t

  val add_place : t -> ?initial:int -> string -> place
  (** Declare a place with an initial marking (default 0). *)

  val add_transition :
    t -> string -> timing -> inputs:(place * int) list ->
    outputs:(place * int) list -> transition
  (** Declare a transition with input/output arcs (multiplicities >= 1).
      A transition must have at least one input arc. *)

  val build : t -> net
end

val num_places : t -> int

val num_transitions : t -> int

val place_name : t -> place -> string

val transition_name : t -> transition -> string

val timing : t -> transition -> timing

val enabling_degree : t -> marking:int array -> transition -> int
(** How many independent firings the marking permits:
    [min over inputs (marking / multiplicity)]. *)

val inputs : t -> transition -> (place * int) array

val outputs : t -> transition -> (place * int) array

val initial_marking : t -> int array

val consumers : t -> place -> transition array
(** Transitions with an input arc from the place, in ascending order and
    each once: the only transitions whose enabling a change to the
    place's marking can affect (used for incremental enabling updates). *)

val enabled : t -> marking:int array -> transition -> bool

val fire : t -> marking:int array -> transition -> unit
(** Consume inputs, produce outputs, in place.  Raises [Invalid_argument]
    if the transition is not enabled. *)

val is_invariant : t -> weights:float array -> bool
(** No transition's firing changes [sum_p weights.(p) * marking.(p)]
    (within 1e-9): [weights] is a P-(semi)invariant. *)

val pp : Format.formatter -> t -> unit
