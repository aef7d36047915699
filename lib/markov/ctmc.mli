(** Finite continuous-time Markov chains, sparsely represented.

    This is the "state space technique" the paper contrasts with MVA: exact
    but exponential in model size.  We use it as brute-force ground truth
    for the queueing solvers on deliberately tiny models. *)

type t

val create : int -> t
(** [create n] is a chain with states [0 .. n-1] and no transitions. *)

val add_rate : t -> src:int -> dst:int -> float -> unit
(** Adds to the transition rate [src -> dst].  [src <> dst], rate >= 0.
    Accumulates if called twice for the same pair. *)

val rate : t -> src:int -> dst:int -> float

val exit_rate : t -> int -> float
(** Total outgoing rate of a state. *)

val steady_state : t -> float array
(** Stationary distribution [pi] with [pi Q = 0], [sum pi = 1], computed by
    Gauss-Seidel sweeps with normalization, to a 1e-12 sweep delta.
    Requires the chain to be irreducible over the states reachable from
    state 0; raises [Failure] if the iteration does not converge within
    100,000 sweeps. *)

val expected : t -> pi:float array -> f:(int -> float) -> float
(** [expected t ~pi ~f] is [sum_i pi.(i) * f i]. *)

val flow : t -> pi:float array -> select:(src:int -> dst:int -> bool) -> float
(** Steady-state probability flux along the selected transitions:
    [sum pi.(src) * rate(src,dst)] over pairs accepted by [select].  Used to
    read throughputs out of the chain. *)
