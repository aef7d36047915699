(** Structural analysis: place invariants (P-semiflows).

    A P-semiflow is a non-negative integer weighting of places whose
    weighted token sum is unchanged by every transition — conservation laws
    of the net (threads are never created or destroyed, a server is always
    either idle or busy, ...).  {!p_semiflows} computes a generating set of
    minimal-support semiflows with the Farkas / Martinez-Silva elimination
    on the incidence matrix; the test suite uses it to {e discover} the MMS
    model's conservation laws rather than assert them by hand. *)

exception Too_many_rows of int
(** Raised when the elimination exceeds the row cap (the worst case is
    exponential). *)

val p_semiflows : ?max_rows:int -> Petri.t -> int array list
(** Minimal-support non-negative place invariants, each normalized to
    coprime weights (default row cap 20_000).  Every returned vector [w]
    satisfies [Petri.is_invariant net ~weights:(float w)]. *)

val conserved_total : Petri.t -> weights:int array -> int
(** The (constant) weighted token sum of the initial marking. *)

val covers : int array list -> place:Petri.place -> bool
(** Does some semiflow give the place a positive weight?  A net whose
    every place is covered is structurally bounded. *)

val t_semiflows : Petri.t -> int array list
(** Transition invariants: non-negative firing-count vectors that return
    the net to its starting marking — the steady-state cycles.  In the MMS
    net every memory access (local, or remote to a given destination)
    shows up as one such cycle. *)

val reproduces_marking : Petri.t -> firings:int array -> bool
(** Check that the firing-count vector is a T-semiflow ([C x = 0]). *)
