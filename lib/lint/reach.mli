(** Phase 2: the whole-program half of the analysis.

    [build] merges the per-unit {!Callgraph} summaries and the
    {!Mutstate} inventory into one program; the {e parallel region} is
    everything reachable from a spawn-point closure
    ({!Callgraph.fn.par_root}), the {e hot region} everything reachable
    from a [[@lattol.hot]] annotation.  [analyze] evaluates the
    whole-program rules over those regions:

    - [dom-shared-mutation] — unprotected module-level mutable state
      mutated from the parallel region;
    - [dom-unprotected-read-write] — unprotected module-level mutable
      state read in the parallel region while mutated anywhere;
    - [det-prng-unsplit] — a shared toplevel [Prng] stream advanced from
      the parallel region (split streams per task instead);
    - [hot-alloc] — per-iteration allocation (closure, tuple, record,
      list, array, partial application) in the hot region;
    - [dead-export] — an interface value ([build]'s [exports]) that no
      other unit names, directly, through a module alias or under an
      [open];
    - [dead-option] — an optional parameter of an interface value that
      no application in any unit, its own included, passes by [~l] or
      [?l].  A value referenced other than as an application's head, or
      applied with labels but no positional argument, passes every
      label. *)

type program

val build :
  ?exports:Callgraph.export list -> Callgraph.t list -> Mutstate.global list ->
  program

val closure : edges:(string * string list) list -> roots:string list -> string list
(** Pure reachability over an explicit adjacency list; returns the
    sorted set of nodes reachable from [roots] (roots included).
    Exposed for the determinism/monotonicity property tests. *)

type reporter =
  rule:string ->
  file:string ->
  pos:Callgraph.pos ->
  message:string ->
  unit

val analyze : program -> enabled:(string -> bool) -> report:reporter -> unit
