(** The closed queueing network model of the multithreaded multiprocessor
    system (Figure 2 of the paper) and its solvers.

    Each processing element contributes four stations — processor, memory
    module, inbound switch, outbound switch — and each processor's [n_t]
    threads form one customer class.  A thread cycles as: execute at its
    processor (service [R + C]), issue a memory access that visits either
    the local memory or, via outbound switch / intermediate inbound switches
    / destination memory / return path, a remote one, then becomes ready
    again.

    Visit ratios per cycle of a class-[i] thread (paper's notation):
    - memory [j]: [em_{i,j}] = the access-pattern probability;
    - outbound switch [j]: [p_remote] at [j = i] (requests entering the IN)
      and [em_{i,j}] elsewhere (responses leaving memory [j]);
    - inbound switch [j]: the probability mass of request routes [i -> d]
      and response routes [d -> i] that pass through node [j] (dimension-
      order routing; a route includes its destination, not its source).

    A round trip at distance [h] therefore uses [2(h+1)] switch services,
    matching the paper's bottleneck analysis. *)

open Lattol_queueing

type solver =
  | Symmetric_amva
      (** Bard-Schweitzer fixed point specialised to the vertex-transitive
          (SPMD-on-torus) case: O(P) per sweep instead of O(P^3).  Only
          valid on a torus; the default there. *)
  | General_amva  (** the paper's Figure 3 algorithm on the full network *)
  | Linearizer_amva
      (** the Linearizer refinement on the full network: roughly [P + 1]
          times costlier than [General_amva], several times more accurate *)
  | Exact_mva
      (** exact MVA on the full network — exponential in [P * n_t], for
          validation on tiny configurations only *)

val stations_per_node : Params.t -> int
(** 4 (processor, memory, inbound switch, outbound switch), or 5 when the
    machine has a synchronization unit. *)

(* Station indices within the flat station array. *)

val processor_station : Params.t -> node:int -> int
val memory_station : Params.t -> node:int -> int
val inbound_station : Params.t -> node:int -> int
val outbound_station : Params.t -> node:int -> int
val sync_station : Params.t -> node:int -> int
(** Raises [Invalid_argument] when the machine has no SU. *)

val class_visits : Params.t -> cls:int -> float array
(** Per-cycle visit ratios of class [cls] over the [4 P] stations. *)

val class_service : Params.t -> float array
(** Per-visit mean service times over the [4 P] stations (class-
    independent). *)

val build_network : Params.t -> Network.t
(** Full multi-class network ([P] classes, [4 P] stations). *)

val symmetric_applicable : Params.t -> bool
(** Whether {!Symmetric_amva} is valid for these parameters: the access
    pattern must be translation-invariant (SPMD on a torus).  It reads
    only the pattern and the topology — a built-in pattern on a torus or
    on one node — and builds nothing, so a cache lookup can afford it;
    on every valid record it equals
    [Access.is_translation_invariant (Params.make_access p)]. *)

val default_solver : Params.t -> solver
(** The solver {!solve} and {!solve_network} pick when none is given:
    {!Symmetric_amva} where applicable, {!General_amva} otherwise. *)

val solver_label : solver -> string
(** Stable identifier ("symmetric", "amva", "linearizer", "exact") — the
    name used by the supervisor's diagnosis and the result cache keys. *)

val solve_network :
  ?solver:solver -> ?tolerance:float -> ?max_iterations:int ->
  ?damping:float ->
  ?on_sweep:(iteration:int -> residual:float -> Lattol_queueing.Amva.progress) ->
  Params.t -> Solution.t
(** Solve with the chosen solver (default [Symmetric_amva] on a torus with
    a translation-invariant pattern, [General_amva] otherwise) and return
    the full multi-class solution, for callers that need per-class
    matrices, such as the supervisor's per-class cross-checks.  The
    symmetric solver's fixed point is class 0's orbit; here it is
    expanded into a [Solution.t] with every class filled in by torus
    translation and the network built, which costs far more than the
    fixed point itself ([P] classes x [4 P] stations).  {!solve} skips
    that expansion.  [tolerance] (default 1e-8 general / 1e-10
    symmetric) and [max_iterations] (default 10_000 / 100_000) control the
    fixed-point iteration; hitting the cap is reported through the
    solution's [converged] flag, never an exception.  [damping] (default 0)
    under-relaxes the queue-length updates of the iterative solvers, and
    [on_sweep] observes every sweep's residual (see {!Amva.options}) — the
    hooks the {!Lattol_robust.Supervisor} escalation ladder is built on.
    Non-finite residuals terminate any solver immediately with
    [converged = false]. *)

val solve :
  ?solver:solver -> ?tolerance:float -> ?max_iterations:int ->
  ?on_sweep:(iteration:int -> residual:float -> Lattol_queueing.Amva.progress) ->
  Params.t -> Measures.t
(** End-to-end: validate parameters, solve, extract the paper's measures
    for (the representative) class 0, with the solve's [iterations] and
    [converged] flag.  [on_sweep] observes every fixed-point sweep exactly
    as in {!solve_network}.  The symmetric solver's measures are read
    straight from class 0's orbit: no [Solution.t] and no network are
    built.  The all-class utilization and queue sums still add every
    class's own term in class order, so the result is bit-identical to
    [measures_of_solution p (solve_network p)].  The other solvers solve
    the full network and extract through the same formulas. *)

val measures_of_solution : Params.t -> Solution.t -> Measures.t
(** Extract {!Measures.t} from a solution of {!build_network}'s layout
    (the same formulas {!solve} applies to the symmetric orbit). *)
