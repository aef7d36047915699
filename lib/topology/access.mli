(** Remote-memory access patterns (Section 2 of the paper).

    A thread on node [i] directs each memory access to its local module with
    probability [1 - p_remote] and to a remote module otherwise.  Remote
    targets follow one of two patterns:

    - {b Geometric}: the probability that the access covers distance [h] is
      [p_sw^h / a] with [a = sum_{h=1}^{d_max} p_sw^h] (truncated geometric
      over distances), shared uniformly among the nodes at that distance.
      Low [p_sw] means high locality.
    - {b Uniform}: every one of the [P - 1] remote modules is equally
      likely.

    The matrix produced by {!matrix} is exactly the paper's visit ratio
    [em_{i,j}] of class-[i] threads to the memory at node [j]. *)

type pattern =
  | Geometric of float  (** locality parameter [p_sw], in (0, 1) *)
  | Uniform
  | Explicit of float array array
      (** a full [P x P] row-stochastic matrix of per-source target
          probabilities, diagonal = local fraction; this is the paper's
          "by changing [em_{i,j}], our model is applicable to other
          distributions".  The [p_remote] argument of {!create} is ignored
          and derived from the diagonal instead. *)

type t

val create : Topology.t -> pattern -> p_remote:float -> t
(** Precomputes per-source access probabilities.  [p_remote] must lie in
    [[0, 1]].  Raises [Invalid_argument] on bad parameters, including a
    geometric pattern on a single-node network, or an [Explicit] matrix of
    the wrong shape / with rows not summing to 1. *)

val p_remote : t -> float
(** Mean remote fraction over sources (constant for the built-in
    patterns). *)

val remote_fraction : t -> src:Topology.node -> float
(** [1 - prob t ~src ~dst:src]. *)

val is_translation_invariant : t -> bool
(** True when the pattern is identical from every node up to torus
    translation (built-in patterns on a torus); [Explicit] matrices are
    conservatively reported as non-invariant. *)

val prob : t -> src:Topology.node -> dst:Topology.node -> float
(** [prob t ~src ~dst] is [em_{src,dst}]: the probability that a memory
    access issued at [src] targets the module at [dst].  Rows sum to 1. *)

val matrix : t -> float array array
(** Full [P x P] matrix of {!prob} (rows indexed by source). *)

val distance_pmf : t -> src:Topology.node -> float array
(** [distance_pmf t ~src].(h) is the probability that an access from [src]
    travels exactly [h] hops (index 0 is the local-access probability). *)

val average_distance : t -> src:Topology.node -> float
(** Mean hops covered by a {e remote} access from [src] (the paper's
    [d_avg]); [nan] when [p_remote = 0]. *)
