(** A small suite of classic SPMD communication kernels as access
    patterns.

    Each kernel is the communication skeleton of a well-known parallel
    computation, expressed as the probability matrix [em_{i,j}] its memory
    accesses induce on the machine — ready to feed the model through
    {!Lattol_topology.Access.Explicit}.  Together with {!Workload}'s loop
    and grid builders this gives the paper's "program workload" knob a
    concrete library: the intro's claim that the tolerance index guides
    "computation decomposition and data distribution" can be exercised on
    patterns harder than a stencil.

    All kernels are parameterized by the fraction [compute] of accesses
    that stay local (the computation part); the remaining accesses follow
    the kernel's communication pattern. *)

open Lattol_topology

type kernel =
  | Nearest_neighbour
      (** each remote access goes to one of the topology neighbours,
          uniformly — an idealized halo exchange *)
  | Transpose
      (** node with coordinates (x, y) exchanges with (y, x): the matrix
          transpose / corner-turn pattern (2-D machines) *)
  | Reduction
      (** binary-tree reduction over node indices: node [i] sends to
          [i / 2]; node 0 only computes *)
  | Butterfly of int
      (** stage [s] of an FFT/hypercube butterfly: node [i] exchanges with
          [i xor 2^s] (indices beyond the node count wrap) *)
  | Ring_shift
      (** systolic shift: node [i] sends to [(i + 1) mod P] in node
          numbering — cheap on a ring, strided on higher-dimensional
          machines *)
  | All_to_all  (** uniform — every remote module equally likely *)

val matrix : kernel -> Topology.t -> compute:float -> float array array
(** The induced access matrix; [compute] in [[0, 1]] is the local
    fraction.  Raises [Invalid_argument] for kernels that do not fit the
    topology (e.g. {!Transpose} on a ring). *)

val to_params : base:Params.t -> kernel -> compute:float ->
  runlength:float -> Params.t

val kernel_to_string : kernel -> string

val all : num_nodes:int -> kernel list
(** The kernels applicable to a machine of that size (butterfly stages up
    to the largest power of two below the node count). *)

val compare_kernels :
  base:Params.t -> compute:float -> runlength:float ->
  kernel list -> (kernel * Measures.t * float) list
(** Solve each kernel's machine and report [(kernel, measures,
    tol_network)]. *)
