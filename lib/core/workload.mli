(** From programs to model parameters: the compiler's side of the paper.

    The paper's introduction motivates the tolerance index as a tool for
    choosing "a suitable computation decomposition and data distribution".
    This module closes that loop for the paper's canonical workload — a
    do-all loop over a distributed array — by deriving the remote-access
    pattern a given data distribution induces on the machine and feeding it
    to the model as an {!Lattol_topology.Access.Explicit} matrix (the
    paper's "by changing [em_{i,j}] our model is applicable to other
    distributions").

    The loop model: an array of [elements] cells distributed over the [P]
    memory modules; iteration [e] runs on the processor that owns cell [e]
    (owner-computes); each iteration reads/writes the cells at
    [e + offset] for every [offset] in the stencil (array indices wrap
    around).  Each access is one memory operation of the machine; the
    computation between accesses is the runlength. *)

open Lattol_topology

type distribution =
  | Block             (** contiguous chunks of [elements / P] cells *)
  | Cyclic            (** cell [e] lives on module [e mod P] *)
  | Block_cyclic of int  (** blocks of the given size dealt round-robin *)

type loop = {
  elements : int;        (** array length; must be >= number of modules *)
  distribution : distribution;
  stencil : int list;    (** accessed offsets per iteration, e.g. [-1; 0; 1] *)
  work_per_access : float;  (** computation cycles between accesses (R) *)
}

val validate : num_processors:int -> loop -> (loop, string) result

val owner : loop -> num_processors:int -> element:int -> int
(** Which memory module (= node) owns an array cell. *)

val access_matrix : loop -> Topology.t -> float array array
(** [em_{i,j}]: the fraction of node [i]'s accesses that target module
    [j], counting every (iteration owned by [i]) x (stencil offset). *)

type characterization = {
  matrix : float array array;
  p_remote_mean : float;       (** mean remote fraction over nodes *)
  p_remote_max : float;
  d_avg : float;               (** mean hops of remote accesses *)
  fitted_p_sw : float option;
      (** geometric locality parameter fitted to the distance profile
          (ratio of successive distance masses); [None] when there is no
          remote traffic or a single remote distance *)
}

val characterize : loop -> Topology.t -> characterization
(** Summary statistics of the induced pattern, including a geometric fit
    for users who want the paper's two-parameter abstraction. *)

val to_params : ?n_t:int -> base:Params.t -> loop -> Params.t
(** Model parameters for running this loop on the [base] machine: the
    runlength becomes [work_per_access], the access pattern the explicit
    induced matrix, and [n_t] (default: the base machine's) threads expose
    that many concurrent iterations per processor. *)

val compare_distributions :
  base:Params.t -> elements:int -> stencil:int list ->
  work_per_access:float -> distribution list ->
  (distribution * characterization * Measures.t * float) list
(** Evaluate the same loop under several distributions; each result carries
    the induced characterization, the solved measures and the network
    tolerance index — the decision data for a compiler choosing a layout. *)

val distribution_to_string : distribution -> string

(** {1 Two-dimensional grids}

    The torus machine's natural workload: a do-all over an [rows x cols]
    grid (e.g. a 5-point Jacobi sweep).  The classic decomposition question
    — strips of rows versus square blocks — maps directly onto remote
    traffic: blocks have smaller perimeter-to-area ratio {e and} place
    neighbouring cells on neighbouring torus nodes. *)

module Grid : sig
  type decomposition =
    | Row_blocks
        (** contiguous bands of rows, band [b] on node [b] (row-major) *)
    | Row_cyclic   (** row [r] on node [r mod P] *)
    | Blocks
        (** a [k x k] grid of rectangular tiles, tile [(bx, by)] on the
            torus node with those coordinates — requires a 2-dimensional
            machine *)

  type t = {
    rows : int;
    cols : int;
    decomposition : decomposition;
    stencil : (int * int) list;  (** (drow, dcol) offsets, wrapping *)
    work_per_access : float;
  }

  val validate : base:Params.t -> t -> (t, string) result
  (** Checks divisibility of the grid by the machine ([P | rows] for row
      decompositions; [k | rows] and [k | cols] for [Blocks]) and stencil
      non-emptiness. *)

  val owner : t -> base:Params.t -> row:int -> col:int -> int
  (** Node owning a grid cell (indices wrap). *)

  val access_matrix : t -> base:Params.t -> float array array

  val characterize : t -> base:Params.t -> characterization

  val compare_decompositions :
    base:Params.t -> rows:int -> cols:int ->
    stencil:(int * int) list -> work_per_access:float -> decomposition list ->
    (decomposition * characterization * Measures.t * float) list
end
