(** Interconnection-network topologies: k-ary n-cubes.

    The paper's machine is a [k x k] 2-dimensional torus of processing
    elements (Figure 1); this module generalizes to arbitrary-dimension
    tori and meshes (rings, 3-D cubes, ...) so that the dimensionality
    trade-off itself can be studied.  Nodes are numbered mixed-radix with
    the first dimension innermost; a [k x k] network therefore numbers
    row-major, matching the paper.  Distances are minimal hop counts;
    routes follow deterministic dimension-order routing, taking the
    shorter way around each ring on the torus with a fixed tie-break so
    that paths are reproducible. *)

type kind =
  | Torus  (** wraparound links in every dimension (the paper's default) *)
  | Mesh   (** open boundaries *)

type t

type node = int

val create : kind -> k:int -> t
(** [create kind ~k] builds the paper's [k x k] two-dimensional network.
    [k >= 1]. *)

val create_nd : kind -> dims:int list -> t
(** [create_nd kind ~dims] builds a general network with [List.nth dims d]
    nodes along dimension [d] (at least one dimension, all [>= 1]).
    [create kind ~k = create_nd kind ~dims:[k; k]]; a torus with two
    nodes along every dimension is the binary n-cube. *)

val kind : t -> kind

val dims : t -> int list

val num_dimensions : t -> int

val num_nodes : t -> int

val coords : t -> node -> int * int
(** [(x, y)] coordinates; only valid on 2-dimensional networks. *)

val of_coords : t -> int * int -> node

val coords_nd : t -> node -> int array
(** Coordinates in any dimension. *)

val of_coords_nd : t -> int array -> node

val distance : t -> node -> node -> int
(** Minimal hop count between two nodes. *)

val max_distance : t -> int
(** Network diameter ([d_max] in the paper). *)

val next_hop : t -> node:node -> dst:node -> node
(** The node a message at [node] bound for [dst] visits next on its
    dimension-order route ([node <> dst]): walking it from [src] until
    [dst] visits {!route}'s nodes, allocating nothing. *)

val iter_route : t -> src:node -> dst:node -> (node -> unit) -> unit
(** [iter_route t ~src ~dst f] applies [f] to each node of
    [route t ~src ~dst] in order, without building the list.  The one
    routing implementation: {!route} is built on it, and {!next_hop}
    takes its steps one at a time. *)

val route : t -> src:node -> dst:node -> node list
(** Dimension-order route from [src] to [dst]: the sequence of nodes the
    message visits {e after} leaving [src], ending with [dst] (empty when
    [src = dst]).  Its length equals [distance t src dst].  On a torus the
    routing commutes with {!translate}: the route from [translate s ~by]
    to [translate d ~by] is the route from [s] to [d] translated by
    [by]. *)

val neighbours : t -> node -> node list
(** Directly connected nodes (each once, sorted). *)

val distance_counts : t -> node -> int array
(** [distance_counts t src] maps distance [h] (index) to the number of nodes
    at distance exactly [h] from [src]; index 0 counts only [src] itself.
    On a torus this is independent of [src]. *)

val nodes_at_distance : t -> node -> int -> node list
(** All nodes at exactly the given distance from [src]. *)

val is_vertex_transitive : t -> bool
(** True for tori (every node sees the same distance structure). *)

val translate : t -> node -> by:node -> node
(** Coordinate-wise addition modulo the dimensions (torus only): the
    automorphism mapping node 0 to [by]. *)

val subtract : t -> node -> by:node -> node
(** Inverse of {!translate}: coordinate-wise subtraction (torus only). *)

val subtract_table : t -> node array array
(** [(subtract_table t).(n).(by) = subtract t n ~by] for every pair of
    nodes: the whole translation group, for loops that translate every
    node by every other.  Defined on the networks {!is_vertex_transitive}
    accepts: tori, and the one-node mesh (whose table is [[|[|0|]|]]). *)

val pp : Format.formatter -> t -> unit
