(** System-size scaling studies (Section 7 of the paper).

    Scales the machine from [2x2] to [10x10], comparing the geometric and
    uniform remote-access patterns against each other and against an ideal
    ([S = 0]) network.  This is where the paper's most striking result
    lives: under good locality, finite switch delays pace remote traffic
    like pipeline stages, relieve memory contention, and lift system
    performance {e above} the ideal-network system ([tol_network > 1] under
    the {!Tolerance.Zero_delay} method, by up to ~1.5x). *)

open Lattol_topology

type point = {
  k : int;
  num_processors : int;
  pattern : Access.pattern;
  d_avg : float;
  measures : Measures.t;
  ideal_network : Measures.t;   (** same machine with [S = 0] *)
  tol_network : float;          (** zero-delay tolerance index *)
  throughput : float;           (** system throughput [P * lambda] *)
  throughput_ideal : float;
}

val evaluate : Params.t -> k:int -> Access.pattern -> point

val sweep : Params.t -> ks:int list -> patterns:Access.pattern list -> point list
(** Cartesian sweep, ordered patterns-within-k. *)

val pp_point : Format.formatter -> point -> unit
