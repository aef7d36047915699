(** Operational bounds for single-class closed networks.

    Asymptotic bounds analysis and balanced job bounds give solver-free
    envelopes on throughput.  The paper's "simple bottleneck analysis"
    (Equations 4 and 5) is an instance of the asymptotic upper bound; the
    test suite also uses these to sandwich the MVA solvers. *)

type t = {
  demand_total : float;   (** D: zero-contention cycle time *)
  demand_max : float;     (** D_max: bottleneck demand *)
  demand_avg : float;     (** D / M over queueing stations *)
  population : int;
  x_upper : float;        (** min(N / (D + Z...), 1 / D_max) *)
  x_lower : float;        (** N / (D + (N - 1) D_max) *)
  x_balanced_upper : float;  (** balanced-job upper bound *)
  x_balanced_lower : float;  (** balanced-job lower bound *)
  n_star : float;         (** knee population D / D_max (plus think time) *)
}

val analyze : Network.t -> cls:int -> t
(** Bounds for the given class, which must be the only one with customers.
    Delay-station demand is treated as think time [Z]. *)
