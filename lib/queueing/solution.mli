(** Solver output for closed queueing networks.

    All solvers ({!Mva}, {!Amva}, {!Convolution}) produce this record so the
    rest of the system (and the tests) can treat them interchangeably. *)

type t = {
  network : Network.t;
  throughput : float array;
      (** per class: cycles completed per unit time ([lambda_c]) *)
  residence : float array array;
      (** [residence.(c).(m)]: mean total time a class-[c] cycle spends at
          station [m] (visit ratio x per-visit waiting time) *)
  queue : float array array;
      (** [queue.(c).(m)]: mean number of class-[c] customers at station [m] *)
  iterations : int;  (** iterations used (1 for direct methods) *)
  converged : bool;  (** false if an iterative solver hit its cap *)
}

val cycle_time : t -> cls:int -> float
(** Mean time for one complete cycle of a class-[c] customer. *)

val utilization : t -> station:int -> float
(** Total utilization of a station: [sum_c lambda_c * D_{c,m}].  For a
    single-server queueing station this is the busy fraction. *)

val queue_total : t -> station:int -> float
(** Mean total customers (all classes) at the station. *)

val littles_law_residual : t -> float
(** Max over classes of [|N_c - lambda_c * cycle_time_c| / max 1 N_c]: a
    consistency audit that must be ~0 for any fixed point of MVA. *)
