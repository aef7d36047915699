(** Non-preemptive head-of-line priority M/M/1 (Cobham's formulas).

    The closed-form counterpart of the simulator's priority stations
    ({!Lattol_sim.Station} with [priority_levels]): Poisson classes share
    one exponential server, higher classes go first, service in progress is
    never interrupted.  Class [k]'s mean waiting time is

    {v W_k = W0 / ((1 - sigma_{k-1}) (1 - sigma_k)) v}

    with [W0] the mean residual service at arrival and [sigma_k] the
    cumulative utilization of classes [0..k].  The test suite holds the DES
    station to these values; the local-memory-priority ablation uses them
    to explain {e why} favouring local accesses starves remote ones. *)

type class_spec = {
  arrival_rate : float;  (** Poisson rate, >= 0 *)
  service_time : float;  (** mean exponential service, > 0 *)
}

type t

val make : class_spec array -> t
(** Classes in priority order (index 0 served first).  Raises
    [Invalid_argument] on malformed input or total utilization >= 1. *)

val utilization : t -> float
(** Total server utilization. *)

val waiting_time : t -> cls:int -> float
(** Mean time in queue (excluding service) for the class. *)

val response_time : t -> cls:int -> float
(** Waiting + service. *)

val fcfs_waiting_time : t -> float
(** The priority-free baseline: M/M/1 FCFS waiting time of the merged
    stream with the same total load (exponential mixture approximated by
    its mean — exact when all classes share one service time). *)
