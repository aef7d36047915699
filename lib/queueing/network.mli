(** Multi-class closed (product-form) queueing networks.

    A network is a set of service stations visited by a fixed population of
    customers partitioned into classes.  Class [c] has population
    [population.(c)]; its customers repeatedly cycle through the stations,
    making [visits.(c).(m)] visits to station [m] (relative to one cycle,
    i.e. one visit to the class's reference activity) and requiring
    [service.(c).(m)] mean service time per visit.

    Stations are either FCFS queueing stations (single server) or delay
    (infinite-server) stations.  With exponential service, class-independent
    rates at FCFS stations and Markovian routing this is a BCMP/Gordon-Newell
    network with a product-form solution, which is what the MVA solvers in
    {!Mva} and {!Amva} compute.  Class-dependent FCFS service times are
    accepted (the approximation treats them as such), with the caveat that
    exactness guarantees then no longer apply. *)

type station_kind =
  | Queueing  (** single-server FCFS *)
  | Delay     (** infinite server: no queueing, pure latency *)
  | Multi_server of int
      (** [c] identical servers sharing one FCFS queue ([c >= 1]); models
          multiported memories and pipelined switches.  Exact in
          {!Convolution} and {!Lattol_markov.Qn_ctmc} (load-dependent
          rates); {!Mva} and {!Amva} use the conditional-wait
          approximation (an arrival queues only behind the excess beyond
          [c - 1] waiting customers, served at the pooled rate). *)

type job_class = {
  class_name : string;
  population : int;            (** number of customers, >= 0 *)
  visits : float array;        (** per-station visit ratios, >= 0 *)
  service : float array;       (** per-station mean service time per visit *)
}

type t

val make : stations:(string * station_kind) array -> classes:job_class array -> t
(** Builds and validates a network.  Raises [Invalid_argument] with a
    descriptive message on dimension mismatches, negative parameters, or a
    class with no demand anywhere. *)

val num_stations : t -> int

val num_classes : t -> int

val station_name : t -> int -> string

val station_kind : t -> int -> station_kind

val class_name : t -> int -> string

val population : t -> int -> int

val populations : t -> int array

val total_population : t -> int

val visit : t -> cls:int -> station:int -> float

val service_time : t -> cls:int -> station:int -> float

val demand : t -> cls:int -> station:int -> float
(** [demand] = visit ratio x mean service time: the total service
    requirement per cycle ([D_{c,m}]). *)

val total_demand : t -> cls:int -> float
(** Sum of demands over all stations: the zero-contention cycle time. *)

val bottleneck : t -> cls:int -> int
(** Station with the largest demand for the class (ties to the lowest
    index). *)

val with_population : t -> int array -> t
(** Same network with new per-class populations. *)
