(** Open Jackson networks.

    The closed-network solvers answer "what does a fixed thread population
    achieve"; the open model answers the dual question behind the paper's
    bottleneck analysis (Eqs. 4 and 5): {e given} an offered request rate,
    which station saturates first and what latencies build up on the way.
    Stations are M/M/c queues fed by Poisson exogenous arrivals and
    Markovian routing; in steady state each station behaves as an
    independent M/M/c with the traffic-equation arrival rates. *)

type station = {
  name : string;
  servers : int;         (** [c >= 1] *)
  service_time : float;  (** mean, > 0 *)
}

type t

val make :
  stations:station array -> arrivals:float array -> routing:float array array ->
  t
(** [arrivals.(m)] is the exogenous Poisson rate into station [m];
    [routing.(m).(m')] the probability a completed job moves to [m'] (row
    sums <= 1, the deficit leaves the system).  Raises [Invalid_argument]
    on malformed input or if no job can ever leave the system while work
    arrives. *)

val throughputs : t -> float array
(** Solution of the traffic equations [lambda = arrivals + lambda R]. *)

val utilization : t -> station:int -> float
(** [rho = lambda s / c] at the station. *)

val is_stable : t -> bool
(** Every station's utilization < 1. *)

val mean_queue_length : t -> station:int -> float
(** Stationary mean number in the station (M/M/c formula; infinite when
    unstable). *)

val mean_response_time : t -> station:int -> float
(** Waiting + service per visit (Little on the station). *)

val mean_sojourn : t -> entry:int -> float
(** Expected total time in the system for a job entering at [entry],
    following the routing to eventual departure.  Infinite when unstable,
    [Invalid_argument] if the entry station gets no arrivals by routing or
    exogenously. *)

val capacity : t -> float
(** The largest uniform scaling factor [f] such that arrivals [f *
    arrivals] keep every station stable — how far the offered load is from
    the saturation the paper's Eq. 4 describes. *)
