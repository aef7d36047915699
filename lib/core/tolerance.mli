(** The tolerance index — the paper's contribution (Section 4).

    [tol_subsystem = U_p(real) / U_p(ideal subsystem)], where the ideal
    subsystem offers zero delay.  A latency is {e tolerated} when removing
    it entirely would not improve processor utilization.

    The paper describes two ways to obtain the ideal system and we support
    both:
    - {!Zero_delay}: set the subsystem's service time to zero ([S = 0] for
      the network, [L = 0] for memory).  Section 7's comparisons against an
      "ideal (very fast) network" use this, and it is the method under
      which locality can push [tol_network] {e above} 1 (finite switch
      delays pace remote traffic and relieve memory contention).
    - {!Zero_remote}: set [p_remote = 0] so no access touches the network.
      This is the method the paper prefers for measurements on real
      machines, and the one its Figures 4-6 tolerance numbers follow; it
      only applies to the network subsystem. *)

type subsystem =
  | Network_latency
  | Memory_latency

type ideal_method =
  | Zero_delay
  | Zero_remote

type zone =
  | Tolerated            (** [tol >= 0.8] *)
  | Partially_tolerated  (** [0.5 <= tol < 0.8] *)
  | Not_tolerated        (** [tol < 0.5] *)

type report = {
  subsystem : subsystem;
  ideal_method : ideal_method;
  tol : float;            (** the tolerance index *)
  u_p : float;            (** utilization of the real system *)
  u_p_ideal : float;      (** utilization of the ideal system *)
  zone : zone;
  real : Measures.t;
  ideal : Measures.t;
}

val zone_of_index : float -> zone
(** Zone classification with the paper's 0.8 / 0.5 boundaries. *)

val ideal_params : subsystem -> ideal_method -> Params.t -> Params.t
(** Parameters of the corresponding ideal system.  Raises
    [Invalid_argument] for [Memory_latency, Zero_remote] (removing remote
    accesses does not idealize the memory). *)

val of_measures :
  ?ideal_method:ideal_method -> subsystem -> real:Measures.t ->
  ideal:Measures.t -> report
(** Form the index from measures that are already in hand — the real and
    ideal systems' solutions, however they were obtained (a shared solve, a
    cache hit, a simulation).  No solver runs.  [ideal_method] is recorded
    in the report only; it defaults to [Zero_remote] for the network and
    [Zero_delay] for memory. *)

val network :
  ?solver:Mms.solver -> ?ideal_method:ideal_method -> Params.t -> report
(** Solve the real and ideal systems and form the network tolerance
    index; [ideal_method] defaults to [Zero_remote] (the paper's
    preference). *)

val memory : ?solver:Mms.solver -> Params.t -> report
(** The memory tolerance index, against the [Zero_delay] ideal. *)

val threads_needed :
  ?target:float -> ?max_threads:int -> subsystem -> Params.t -> int option
(** Smallest [n_t <= max_threads] (default 16) whose tolerance index,
    solved by the default solver against the subsystem's default ideal,
    reaches [target] (default 0.8, the paper's "tolerated" boundary);
    [None] if no thread count up to the cap suffices.  The paper's
    observation that "the n_t to tolerate the network latency does not
    change with the size of the system" is this function swept over [k]. *)

val pp_report : Format.formatter -> report -> unit

val zone_to_string : zone -> string
