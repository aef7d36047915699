(** Performance measures of the MMS model (Section 2 of the paper).

    All quantities are per-processor (the SPMD workload makes every node
    statistically identical); system-wide throughput is
    [P * utilization / R]. *)

type t = {
  u_p : float;
      (** processor utilization, Eq. (3): [lambda * R] *)
  lambda : float;
      (** rate at which a processor completes thread activations, i.e.
          issues memory accesses ([lambda_i]) *)
  lambda_net : float;
      (** message rate to the network, Eq. (2): [lambda * p_remote] *)
  s_obs : float;
      (** observed one-way network latency per remote access, Eq. (1)
          normalized per remote trip; [nan] when there is no remote
          traffic *)
  l_obs : float;
      (** observed memory latency (queueing + service) per memory access *)
  cycle_time : float;
      (** mean time between successive activations of the same thread *)
  util_memory : float;   (** utilization of a memory module *)
  util_switch_in : float;   (** utilization of an inbound switch *)
  util_switch_out : float;  (** utilization of an outbound switch *)
  util_sync : float;
      (** utilization of a synchronization unit (0 when the machine has
          none) *)
  su_obs : float;
      (** total SU residence (three touches, queueing included) per remote
          access; 0 without an SU, [nan] without remote traffic *)
  queue_processor : float;  (** mean threads ready/executing at the processor *)
  queue_memory : float;     (** mean accesses at a memory module *)
  queue_network : float;
      (** mean messages of one processor's threads inside the IN *)
  iterations : int;
  converged : bool;
}

val system_throughput : t -> num_processors:int -> float
(** [P * lambda]: total thread-activation completions per unit time (the
    paper's Figure 10 plots [P * U_p], proportional to this for fixed R). *)

val pp : Format.formatter -> t -> unit
