(** The paper's latency breakdown, measured: fold a span stream from the
    DES into per-component time accounting, and hold it against the
    analytical model.

    The tolerance index is computed from {e where time goes} — processor
    busy time versus time queued in the network, the switches and the
    memory modules.  The analytical model predicts this decomposition
    ({!Lattol_core.Measures}); this module recovers the same quantities
    empirically from the {!Events} spans the simulator emits, per
    component:

    - [Compute] / [Ready_queue]: executing vs waiting for the processor;
    - [Switch_queue] / [Network_transit]: queued at vs served by a switch;
    - [Memory_queue] / [Memory_service]: the same split at a memory module;
    - [Sync_unit]: residence at an EARTH-style SU;
    - [Network_trip]: a whole one-way remote trip (encloses its switch
      spans; kept out of the share accounting to avoid double counting,
      its mean is the empirical [S_obs]). *)

type component =
  | Compute
  | Ready_queue
  | Switch_queue
  | Network_transit
  | Memory_queue
  | Memory_service
  | Sync_unit
  | Network_trip
  | Other

type t

val of_events : Events.t -> t
(** Fold a whole recorded stream, classifying spans by name. *)

type row = {
  component : component;
  total : float;      (** summed duration over all threads *)
  count : int;
  mean : float;
  share : float;      (** of total accounted thread time (trips excluded) *)
  per_cycle : float;  (** mean time per completed thread activation *)
}

type summary = {
  processors : int;
  span_time : float;   (** measured window length *)
  cycles : int;        (** completed thread activations (compute spans) *)
  u_p : float;         (** empirical processor utilization *)
  lambda : float;      (** activations per processor per time unit *)
  s_obs : float;       (** mean one-way network trip (queueing included) *)
  l_obs : float;       (** mean memory residence per access *)
  rows : row list;     (** components with observations, fixed order *)
}

val summarize : t -> processors:int -> span_time:float -> summary

val pp_summary : Format.formatter -> summary -> unit
(** The per-component breakdown table plus the derived measures. *)

val pp_vs_model : Format.formatter -> summary * Lattol_core.Measures.t -> unit
(** Empirical column against the analytical model's prediction for the
    quantities both sides define: U_p, lambda, S_obs, L_obs. *)

(** {1 Empirical tolerance index}

    The tolerance index needs two runs — the real machine and the ideal
    one (no remote accesses) — each delivering a utilization with a
    confidence interval.  The ratio's interval follows by first-order
    error propagation. *)

type tolerance_check = {
  u_p : float * float;        (** real system: (mean, CI half-width) *)
  u_p_ideal : float * float;  (** ideal system: (mean, CI half-width) *)
  tol : float;                (** empirical index: ratio of the means *)
  tol_half : float;           (** propagated 95% half-width *)
  analytical : float;         (** model prediction, e.g. [Tolerance.network] *)
  within_ci : bool;           (** analytical value inside the empirical CI *)
}

val check_tolerance :
  u_p:float * float -> u_p_ideal:float * float -> analytical:float ->
  tolerance_check

val pp_tolerance_check : Format.formatter -> tolerance_check -> unit
