(** Fault plans: failure-repair processes for machine components.

    The paper's model assumes a fault-free machine; a production analysis
    also has to answer "what does latency tolerance look like on a torus
    with a flaky switch plane or a degraded memory bank?".  A fault plan
    describes, per component class, an alternating renewal process:

    - up times are exponential with mean [mtbf];
    - outages are exponential with mean [mttr];
    - during an outage the component serves at [degrade] times its normal
      rate ([0] = completely down, [0.5] = half speed, ...).

    The DES ({!Lattol_sim.Mms_des}) injects these processes exactly, one
    independent process per station.  The STPN and the analytical model use
    the quasi-static approximation {!degrade_params}: a component that is
    up a fraction [A = mtbf / (mtbf + mttr)] of the time and serves at rate
    [degrade] otherwise has long-run average speed [A + (1 - A) degrade],
    i.e. an effective mean service time inflated by {!slowdown}. *)

type process = {
  mtbf : float;    (** mean time between failures (up time), > 0 *)
  mttr : float;    (** mean time to repair (outage length), > 0 *)
  degrade : float;
      (** service-rate multiplier while down, in [[0, 1]]: 0 is a full
          outage, values in (0, 1) model degraded service *)
}

type t = {
  switch : process option;  (** applied to every inbound and outbound switch *)
  memory : process option;  (** applied to every memory module *)
}

val none : t
(** No faults: both components [None]. *)

val active : t -> bool
(** At least one component has a fault process. *)

val process : mtbf:float -> mttr:float -> degrade:float -> process

val validate : t -> (t, string) result
(** Checks [mtbf > 0], [mttr > 0] and [degrade] in [[0, 1]] for every
    present process. *)

val validate_exn : t -> t

val availability : process -> float
(** [mtbf / (mtbf + mttr)], the long-run up fraction. *)

val slowdown : process -> float
(** [1 / (A + (1 - A) degrade)]: the factor by which the component's
    effective mean service time grows under the quasi-static view.
    [infinity] when the component is down forever at [degrade = 0]. *)

val degrade_params : t -> Lattol_core.Params.t -> Lattol_core.Params.t
(** Quasi-static degraded machine: scales [s_switch] and [l_mem] by the
    respective {!slowdown} factors, so the analytical solvers and the STPN
    see the average-rate equivalent of the fault plan. *)

val pp : Format.formatter -> t -> unit
