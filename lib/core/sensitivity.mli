(** Parameter sensitivity of processor utilization.

    The paper motivates the tolerance index as a way to "narrow the focus
    to the parameters which have a large effect on the system performance".
    This module makes that quantitative: central finite differences of
    [U_p] with respect to each model parameter, reported as elasticities
    ([%] change of [U_p] per [%] change of the parameter) so that
    architects and compilers can rank the knobs. *)

type derivative = {
  param : string;       (** parameter name *)
  value : float;        (** operating-point value *)
  gradient : float;     (** dU_p / dparam (central difference) *)
  elasticity : float;
      (** (dU_p / U_p) / (dparam / param): dimensionless sensitivity;
          negative means increasing the parameter hurts *)
}

val analyze : ?solver:Mms.solver -> ?rel_step:float -> Params.t -> derivative list
(** Derivatives of [U_p] with respect to [runlength], [p_remote], [l_mem],
    [s_switch], [p_sw] (geometric patterns only) and [n_t] (one-thread
    differences).  [rel_step] is the relative perturbation for continuous
    parameters (default 0.05).  Probabilities are clamped to their valid
    range before differencing. *)

val ranked : ?solver:Mms.solver -> Params.t -> derivative list
(** {!analyze} sorted by decreasing absolute elasticity: the first entry
    is the subsystem to tune first. *)

val pp_derivative : Format.formatter -> derivative -> unit
