(** Resilient solver supervision for the MMS analytical model.

    [Mms.solve_network] reports non-convergence through a flag and happily
    returns NaN-laced iterates; left unchecked, those poison every measure
    and tolerance index computed downstream.  The supervisor wraps the
    solver with an {e escalation ladder}: it watches the fixed-point
    residual of every sweep (through {!Lattol_core.Mms.solve_network}'s
    [on_sweep] hook), aborts attempts that diverge (non-finite residual) or
    stall (no residual improvement over a window), and retries with
    progressively heavier artillery — more damping (0, 0.5, 0.9 by
    default), then the next solver in the chain
    [Symmetric_amva -> General_amva -> Linearizer_amva] — doubling the
    iteration budget at every rung, under an optional overall CPU-time
    budget.

    The accepted solution is cross-checked against solver-free closed
    forms: per-class asymptotic bounds ([X_c <= 1 / D_max,c] and
    [X_c <= N_c / D_c]), the paper's Eq. 4 network ceiling and memory
    bound ({!Lattol_core.Bottleneck}), and the Little's-law residual.
    Violations are flagged in the diagnosis, not turned into failures —
    approximate MVA may legitimately sit a few percent past a bound. *)

open Lattol_core

type abort_reason =
  | Non_finite  (** NaN or infinite residual *)
  | Stalled  (** no residual improvement over [stall_window] sweeps *)
  | Iteration_cap  (** the rung's iteration budget ran out *)
  | Time_budget  (** the overall CPU-time budget ran out *)
  | Solver_error of string  (** the solver raised (message recorded) *)

type attempt = {
  solver : Mms.solver;
  damping : float;
  iteration_budget : int;  (** this rung's [max_iterations] *)
  iterations : int;  (** sweeps actually used *)
  residual : float;
      (** last residual observed before the attempt ended ([nan] if the
          solver converged before the first observation) *)
  converged : bool;
  reason : abort_reason option;  (** [None] iff the attempt was accepted *)
}

type violation = {
  check : string;  (** which closed form was violated *)
  bound : float;
  actual : float;
}

type diagnosis = {
  attempts : attempt list;  (** chronological, accepted attempt last *)
  fallbacks : int;  (** failed attempts before the accepted one *)
  violations : violation list;  (** bound cross-check on the accepted run *)
  elapsed : float;  (** CPU seconds spent across all attempts *)
}

type outcome = Converged | Converged_after_fallback | Failed

val solve :
  ?solvers:Mms.solver list ->
  ?dampings:float list ->
  ?base_iterations:int ->
  ?time_budget:float ->
  ?telemetry:Lattol_obs.Solver_trace.t ->
  Params.t ->
  (Measures.t * diagnosis, diagnosis) result
(** Climb the ladder until a solver converges to a finite solution.

    - [solvers] (default [Symmetric_amva; General_amva; Linearizer_amva]
      when the symmetric solver applies, the last two otherwise) is the
      fallback chain; each solver is tried with every damping factor.
    - [dampings] (default [[0.; 0.5; 0.9]]) escalates under-relaxation.
    - [base_iterations] (default 2_000) is the first rung's iteration
      budget; every later rung doubles it.
    - [time_budget] (optional, CPU seconds) bounds the whole ladder;
      attempts in flight are aborted and remaining rungs skipped once it
      is exhausted.
    - [telemetry] (optional) records every rung as a
      {!Lattol_obs.Solver_trace} attempt, with the per-sweep residual
      trajectory sampled through the same [on_sweep] hook the ladder
      watches.

    Every rung solves to a 1e-8 fixed-point tolerance, and is aborted
    as stalled once its best residual has not improved for 1_000 sweeps.
    A bound cross-check allows 2% of relative headroom before it counts
    as a violation.

    [Ok (measures, diagnosis)] carries the first accepted solution;
    [Error diagnosis] means every rung failed (the measures of the last
    iterate are deliberately withheld — they are untrustworthy).  Raises
    [Invalid_argument] only for malformed parameters or option values. *)

val outcome : ('a * diagnosis, diagnosis) result -> outcome

val exit_code : outcome -> int
(** Process exit code for CLI use: 0 = converged, 3 = converged after
    fallback, 4 = failed. *)

val pp_diagnosis : Format.formatter -> diagnosis -> unit
(** Multi-line report of the ladder and the bound cross-check.  Elapsed
    time is deliberately omitted so output stays reproducible. *)
