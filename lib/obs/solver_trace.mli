(** Solver telemetry: residual trajectories of the iterative AMVA solvers.

    The fixed-point solvers expose each sweep's residual through
    [Lattol_core.Mms.solve_network]'s [on_sweep] hook, and the
    {!Lattol_robust.Supervisor} escalation ladder retries with heavier
    damping and fallback solvers.  This recorder taps both: every attempt
    (one ladder rung, or one standalone solve) opens with its solver name,
    damping factor and iteration budget, accumulates (iteration, residual)
    samples, and closes with the outcome — so a run's convergence history
    can be plotted, diffed, or audited after the fact. *)

type sample = { iteration : int; residual : float }

type attempt = {
  index : int;       (** 1-based position in the recording *)
  label : string;    (** caller-supplied context, e.g. ["p_remote=0.4"] *)
  solver : string;
  damping : float;
  budget : int;      (** iteration budget; 0 = unknown/unbounded *)
  iterations : int;  (** sweeps used (0 until the attempt is finished) *)
  converged : bool;
  reason : string option;  (** failure reason; [None] when accepted *)
  samples : sample list;   (** chronological; capped, see {!create} *)
  dropped : int;           (** samples discarded past the cap *)
}

type t

val create : ?sample_capacity:int -> unit -> t
(** Keep at most [sample_capacity] residual samples per attempt (default
    10_000); excess samples are counted in [dropped]. *)

val start_attempt :
  t -> ?label:string -> ?budget:int -> solver:string -> damping:float ->
  unit -> unit
(** Open a new attempt; an unfinished previous attempt is closed as
    non-converged first. *)

val record : t -> iteration:int -> residual:float -> unit
(** Append a sample to the open attempt; a no-op when none is open. *)

val finish_attempt :
  ?reason:string -> t -> converged:bool -> iterations:int -> unit
(** Close the open attempt with its outcome; a no-op when none is open. *)

val solve :
  t ->
  ?label:string ->
  ?on_sweep:
    (iteration:int -> residual:float -> Lattol_queueing.Amva.progress) ->
  solver:Lattol_core.Mms.solver ->
  Lattol_core.Params.t ->
  Lattol_core.Measures.t
(** [Lattol_core.Mms.solve] recorded as one attempt: opened with the
    solver's label and the default AMVA budget and damping, one sample
    per sweep, closed with the solve's outcome.  [on_sweep] still sees
    every sweep and decides whether the solve continues.  The solve is
    recorded whatever its parameters, so callers leave out the idle
    machine ([n_t = 0]), which has no fixed point to trace.  The one
    traced-solve path of [mms solve --trace-out] and of traced sweeps. *)

val sample_capacity : t -> int
(** The per-attempt sample cap this recorder was created with. *)

val absorb : t -> t list -> unit
(** [absorb t sources] appends every attempt of every source (in list
    order, chronological within each source) to [t], renumbering
    {!attempt.index} so the merged recording stays dense and 1-based.
    This is the deterministic merge point for per-worker / per-point
    trace buffers: record each unit of work into its own private
    recorder, then absorb them in a canonical order once the parallel
    section has joined. *)

val attempts : t -> attempt list
(** Chronological; an attempt still open is reported as it stands. *)

val write_jsonl : t -> out_channel -> unit
(** One line per attempt header ([{"attempt":..,"solver":..,...}]) followed
    by one line per sample ([{"attempt":..,"iteration":..,"residual":..}]). *)

val write_csv : t -> out_channel -> unit
(** Long form: [attempt,label,solver,damping,iteration,residual]. *)
