(** Deterministic (optionally parallel) parameter sweeps.

    A sweep is a cartesian grid of one or more {!axis} values applied to a
    base {!Params.t}.  Every grid point is solved exactly once per distinct
    configuration: the real solve and the two ideal-machine solves behind
    the tolerance indices all go through one shared {!Cache}, so points
    that agree on an ideal configuration (every [p_remote] point shares the
    same zero-remote ideal, for instance) reuse a single solution instead
    of re-solving it per point.

    Evaluation order is input order regardless of [jobs] — the row list is
    byte-for-byte stable under parallelism (see {!Pool}). *)

open Lattol_core

type param = P_remote | N_t | Runlength | K | P_sw | L_mem | S_switch

val all_params : param list

val param_name : param -> string
(** CLI / CSV spelling: ["p_remote"], ["n_t"], ["runlength"], ["k"],
    ["p_sw"], ["l_mem"], ["s_switch"]. *)

val apply : Params.t -> param -> float -> Params.t
(** Substitute one swept value into a parameter record.  Integer
    parameters ([N_t], [K]) round to nearest; [P_sw] installs a
    {!Lattol_topology.Access.Geometric} pattern. *)

val linspace : lo:float -> hi:float -> steps:int -> float list
(** [steps >= 2] evenly spaced values, endpoints included, computed with
    the same expression the CLI always used so sweep output stays
    byte-identical. *)

type axis = { param : param; values : float list }

type solved = {
  measures : Measures.t;
  tol_network : Tolerance.report;
  tol_memory : Tolerance.report;
}

type row = {
  assigns : (param * float) list;  (** one value per axis, in axis order *)
  result : (solved, string) result;  (** [Error] = validation message *)
}

val label : (param * float) list -> string
(** ["n_t=4"] / ["p_remote=0.2,n_t=4"] — the solver-trace attempt label. *)

val points : axis list -> (param * float) list list
(** Row-major cartesian product (first axis slowest), exposed for callers
    that need the grid shape without solving it. *)

val journal_meta : ?solver:Mms.solver -> base:Params.t -> axis list -> string
(** Digest fingerprinting everything that determines the grid's results:
    solver, the network ideal (always zero remote accesses), canonical
    base parameters, and every axis value in exact hex floats.  {!run}
    only replays journal records whose file was opened
    ({!Journal.resume}) under the same meta, so a journal can never leak
    rows into a differently-configured run. *)

val encode_row : row -> string
(** Journal payload for one row: ["ok <real>|<ideal_net>|<ideal_mem>"]
    (three {!Cache.encode_measures_line} encodings — the tolerance reports
    are recomputed from them on restore, bit-identically) or
    ["err <escaped message>"] for a validation/poisoned row. *)

val run :
  ?solver:Mms.solver ->
  ?cache:Cache.t ->
  ?jobs:int ->
  ?chunk:int ->
  ?oversubscribe:bool ->
  ?trace:Lattol_obs.Solver_trace.t ->
  ?causal:Lattol_obs.Trace_ctx.ctx ->
  ?monitor:Pool.monitor ->
  ?journal:Journal.t ->
  ?journal_prefix:string ->
  ?retry:Lattol_robust.Retry.policy ->
  ?deadline:float ->
  ?chaos:Lattol_robust.Chaos.plan ->
  base:Params.t ->
  axis list ->
  row list
(** Solve the grid: each point's real machine and its two ideals, the
    network ideal without remote accesses ({!Tolerance.Zero_remote}) and
    the memory ideal at zero delay ({!Tolerance.Zero_delay}).
    [chunk]/[oversubscribe] tune the pool's scheduling (see
    {!Pool.map_ctx}) without affecting results.  [trace] records one
    attempt per valid grid point (labelled with {!label}, through
    {!Lattol_obs.Solver_trace.solve}) at any [jobs]: each point records
    into a private per-point buffer and the buffers are
    {!Lattol_obs.Solver_trace.absorb}ed in point order after
    the pool joins, so the recording is byte-identical to a sequential
    run's.  Traced real solves bypass the cache memo (a hit would record
    no attempt, and hits depend on scheduling when configurations
    collide), so the recording is one attempt per valid point whatever
    the cache holds; journal-restored points skip evaluation entirely and
    record nothing.

    [causal] is the causal-tracing context (an enabled
    {!Lattol_obs.Trace_ctx} context, typically the recorder's root): each
    still-missing point opens a ["point"] span at submission — so its
    wall time includes queue wait — under which the pool records
    queue/claim spans, every solve (real and both ideals) records a
    ["solve"] span with residual-decade phase children, and the cache
    records its wait spans; each batched journal commit records a
    run-level ["journal"] span (see {!Journal.map}).  The
    default, {!Lattol_obs.Trace_ctx.disabled}, records nothing and reads
    no clock; either way the returned rows and every byte of downstream
    output are identical.

    [monitor] observes pool scheduling (one {!Pool.monitor} item per grid
    point) without affecting results; it is how live progress and the
    runtime profiler watch a sweep.  Untraced runs solve only through
    [cache], so its {!Cache.stats} count every solve a run performs.

    [journal] checkpoints every completed row through {!Journal.map}:
    one fsync per pool chunk, one per point at [jobs = 1], so a crash
    loses at most one chunk.  Points already present when the journal
    was resumed are skipped, so a killed sweep re-run with the same
    journal produces byte-identical rows while re-solving only the
    missing points.
    [journal_prefix] namespaces the record ids (multi-figure journals).
    [retry]/[deadline] arm per-task fault containment (see {!Pool.map_ctx});
    when either is set, a task that exhausts its attempts becomes an
    [Error "gave up after N attempts: ..."] row, journaled under its own
    point, instead of sinking the run.
    [chaos] injects deterministic faults for the chaos harness (default
    {!Lattol_robust.Chaos.none}).  Raises [Invalid_argument] on
    [jobs < 1], an empty axis list, or an empty axis. *)
