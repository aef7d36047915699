(** Parallel independent-replication fan-out for the simulators.

    Each replication gets its own pre-derived random stream
    ({!Lattol_stats.Prng.split} from the root seed for the DES; a
    root-drawn integer seed for the STPN), fixed before any run starts, so
    the set of results is identical for every [jobs] value.  Across-run 95%
    confidence intervals come from {!Lattol_stats.Confidence.interval} over
    the per-replication means. *)

open Lattol_core

type 'a summary = {
  results : 'a list;  (** per-replication results, in replication order *)
  u_p_ci : (float * float) option;
      (** across-replication 95% CI on [U_p] as [(mean, half_width)];
          [None] with fewer than two replications *)
  lambda_ci : (float * float) option;
}

val des :
  ?jobs:int ->
  ?chunk:int ->
  ?oversubscribe:bool ->
  ?config:Lattol_sim.Mms_des.config ->
  replications:int ->
  Params.t ->
  Lattol_sim.Mms_des.result summary
(** Discrete-event replications.  [config.rng] is overridden per
    replication with a split stream rooted at [config.seed]; [trace] and
    [metrics] sinks are rejected when [replications > 1] (they are per-run
    recorders).  Raises [Invalid_argument] on [replications < 1]. *)

val stpn :
  ?jobs:int ->
  ?seed:int ->
  ?warmup:float ->
  ?horizon:float ->
  replications:int ->
  Params.t ->
  Lattol_petri.Mms_stpn.result summary
(** Stochastic-Petri-net replications with exponential memory service and
    no faults, seeded from one root generator.  The net is built once,
    before the fan-out, and every replication runs on it read-only
    ({!Lattol_petri.Mms_stpn.run_layout}): the results are those of one
    {!Lattol_petri.Mms_stpn.run} per seed, without a net built per
    replication. *)

val des_measures :
  ?jobs:int ->
  ?chunk:int ->
  ?oversubscribe:bool ->
  ?monitor:Pool.monitor ->
  ?journal:Journal.t ->
  ?causal:Lattol_obs.Trace_ctx.ctx ->
  ?config:Lattol_sim.Mms_des.config ->
  replications:int ->
  Params.t ->
  Lattol_core.Measures.t summary
(** {!des} reduced to each replication's {!Measures.t} — the level the CLI
    reports at — and therefore checkpointable: with [journal], replication
    [i] is recorded under id ["rep<i>"] with its pool chunk, and a resumed run
    replays completed replications instead of re-simulating them.  Streams
    for the full set are derived before the journal filter, so resumed and
    uninterrupted runs are byte-identical.  Checkpoints go through
    {!Journal.map}: one fsync per pool chunk (one per replication at
    [jobs = 1]), so a crash loses at most one chunk and [chunk] trades
    checkpoint granularity against disk-barrier cost.
    [trace]/[metrics] sinks are rejected at any replication count (a
    replayed run cannot reproduce them).

    [causal] threads a causal-tracing context (see {!Sweep.run}): each
    still-missing replication opens a ["point"] span named ["rep<i>"]
    covering queue wait plus a ["simulate"] solve span, and batched
    journal flushes record run-level ["journal"] spans.  Disabled by
    default; results are identical either way. *)

val stpn_measures :
  ?jobs:int ->
  ?chunk:int ->
  ?monitor:Pool.monitor ->
  ?journal:Journal.t ->
  ?causal:Lattol_obs.Trace_ctx.ctx ->
  ?seed:int ->
  ?warmup:float ->
  ?horizon:float ->
  ?faults:Lattol_robust.Fault_plan.t ->
  replications:int ->
  Params.t ->
  Lattol_core.Measures.t summary
(** {!stpn} at measures level, with [faults], journaled like
    {!des_measures}.  The (degraded) net is built once, before the
    fan-out, as in {!stpn}, even when the journal replays every
    replication. *)
