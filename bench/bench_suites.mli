(** The suites behind [mms bench], each producing one {!Bench_json.doc}.

    Quick mode ([~quick:true]) shrinks Bechamel quotas, simulation
    horizons and replication counts so a run finishes in seconds — same
    code paths, same metric names, coarser numbers.  CI smoke jobs and
    cram tests use it; perf-trajectory baselines should too, so the
    committed files stay cheap to regenerate. *)

val solvers : quick:bool -> unit -> Bench_json.doc
(** Micro-benchmarks of the four analytical solvers and both simulators:
    [solvers/<name>/time] (ns/run, Bechamel OLS estimate) and
    [solvers/<name>/minor_alloc] (minor words/run, averaged over a fixed
    number of runs) per subject, plus absolute word deltas over one
    un-timed run — [solvers/<name>/minor_words], [.../major_words] and
    [.../promoted_words] — so allocation drift gates alongside time
    drift.  Minor words are exact counts from [Gc.minor_words ()]; the
    major and promoted words come from [Gc.quick_stat]. *)

val exec : quick:bool -> unit -> Bench_json.doc
(** Execution-layer numbers, all walls median-of-three:

    - [exec/scaling/cores]: {!Lattol_exec.Pool.available_cores} — the
      context every other number in the file must be read in;
    - [exec/replicate/wall_j1] and [exec/replicate/speedup_j{2,4,8}]:
      CPU-bound replication fan-out.  On an N-core machine the pool caps
      workers at N, so on a 1-core runner these sit near 1.0 by design
      (not above it — that is what [exec/pool/*] is for);
    - [exec/pool/speedup_j{2,4,8}]: pure dispatch scaling over tasks
      that park (sleep) rather than compute, with [oversubscribe] and
      [chunk:1].  Latency-bound tasks overlap on any core count, so
      these are the portable floor-gated speedups (CI asserts j2 >= a
      hard floor);
    - [exec/figures/speedup_j2]: a figures-shaped two-axis analytical
      grid, fresh cache per timing;
    - [exec/cache/warm_hit_rate] (deterministically 1.0) and
      [exec/cache/lookup_time] as before. *)
