(* The benchmark suites behind `mms bench`.

   Two suites, each emitted as one Bench_json document:

   - "solvers": Bechamel micro-benchmarks of the analytical solvers and
     both simulators — time per run and minor-heap allocation per run;
   - "exec": end-to-end numbers for the execution layer — replication
     fan-out speedup over --jobs, warm-cache behaviour and memo lookup
     cost.

   Quick mode trades precision for wall-clock (tiny Bechamel quotas,
   short horizons, few replications): it exists so CI smoke jobs and
   cram tests finish in seconds while exercising the same code paths and
   emitting the same metric set as a full run. *)

open Lattol_core

let default = Params.default

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing *)

let ols =
  Bechamel.Analyze.ols ~bootstrap:0 ~r_square:false
    ~predictors:[| Bechamel.Measure.run |]

let estimate raw instance =
  let est = Bechamel.Analyze.one ols instance raw in
  match Bechamel.Analyze.OLS.estimates est with
  | Some (t :: _) -> t
  | Some [] | None -> nan

(* One un-timed run: absolute word deltas per subject.  Minor words come
   from [Gc.minor_words ()], which counts every allocation as it happens;
   on OCaml 5 [Gc.quick_stat]'s [minor_words] only advances at a minor
   collection, so it read whole minor heaps (or 0) instead.  Unlike the
   per-run figure these include major and promoted words, so an
   allocation diet (ROADMAP item 3) can gate all three directions of
   heap pressure, not just minor churn. *)
let gc_deltas ~name f =
  let s0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  f ();
  let minor = Gc.minor_words () -. w0 in
  let s1 = Gc.quick_stat () in
  let m field value =
    {
      Bench_json.name = Printf.sprintf "solvers/%s/%s" name field;
      units = "w";
      value;
    }
  in
  [
    m "minor_words" minor;
    m "major_words" (s1.Gc.major_words -. s0.Gc.major_words);
    m "promoted_words" (s1.Gc.promoted_words -. s0.Gc.promoted_words);
  ]

(* Per-run time (Bechamel) and exact minor allocation per run (a
   [Gc.minor_words ()] delta over a fixed number of runs), as two
   metrics. *)
let bench ~quick ~name f =
  let open Bechamel in
  let cfg =
    if quick then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.025) ~kde:None ()
    else Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:None ()
  in
  let test = Test.make ~name (Staged.stage f) in
  let runs = if quick then 3 else 10 in
  let minor_alloc () =
    let w0 = Gc.minor_words () in
    for _ = 1 to runs do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int runs
  in
  List.concat_map
    (fun elt ->
      let raw =
        Benchmark.run cfg Toolkit.Instance.[ monotonic_clock ] elt
      in
      [
        {
          Bench_json.name = Printf.sprintf "solvers/%s/time" name;
          units = "ns/run";
          value = estimate raw Toolkit.Instance.monotonic_clock;
        };
        {
          Bench_json.name = Printf.sprintf "solvers/%s/minor_alloc" name;
          units = "w/run";
          value = minor_alloc ();
        };
      ])
    (Test.elements test)
  @ gc_deltas ~name f

(* ------------------------------------------------------------------ *)
(* suite: solvers *)

let solvers ~quick () =
  let p44 = default in
  let tiny = { default with Params.k = 2; n_t = 2 } in
  let des_horizon = if quick then 500. else 2_000. in
  let stpn_horizon = if quick then 300. else 1_000. in
  let metrics =
    List.concat
      [
        bench ~quick ~name:"symmetric_4x4" (fun () ->
            ignore (Mms.solve ~solver:Mms.Symmetric_amva p44));
        bench ~quick ~name:"general_4x4" (fun () ->
            ignore (Mms.solve ~solver:Mms.General_amva p44));
        bench ~quick ~name:"linearizer_2x2" (fun () ->
            ignore
              (Mms.solve ~solver:Mms.Linearizer_amva
                 { default with Params.k = 2; n_t = 3 }));
        bench ~quick ~name:"exact_2x2" (fun () ->
            ignore (Mms.solve ~solver:Mms.Exact_mva tiny));
        bench ~quick ~name:"des_4x4" (fun () ->
            ignore
              (Lattol_sim.Mms_des.run
                 ~config:
                   {
                     Lattol_sim.Mms_des.default_config with
                     Lattol_sim.Mms_des.horizon = des_horizon;
                     warmup = 100.;
                   }
                 p44));
        bench ~quick ~name:"stpn_4x4" (fun () ->
            ignore
              (Lattol_petri.Mms_stpn.run ~warmup:100. ~horizon:stpn_horizon p44));
      ]
  in
  { Bench_json.suite = "solvers"; quick; metrics }

(* ------------------------------------------------------------------ *)
(* suite: exec *)

let wall f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Median of three timed runs: one slow outlier (a GC major slice, an OS
   scheduling hiccup) must not decide a committed speedup baseline. *)
let wall3 f =
  match List.sort Float.compare [ wall f; wall f; wall f ] with
  | [ _; m; _ ] -> m
  | _ -> assert false

let speedup ~serial t = serial /. Float.max t 1e-9

let exec ~quick () =
  let replications = if quick then 8 else 16 in
  let horizon = if quick then 2_000. else 10_000. in
  let p = { default with Params.n_t = 4 } in
  let config =
    {
      Lattol_sim.Mms_des.default_config with
      Lattol_sim.Mms_des.horizon;
      warmup = 100.;
    }
  in
  let replicate jobs =
    ignore (Lattol_exec.Replicate.des ~jobs ~config ~replications p)
  in
  replicate 1 (* warm the code paths before timing *);
  let t1 = wall3 (fun () -> replicate 1) in
  let t2 = wall3 (fun () -> replicate 2) in
  let t4 = wall3 (fun () -> replicate 4) in
  let t8 = wall3 (fun () -> replicate 8) in
  (* Pure pool-dispatch scaling, isolated from the simulators: tasks that
     PARK (sleep) instead of burning cycles overlap on any machine — the
     latency-tolerance premise applied to the pool itself — so these
     speedups hold even on a single-core runner, where CPU-bound speedup
     is physically capped at 1.  [oversubscribe] lifts the core clamp
     (parked tasks don't contend) and [chunk:1] forces one claim per
     task, making this also a worst-case scheduling-overhead gate. *)
  let pool_tasks = 16 in
  let nap = if quick then 0.004 else 0.01 in
  let dispatch jobs =
    ignore
      (Lattol_exec.Pool.map ~jobs ~oversubscribe:true ~chunk:1
         (fun _ -> Unix.sleepf nap)
         (Array.init pool_tasks Fun.id))
  in
  dispatch 1;
  let d1 = wall3 (fun () -> dispatch 1) in
  let d2 = wall3 (fun () -> dispatch 2) in
  let d4 = wall3 (fun () -> dispatch 4) in
  let d8 = wall3 (fun () -> dispatch 8) in
  (* The figures batch shape: a two-axis analytical grid, solved with a
     fresh cache per run so every timing performs the same solves. *)
  let fig_axes =
    [
      {
        Lattol_exec.Sweep.param = Lattol_exec.Sweep.N_t;
        values = [ 1.; 2.; 3.; 4. ];
      };
      {
        Lattol_exec.Sweep.param = Lattol_exec.Sweep.P_remote;
        values =
          Lattol_exec.Sweep.linspace ~lo:0. ~hi:1.
            ~steps:(if quick then 5 else 11);
      };
    ]
  in
  let figures_grid jobs =
    let cache = Lattol_exec.Cache.create () in
    ignore (Lattol_exec.Sweep.run ~cache ~jobs ~base:default fig_axes)
  in
  figures_grid 1;
  let f1 = wall3 (fun () -> figures_grid 1) in
  let f2 = wall3 (fun () -> figures_grid 2) in
  (* Causal-tracing overhead: the same grid with a live recorder attached.
     A wall ratio, so it is machine-independent; the CI ceiling on it pins
     the standing "tracing stays cheap" promise. *)
  let traced_grid () =
    let cache = Lattol_exec.Cache.create () in
    let recorder = Lattol_obs.Trace_ctx.create ~root:"bench" () in
    ignore
      (Lattol_exec.Sweep.run ~cache ~jobs:1
         ~causal:(Lattol_obs.Trace_ctx.root_ctx recorder)
         ~base:default fig_axes)
  in
  traced_grid ();
  let ft = wall3 traced_grid in
  let trace_overhead = ft /. Float.max f1 1e-9 in
  (* Warm-cache behaviour: the second identical sweep must be served
     entirely from the memo. *)
  let cache = Lattol_exec.Cache.create () in
  let axes =
    [
      {
        Lattol_exec.Sweep.param = Lattol_exec.Sweep.N_t;
        values = Lattol_exec.Sweep.linspace ~lo:1. ~hi:8. ~steps:8;
      };
    ]
  in
  let sweep () =
    ignore (Lattol_exec.Sweep.run ~cache ~jobs:1 ~base:default axes)
  in
  sweep ();
  let cold = Lattol_exec.Cache.stats cache in
  sweep ();
  let warm = Lattol_exec.Cache.stats cache in
  let second_lookups =
    warm.Lattol_exec.Cache.memo_hits - cold.Lattol_exec.Cache.memo_hits
  in
  let second_solves =
    warm.Lattol_exec.Cache.solves - cold.Lattol_exec.Cache.solves
  in
  let warm_hit_rate =
    if second_lookups + second_solves = 0 then nan
    else
      float_of_int second_lookups /. float_of_int (second_lookups + second_solves)
  in
  (* Memo lookup cost on a resident key. *)
  let key = Lattol_exec.Cache.key ~solver_id:"bench" default in
  let solve () = Mms.solve default in
  ignore (Lattol_exec.Cache.find_or_compute cache ~key solve);
  let lookup_timing =
    let open Bechamel in
    let cfg =
      if quick then
        Benchmark.cfg ~limit:50 ~quota:(Time.second 0.025) ~kde:None ()
      else Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
    in
    let test =
      Test.make ~name:"lookup"
        (Staged.stage (fun () ->
             ignore (Lattol_exec.Cache.find_or_compute cache ~key solve)))
    in
    List.map
      (fun elt ->
        let raw =
          Benchmark.run cfg Toolkit.Instance.[ monotonic_clock ] elt
        in
        {
          Bench_json.name = "exec/cache/lookup_time";
          units = "ns/run";
          value = estimate raw Toolkit.Instance.monotonic_clock;
        })
      (Test.elements test)
  in
  let m name units value = { Bench_json.name; units; value } in
  let metrics =
    [
      m "exec/scaling/cores" "n"
        (float_of_int (Lattol_exec.Pool.available_cores ()));
      m "exec/replicate/wall_j1" "s" t1;
      m "exec/replicate/speedup_j2" "x" (speedup ~serial:t1 t2);
      m "exec/replicate/speedup_j4" "x" (speedup ~serial:t1 t4);
      m "exec/replicate/speedup_j8" "x" (speedup ~serial:t1 t8);
      m "exec/pool/speedup_j2" "x" (speedup ~serial:d1 d2);
      m "exec/pool/speedup_j4" "x" (speedup ~serial:d1 d4);
      m "exec/pool/speedup_j8" "x" (speedup ~serial:d1 d8);
      m "exec/figures/speedup_j2" "x" (speedup ~serial:f1 f2);
      m "obs/trace/overhead" "x" trace_overhead;
      m "exec/cache/warm_hit_rate" "ratio" warm_hit_rate;
    ]
    @ lookup_timing
  in
  { Bench_json.suite = "exec"; quick; metrics }
