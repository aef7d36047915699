(* End-to-end and per-layer benchmark of the execution engine.

   Usage:
     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--nproc N] [--out FILE]

   Runs one workload (see README.md beside this file) through the public
   Lattol_exec entry points at [Inputs.jobs] pool domains, checks every
   output against a jobs = 1 reference built in set-up, and prints one
   JSON object as the last line of standard output.  [--trace 0] reports
   the end-to-end metrics from untraced batches; [--trace 1] reports the
   per-layer metrics from a traced run, measured from outside the library
   (the causal recorder and pool monitor hooks, and timed direct calls
   into each layer).  Times are reported in reference-host units (see
   speed.ml).  [--out] also writes the full result with its host record
   and the raw values.  Scratch files live under _perfbench/ in the
   working directory and are removed on exit. *)

open Lattol_core
open Perfbench_lib
module E = Lattol_exec
module Tc = Lattol_obs.Trace_ctx
module Tr = Lattol_obs.Trace_report
module Des = Lattol_sim.Mms_des
module Stpn = Lattol_petri.Mms_stpn

let jobs = Inputs.jobs
let now = Unix.gettimeofday
let ratio a b = if b = 0. then 0. else a /. b

(* ------------------------------------------------------------------ *)
(* scratch files *)

(* Nothing is deleted until the run ends: on a filesystem that discards
   freed blocks (ext4 -o discard), deleting thousands of files slows file
   operations for minutes afterwards, so batch walls would drift upwards
   through the run. *)

let work_root =
  Filename.concat "_perfbench" (Printf.sprintf "work-%d" (Unix.getpid ()))

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dirs_made = ref 0

let fresh_dir tag =
  incr dirs_made;
  Filename.concat work_root (Printf.sprintf "%s-%d" tag !dirs_made)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* timed batches *)

type batch = {
  wall : float;  (** seconds *)
  cpu : float;  (** process CPU seconds, every domain *)
  sys : float;  (** the kernel-mode part of [cpu] *)
  points : int;
  minor_gcs : int;
  major_gcs : int;
  promoted : float;
}

let cpu_now () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime, t.Unix.tms_stime)

(* GC counters are read after [f] returns, i.e. after the pool joined. *)
let timed ~points f =
  let g0 = Gc.quick_stat () in
  let c0, s0 = cpu_now () in
  let t0 = now () in
  let r = f () in
  let wall = now () -. t0 in
  let c1, s1 = cpu_now () in
  let g1 = Gc.quick_stat () in
  ( r,
    {
      wall;
      cpu = c1 -. c0;
      sys = s1 -. s0;
      points;
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
      promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    } )

(* ------------------------------------------------------------------ *)
(* traced-run observation: the pool monitor and causal recorders *)

let max_workers = 64

type pool_obs = {
  lock : Mutex.t;
  mutable effective_jobs : int;
  mutable claims : int;
  mutable inflight : int;  (** submitted, not yet finished *)
  mutable changed_at : float;
  mutable inflight_area : float;  (** integral of [inflight] over time, s *)
  task_t0 : float array;
  loop_t0 : float array;
  mutable task_s : float;  (** summed time inside tasks *)
  mutable loop_s : float;  (** summed time inside worker loops *)
}

type probe = { obs : pool_obs; mutable recorders : Tc.recorder list }

let new_probe () =
  {
    obs =
      {
        lock = Mutex.create ();
        effective_jobs = 0;
        claims = 0;
        inflight = 0;
        changed_at = now ();
        inflight_area = 0.;
        task_t0 = Array.make max_workers 0.;
        loop_t0 = Array.make max_workers 0.;
        task_s = 0.;
        loop_s = 0.;
      };
    recorders = [];
  }

let pool_monitor probe =
  let o = probe.obs in
  let locked f = Mutex.protect o.lock f in
  let advance t =
    o.inflight_area <- o.inflight_area +. (float_of_int o.inflight *. (t -. o.changed_at));
    o.changed_at <- t
  in
  let edge t0 total ~worker ~busy =
    if worker >= 0 && worker < max_workers then
      locked (fun () ->
          let t = now () in
          if busy then t0.(worker) <- t else total (t -. t0.(worker)))
  in
  {
    E.Pool.on_start =
      (fun ~jobs ~items ->
        locked (fun () ->
            advance (now ());
            o.inflight <- o.inflight + items;
            o.effective_jobs <- max o.effective_jobs jobs));
    on_worker = edge o.loop_t0 (fun d -> o.loop_s <- o.loop_s +. d);
    on_claim = (fun ~remaining:_ -> locked (fun () -> o.claims <- o.claims + 1));
    on_item =
      (fun () ->
        locked (fun () ->
            advance (now ());
            o.inflight <- o.inflight - 1));
    on_task = edge o.task_t0 (fun d -> o.task_s <- o.task_s +. d);
  }

(* A fresh recorder per phase: replications of two engines would otherwise
   share point ids ("rep0"). *)
let causal probe root =
  let r = Tc.create ~root () in
  probe.recorders <- r :: probe.recorders;
  Tc.root_ctx r

(* ------------------------------------------------------------------ *)
(* workloads *)

type rep = {
  batches : batch list;
  cache : E.Cache.stats option;
  appends : int;
}

type instance = {
  rep : probe option -> Tally.t -> rep;
  layers : Tally.t -> (string * float) list;
      (** timed direct calls into each layer on the workload's inputs *)
}

let solver_key p = E.Cache.key ~solver_id:(Mms.solver_label (Mms.default_solver p)) p

(* Every configuration a set of sweeps solves (each valid point's real
   solve and its two ideal-machine solves), once each, in first-use
   order — the cache's unit of work. *)
let distinct_configs grids =
  let seen = Hashtbl.create 1024 and acc = ref [] in
  let add p =
    let key = solver_key p in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      acc := (key, p) :: !acc
    end
  in
  List.iter
    (fun (base, axes) ->
      List.iter
        (fun assigns ->
          let p =
            List.fold_left (fun p (param, v) -> E.Sweep.apply p param v) base assigns
          in
          match Params.validate p with
          | Error _ -> ()
          | Ok p ->
            add p;
            add (Tolerance.ideal_params Tolerance.Network_latency Tolerance.Zero_remote p);
            add (Tolerance.ideal_params Tolerance.Memory_latency Tolerance.Zero_delay p))
        (E.Sweep.points axes))
    grids;
  List.rev !acc

let error_rows rows =
  List.length (List.filter (fun r -> Result.is_error r.E.Sweep.result) rows)

let encode_rows rows = List.map E.Sweep.encode_row rows

(* ---- layer micro-timings ---- *)

(* Each distinct configuration solved in this domain; a workload with few
   configurations repeats them up to 32 solves.  Returns the metrics and
   each configuration's measures, for the cache layer. *)
let solve_layer configs =
  let rounds = max 1 (32 / max 1 (List.length configs)) in
  let time_solve p =
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let sol = Mms.solve_network p in
    let ms = (now () -. t0) *. 1e3 in
    (ms, float_of_int sol.Lattol_queueing.Solution.iterations,
     Gc.minor_words () -. w0, Mms.measures_of_solution p sol)
  in
  let runs =
    List.map (fun (key, p) -> (key, List.init rounds (fun _ -> time_solve p))) configs
  in
  let all = List.concat_map snd runs in
  let ms = List.map (fun (t, _, _, _) -> t) all in
  ( [
      ("mms.solve_ms.p50", Sample.percentile ~pct:50 ms);
      ("mms.solve_ms.p90", Sample.percentile ~pct:90 ms);
      ("mms.iterations_per_solve", Sample.mean (List.map (fun (_, i, _, _) -> i) all));
      ("mms.minor_words_per_solve", Sample.mean (List.map (fun (_, _, w, _) -> w) all));
    ],
    List.map (fun (key, r) -> let _, _, _, m = List.hd r in (key, m)) runs )

(* Stores into a fresh directory, then disk hits through a fresh handle
   over it. *)
let cache_layer tally solved =
  let dir = fresh_dir "cache-layer" in
  let timed_lookup cache (key, m) =
    let t0 = now () in
    ignore (E.Cache.find_or_compute cache ~key (fun () -> m));
    (now () -. t0) *. 1e6
  in
  let writer = E.Cache.create ~dir () in
  let store_us = List.map (timed_lookup writer) solved in
  let reader = E.Cache.create ~dir () in
  let hit_us = List.map (timed_lookup reader) solved in
  let s = E.Cache.stats reader in
  Tally.check tally
    ~ok:(s.E.Cache.disk_hits = List.length solved && s.E.Cache.solves = 0)
    "cache layer: every stored entry reads back as a disk hit";
  [ ("cache.disk_hit_us", Sample.median hit_us); ("cache.store_us", Sample.median store_us) ]

let journal_appends = 200
let journal_batches = 50
let journal_batch_size = 8

(* Appends and batched appends of the workload's real journal payloads,
   each through [fsync]. *)
let journal_layer payloads =
  let payloads = Array.of_list payloads in
  let payload i = payloads.(i mod Array.length payloads) in
  let dir = fresh_dir "journal-layer" in
  let meta = "perfbench-journal-layer" in
  let j = E.Journal.create ~path:(Filename.concat dir "append") ~meta () in
  let append_us =
    List.init journal_appends (fun i ->
        let t0 = now () in
        E.Journal.append j ~id:(Printf.sprintf "a%d" i) ~payload:(payload i);
        (now () -. t0) *. 1e6)
  in
  E.Journal.close j;
  let j = E.Journal.create ~path:(Filename.concat dir "batch") ~meta () in
  let batch_us =
    List.init journal_batches (fun b ->
        let records =
          List.init journal_batch_size (fun k ->
              let i = (b * journal_batch_size) + k in
              (Printf.sprintf "b%d" i, payload i))
        in
        let t0 = now () in
        E.Journal.append_batch j records;
        (now () -. t0) *. 1e6)
  in
  E.Journal.close j;
  [
    ("journal.append_us.p50", Sample.percentile ~pct:50 append_us);
    ("journal.append_us.p90", Sample.percentile ~pct:90 append_us);
    ("journal.batch_us", Sample.median batch_us);
  ]

(* Events, seconds and minor words of a batch's replications; [short] is
   the same replications re-run with a horizon of one time unit, i.e. the
   engine's set-up and warm-up alone. *)
let engine_metrics prefix ~short:(_, short_s, _) (events, secs, words) =
  [
    (prefix ^ ".events", float_of_int events);
    (prefix ^ ".events_per_s", ratio (float_of_int events) secs);
    (prefix ^ ".minor_words_per_event", ratio words (float_of_int events));
    (prefix ^ ".warmup_share", ratio short_s secs);
  ]

let engine_run f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let events = f () in
  let secs = now () -. t0 in
  (events, secs, Gc.minor_words () -. w0)

let no_engine prefix = engine_metrics prefix ~short:(0, 0., 0.) (0, 0., 0.)

(* ---- figures_cold ---- *)

let npoints axes = List.length (E.Sweep.points axes)

(* Relative to the checkout root, where the benchmark runs. *)
let golden_dir = Filename.concat "test" "golden"

let check_golden tally reference =
  List.iter
    (fun name ->
      let path = Filename.concat golden_dir (name ^ ".csv") in
      let verdict =
        match (Sys.file_exists path, List.assoc_opt name reference) with
        | false, _ -> Error [ "missing golden file " ^ path ]
        | _, None -> Error [ "figure not produced" ]
        | true, Some csv ->
          Oracle.csv_close ~rtol:1e-4 ~atol:1e-6 ~golden:(read_file path) csv
      in
      let detail = match verdict with Ok () -> "" | Error es -> String.concat "; " es in
      Tally.check tally ~ok:(Result.is_ok verdict)
        (Printf.sprintf "golden %s: %s" name detail))
    [ "fig06_tolerance"; "saturation" ]

let figures_cold figures tally =
  let configs =
    distinct_configs (List.map (fun f -> (f.E.Figures.base, f.E.Figures.axes)) figures)
  in
  let points = List.fold_left (fun a f -> a + npoints f.E.Figures.axes) 0 figures in
  let cache = E.Cache.create () in
  let written = E.Figures.write ~cache ~jobs:1 ~dir:(fresh_dir "figures-ref") figures in
  let account tally (w : E.Figures.written) =
    let pts = npoints w.E.Figures.figure.E.Figures.axes in
    Tally.work tally ~attempted:pts ~failed:(pts - w.E.Figures.rows)
      ("figure " ^ w.E.Figures.figure.E.Figures.name)
  in
  List.iter (account tally) written;
  let reference =
    List.map (fun (w : E.Figures.written) -> (w.E.Figures.figure.E.Figures.name, read_file w.E.Figures.path)) written
  in
  Tally.check tally
    ~ok:((E.Cache.stats cache).E.Cache.solves = List.length configs)
    "figures reference: one solve per distinct configuration";
  check_golden tally reference;
  let rep probe tally =
    let out = fresh_dir "figures" in
    (* In-run memo only, as [mms figures --no-cache]: a disk cache would
       leave 490 entries per repetition to delete, and on a filesystem
       that discards freed blocks that deletion slows every later run's
       file operations for minutes. *)
    let cache = E.Cache.create () in
    let monitor = Option.map pool_monitor probe in
    let causal = Option.map (fun p -> causal p "figures_cold") probe in
    let written, b =
      timed ~points (fun () -> E.Figures.write ~cache ~jobs ?causal ?monitor ~dir:out figures)
    in
    List.iter
      (fun (w : E.Figures.written) ->
        account tally w;
        let name = w.E.Figures.figure.E.Figures.name in
        Tally.check tally
          ~ok:(Some (read_file w.E.Figures.path) = List.assoc_opt name reference)
          ("figures_cold: " ^ name ^ " differs from the jobs=1 reference"))
      written;
    { batches = [ b ]; cache = Some (E.Cache.stats cache); appends = 0 }
  in
  let layers tally =
    let solve, solved = solve_layer configs in
    let rows =
      List.concat_map
        (fun f -> E.Sweep.run ~cache ~jobs:1 ~base:f.E.Figures.base f.E.Figures.axes)
        figures
    in
    solve @ cache_layer tally solved @ journal_layer (encode_rows rows)
    @ no_engine "des" @ no_engine "stpn"
  in
  { rep; layers }

(* ---- sweep_warm_journaled ---- *)

let sweep_warm_journaled ~base ~axes tally =
  let configs = distinct_configs [ (base, axes) ] in
  let cache_dir = Filename.concat (fresh_dir "sweep-ref") "cache" in
  let cache = E.Cache.create ~dir:cache_dir () in
  let rows = E.Sweep.run ~cache ~jobs:1 ~base axes in
  let n = List.length rows in
  Tally.work tally ~attempted:n ~failed:(error_rows rows) "sweep reference";
  Tally.check tally
    ~ok:((E.Cache.stats cache).E.Cache.stores = List.length configs)
    "sweep reference: one store per distinct configuration";
  let reference = encode_rows rows in
  let sorted_reference = List.sort String.compare reference in
  let meta = E.Sweep.journal_meta ~base axes in
  let rep probe tally =
    let path = Filename.concat (fresh_dir "sweep") "journal" in
    let monitor = Option.map pool_monitor probe in
    let causal = Option.map (fun p -> causal p "sweep_warm_journaled") probe in
    let (rows, stats, appends), b =
      timed ~points:n (fun () ->
          let cache = E.Cache.create ~dir:cache_dir () in
          let journal = E.Journal.create ~path ~meta () in
          let rows =
            E.Sweep.run ~cache ~jobs ~journal ?causal ?monitor ~base axes
          in
          E.Journal.close journal;
          (rows, E.Cache.stats cache, E.Journal.appended journal))
    in
    Tally.work tally ~attempted:n ~failed:(error_rows rows) "sweep rows";
    Tally.check tally ~ok:(encode_rows rows = reference)
      "sweep_warm_journaled: rows differ from the jobs=1 reference";
    Tally.check tally ~ok:(stats.E.Cache.solves = 0)
      (Printf.sprintf "sweep_warm_journaled: %d solves on a warm cache" stats.E.Cache.solves);
    Tally.check tally ~ok:(appends = n)
      (Printf.sprintf "sweep_warm_journaled: %d journal appends, expected %d" appends n);
    let replayed =
      match E.Journal.resume ~path ~meta () with
      | Error _ -> None
      | Ok j ->
        let payloads = List.map snd (E.Journal.entries j) in
        E.Journal.close j;
        Some (List.sort String.compare payloads)
    in
    Tally.check tally ~ok:(replayed = Some sorted_reference)
      "sweep_warm_journaled: the journal does not replay the reference rows";
    { batches = [ b ]; cache = Some stats; appends }
  in
  let layers tally =
    let solve, solved = solve_layer configs in
    solve @ cache_layer tally solved @ journal_layer reference
    @ no_engine "des" @ no_engine "stpn"
  in
  { rep; layers }

(* ---- replicate_sim ---- *)

let replicate_sim (r : Inputs.replicate) ~meta ~linearizer tally =
  let des_measures ?journal ?monitor ?causal jobs =
    E.Replicate.des_measures ~jobs ?journal ?monitor ?causal ~config:r.des_config
      ~replications:r.des_replications r.params
  in
  let stpn_measures ?monitor ?causal jobs =
    E.Replicate.stpn_measures ~jobs ?monitor ?causal ~seed:r.stpn_seed
      ~warmup:r.stpn_warmup ~horizon:r.stpn_horizon
      ~replications:r.stpn_replications r.params
  in
  let des ~horizon =
    E.Replicate.des ~jobs:1 ~config:{ r.des_config with Des.horizon }
      ~replications:r.des_replications r.params
  in
  let stpn ~horizon =
    E.Replicate.stpn ~jobs:1 ~seed:r.stpn_seed ~warmup:r.stpn_warmup ~horizon
      ~replications:r.stpn_replications r.params
  in
  let expected = r.des_replications + r.stpn_replications in
  let account tally ~des ~stpn what =
    Tally.work tally ~attempted:expected ~failed:(max 0 (expected - des - stpn)) what
  in
  (* The jobs = 1 reference, with every replication's full engine result:
     each one must sit inside the conformance band on its own. *)
  let d = des ~horizon:r.des_config.Des.horizon and s = stpn ~horizon:r.stpn_horizon in
  account tally ~des:(List.length d.E.Replicate.results)
    ~stpn:(List.length s.E.Replicate.results) "reference replications";
  List.iteri
    (fun i (x : Des.result) ->
      let u_p = x.Des.measures.Measures.u_p and _, half = x.Des.u_p_ci in
      Tally.check tally
        ~ok:(Oracle.des_within ~linearizer ~u_p ~half)
        (Printf.sprintf "DES rep%d U_p %.4f +- %.4f vs linearizer %.4f" i u_p half linearizer))
    d.E.Replicate.results;
  List.iteri
    (fun i (x : Stpn.result) ->
      let u_p = x.Stpn.measures.Measures.u_p in
      Tally.check tally
        ~ok:(Oracle.stpn_within ~linearizer ~u_p)
        (Printf.sprintf "STPN rep%d U_p %.4f vs linearizer %.4f" i u_p linearizer))
    s.E.Replicate.results;
  let encode ms = List.map E.Cache.encode_measures_line ms in
  let reference =
    encode
      (List.map (fun x -> x.Des.measures) d.E.Replicate.results
      @ List.map (fun x -> x.Stpn.measures) s.E.Replicate.results)
  in
  let rep probe tally =
    let path = Filename.concat (fresh_dir "replicate") "journal" in
    let monitor = Option.map pool_monitor probe in
    let des_causal = Option.map (fun p -> causal p "replicate_sim-des") probe in
    let stpn_causal = Option.map (fun p -> causal p "replicate_sim-stpn") probe in
    let (d, s, appends), b =
      timed ~points:expected (fun () ->
          let journal = E.Journal.create ~path ~meta () in
          let d = des_measures ~journal ?monitor ?causal:des_causal jobs in
          E.Journal.close journal;
          let s = stpn_measures ?monitor ?causal:stpn_causal jobs in
          (d, s, E.Journal.appended journal))
    in
    account tally ~des:(List.length d.E.Replicate.results)
      ~stpn:(List.length s.E.Replicate.results) "replications";
    Tally.check tally
      ~ok:(encode (d.E.Replicate.results @ s.E.Replicate.results) = reference)
      "replicate_sim: replications differ from the jobs=1 reference";
    Tally.check tally ~ok:(appends = r.des_replications)
      (Printf.sprintf "replicate_sim: %d journal appends, expected %d" appends
         r.des_replications);
    { batches = [ b ]; cache = None; appends }
  in
  let layers tally =
    let solve, solved = solve_layer [ (solver_key r.params, r.params) ] in
    (* The batch's own replications, run one after another in this
       domain (a pool of one), with their full engine results; then
       again with a horizon of one time unit, which leaves the engine's
       set-up and warm-up. *)
    let des_events horizon () =
      List.fold_left (fun a x -> a + x.Des.events) 0 (des ~horizon).E.Replicate.results
    in
    let stpn_events horizon () =
      List.fold_left
        (fun a x -> a + x.Stpn.stats.Lattol_petri.Simulation.events)
        0 (stpn ~horizon).E.Replicate.results
    in
    let des_run = engine_run (des_events r.des_config.Des.horizon) in
    let des_short = engine_run (des_events 1.) in
    let stpn_run = engine_run (stpn_events r.stpn_horizon) in
    let stpn_short = engine_run (stpn_events 1.) in
    solve @ cache_layer tally solved
    @ journal_layer (List.filteri (fun i _ -> i < r.des_replications) reference)
    @ engine_metrics "des" ~short:des_short des_run
    @ engine_metrics "stpn" ~short:stpn_short stpn_run
  in
  { rep; layers }

(* The set-up of one workload, to be timed and repeated. *)
let instantiate input =
  match input with
  | Inputs.Figures_cold figures -> figures_cold figures
  | Inputs.Sweep_warm_journaled { base; axes } -> sweep_warm_journaled ~base ~axes
  | Inputs.Replicate_sim r ->
    let meta = Digest.to_hex (Digest.string (Inputs.fingerprint input)) in
    (* The oracle's reference value, solved once per run outside the timed
       set-up: it takes longer than the replications it checks. *)
    let linearizer = (Mms.solve ~solver:Mms.Linearizer_amva r.params).Measures.u_p in
    replicate_sim r ~meta ~linearizer

(* ------------------------------------------------------------------ *)
(* measurement *)

(* Set-up runs [setup_rounds input] times from scratch in an untraced run; the
   median round is [setup_s].  One set-up round keeps one core busy for
   about a second, and on a shared host one core's speed can change by half
   for tens of seconds, so rounds taken back to back share one slow or fast
   spell.  The first round builds the measured instance; the others are
   spread evenly over the batches the p90 needs, and their instances are
   dropped.  The sweep's set-up writes 688 cache files, all deleted when
   the run ends; on a disk that discards freed blocks, nine rounds of
   that in 20 s slowed every following run (batch walls doubled over ten
   runs), so it sets up seven times, at the rate of five rounds in 20 s
   over the 30 s the sweep runs. *)
let setup_rounds = function Inputs.Sweep_warm_journaled _ -> 7 | _ -> 9

let setup_round make tally =
  let t0 = now () in
  let inst = make tally in
  (now () -. t0, inst)

let sum_batches f batches = List.fold_left (fun a b -> a +. f b) 0. batches
let rep_wall r = sum_batches (fun b -> b.wall) r.batches

(* Untraced batches until [seconds] have passed and the p90 has
   [Sample.min_tail] samples beyond it, or 4 x [seconds] at most, with
   the remaining set-up rounds in between.  Returns the batches and every
   set-up round's wall. *)
let measure ~seconds ~setups:total ~first_setup make inst tally =
  ignore (inst.rep None tally) (* warm-up, not timed *);
  let t0 = now () in
  let t_end = t0 +. seconds and hard_end = t0 +. (4. *. seconds) in
  let need = Sample.required ~pct:90 in
  let setup_due ~batches ~rounds = batches * total >= rounds * need in
  let rec loop acc batches setups rounds =
    Speed.sample_every 2.0;
    let setups, rounds =
      if rounds < total && setup_due ~batches ~rounds then
        (fst (setup_round make tally) :: setups, rounds + 1)
      else (setups, rounds)
    in
    let acc = List.rev_append (inst.rep None tally).batches acc in
    let batches = List.length acc and t = now () in
    if t < t_end || ((rounds < total || batches < need) && t < hard_end)
    then loop acc batches setups rounds
    else (List.rev acc, List.rev setups)
  in
  loop [] 0 [ first_setup ] 1

let peak_rss_mb () =
  match
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l)
  with
  | None -> 0.
  | Some line ->
    Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.)
  | exception Sys_error _ -> 0.

(* With [scaled], walls are in reference-host units, scaled by the run's
   kernel wall, and CPU time by its kernel CPU time (see speed.ml);
   otherwise the values are raw. *)
let end_to_end ~scaled ~setups batches tally =
  let wall_factor = if scaled then Speed.wall_factor () else 1. in
  let cpu_factor = if scaled then Speed.cpu_factor () else 1. in
  let walls = List.map (fun b -> wall_factor *. b.wall) batches in
  let points = sum_batches (fun b -> float_of_int b.points) batches in
  [
    ("setup_s", wall_factor *. Sample.median setups);
    ("points_per_s", ratio points (List.fold_left ( +. ) 0. walls));
    ("batch_s.p50", Sample.percentile ~pct:50 walls);
    ("batch_s.p90", Sample.percentile ~pct:90 walls);
    ( "cpu_ms_per_point",
      cpu_factor *. ratio (1e3 *. sum_batches (fun b -> b.cpu) batches) points );
    ("pass_ratio", Tally.pass_ratio tally);
    ("peak_rss_mb", peak_rss_mb ());
  ]

(* One traced repetition, reduced to its per-layer figures. *)
let traced_rep inst tally =
  let probe = new_probe () in
  let r = inst.rep (Some probe) tally in
  let reports =
    List.map
      (fun rc ->
        Tc.seal rc;
        (rc, Tr.analyze rc))
      probe.recorders
  in
  let over f = List.fold_left (fun a (_, t) -> a +. f t) 0. reports in
  let points = List.concat_map (fun (_, t) -> t.Tr.r_points) reports in
  let reconcile =
    List.fold_left
      (fun a (p : Tr.point_report) ->
        a
        +. abs_float
             (p.Tr.queue_ms +. p.Tr.cache_ms +. p.Tr.solve_ms +. p.Tr.journal_ms
            +. p.Tr.other_ms -. p.Tr.wall_ms))
      0. points
  in
  (* Little's law: mean in flight = throughput x mean wall.  Over any
     window, in-flight time from the pool monitor must equal the summed
     point walls from the trace. *)
  let walls_s = List.fold_left (fun a (p : Tr.point_report) -> a +. p.Tr.wall_ms) 0. points /. 1e3 in
  let run_level_journal_ms =
    List.fold_left
      (fun a (rc, _) ->
        List.fold_left
          (fun a (s : Tc.span) ->
            if s.Tc.point = "" && s.Tc.cat = "journal" then
              a +. (Int64.to_float s.Tc.dur_ns /. 1e6)
            else a)
          a (Tc.spans rc))
      0. reports
  in
  let cache = Option.value r.cache ~default:{
      E.Cache.memo_hits = 0; disk_hits = 0; misses = 0; solves = 0; stores = 0;
      corrupt = 0; tmp_reclaimed = 0 } in
  let o = probe.obs in
  let c f = float_of_int (f cache) in
  let lookups = c (fun s -> s.E.Cache.memo_hits + s.E.Cache.disk_hits + s.E.Cache.misses) in
  ( rep_wall r,
    List.fold_left (fun a b -> a + b.points) 0 r.batches,
    [
      ("mms.solves", c (fun s -> s.E.Cache.solves));
      ("mms.busy_ms", over (fun t -> t.Tr.r_solve_ms));
      ("cache.memo_hits", c (fun s -> s.E.Cache.memo_hits));
      ("cache.disk_hits", c (fun s -> s.E.Cache.disk_hits));
      ("cache.misses", c (fun s -> s.E.Cache.misses));
      ("cache.stores", c (fun s -> s.E.Cache.stores));
      ("cache.hit_ratio", ratio (c (fun s -> s.E.Cache.memo_hits + s.E.Cache.disk_hits)) lookups);
      ("cache.wait_ms", over (fun t -> t.Tr.r_cache_ms));
      ("journal.appends", float_of_int r.appends);
      ("journal.ms", over (fun t -> t.Tr.r_journal_ms) +. run_level_journal_ms);
      ("pool.effective_jobs", float_of_int o.effective_jobs);
      ("pool.claims", float_of_int o.claims);
      ("pool.busy_ratio", ratio o.task_s o.loop_s);
      ("pool.queue_wait_ms", over (fun t -> t.Tr.r_queue_ms));
      ("trace.reconcile_err_ms", reconcile);
      ("trace.little_err", ratio (abs_float (o.inflight_area -. walls_s)) walls_s);
      ("trace.dropped", float_of_int (List.fold_left (fun a (rc, _) -> a + Tc.dropped rc) 0 reports));
    ] )

(* Reconciliation error a traced repetition may show per point.
   Trace_report reconciles in integer nanoseconds, but the pool hangs each
   chunk's claim span ("queue") under the chunk's first item, inside that
   item's queue-wait span, so the claim is counted twice: microseconds
   per chunk.  The median repetition must stay within this. *)
let reconcile_epsilon_ms = 0.01

let per_layer ~seconds inst tally =
  ignore (inst.rep None tally) (* warm-up, not timed *);
  let t_end = now () +. (0.6 *. seconds) in
  let rec loop untraced traced =
    Speed.sample_every 2.0;
    let u = inst.rep None tally in
    let t = traced_rep inst tally in
    let untraced = u :: untraced and traced = t :: traced in
    if now () < t_end || List.length traced < 3 then loop untraced traced
    else (untraced, traced)
  in
  let untraced, traced = loop [] [] in
  let median_of name =
    Sample.median (List.map (fun (_, _, ms) -> List.assoc name ms) traced)
  in
  let _, points, first = List.hd traced in
  let from_trace = List.map (fun (n, _) -> (n, median_of n)) first in
  let reconcile = List.assoc "trace.reconcile_err_ms" from_trace in
  Tally.check tally
    ~ok:(reconcile <= reconcile_epsilon_ms *. float_of_int points)
    (Printf.sprintf "trace: point categories miss the point walls by %.6f ms over %d points"
       reconcile points);
  let gc f = Sample.median (List.map (fun r -> sum_batches f r.batches) untraced) in
  let overhead =
    ratio
      (Sample.median (List.map (fun (wall, _, _) -> wall) traced))
      (Sample.median (List.map rep_wall untraced))
  in
  from_trace
  @ [
      ("gc.minor_collections", gc (fun b -> float_of_int b.minor_gcs));
      ("gc.major_collections", gc (fun b -> float_of_int b.major_gcs));
      ("gc.promoted_words", gc (fun b -> b.promoted));
      ("trace.overhead_ratio", overhead);
    ]
  @ inst.layers tally

(* ------------------------------------------------------------------ *)
(* output *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_metrics metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, v) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
             (json_float v)
             (json_string (Catalog.unit_of name)))
         metrics)
  ^ "}"

(* Metrics in catalog order; a missing or unexpected name is a bug here. *)
let in_catalog_order catalog metrics =
  let expected = List.map (fun m -> m.Catalog.name) catalog in
  List.iter
    (fun (n, _) ->
      if not (List.mem n expected) then failwith ("unexpected metric " ^ n))
    metrics;
  List.map
    (fun n ->
      match List.assoc_opt n metrics with
      | Some v -> (n, v)
      | None -> failwith ("metric not measured: " ^ n))
    expected

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let nproc = ref 0 and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--nproc", Arg.Set_int nproc, "N online cores, recorded in the result");
      ("--out", Arg.Set_string out, "FILE also write the full result here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Inputs.names) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " Inputs.names);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end;
  at_exit (fun () -> rm_rf work_root);
  let input = Inputs.make ~workload:!workload ~seed:!seed in
  let tally = Tally.create () in
  let make = instantiate input in
  let first_setup, inst = setup_round make tally in
  let walls = ref [] and setups = ref [] and sys_share = ref 0. in
  (* The measured values, and the reported ones. *)
  let metrics, reported =
    if !trace = 0 then begin
      let batches, setup_walls =
        measure ~seconds:!seconds ~setups:(setup_rounds input) ~first_setup make inst tally
      in
      walls := List.map (fun b -> b.wall) batches;
      setups := setup_walls;
      sys_share := ratio (sum_batches (fun b -> b.sys) batches) (sum_batches (fun b -> b.cpu) batches);
      let e2e scaled =
        in_catalog_order Catalog.end_to_end (end_to_end ~scaled ~setups:setup_walls batches tally)
      in
      (e2e false, e2e true)
    end
    else begin
      let m = in_catalog_order Catalog.per_layer (per_layer ~seconds:!seconds inst tally) in
      (m, List.map (fun (n, v) -> (n, Speed.normalize ~unit:(Catalog.unit_of n) v)) m)
    end
  in
  let host =
    Printf.sprintf "{\"nproc\": %d, \"available_cores\": %d, \"ocaml_version\": %s}"
      !nproc (E.Pool.available_cores ()) (json_string Sys.ocaml_version)
  in
  let line =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
      (Tally.correct tally) (Tally.attempted tally) (Tally.failed tally)
      (json_metrics reported)
  in
  if !out <> "" then
    Out_channel.with_open_bin !out (fun oc ->
        Printf.fprintf oc
          "{\"schema\": \"perfbench/1\", \"workload\": %s, \"seed\": %d, \"seconds\": %s, \
           \"trace\": %d, \"jobs\": %d, \"host\": %s, \"kernel_s\": %s, \
           \"kernel_cpu_s\": %s, \
           \"kernel_samples\": [%s], \
           \"sys_cpu_share\": %s, \"setup_walls_s\": [%s], \"batch_walls_s\": [%s], \
           \"failures\": [%s], \"raw_metrics\": %s, \"result\": %s}\n"
          (json_string !workload) !seed (json_float !seconds) !trace jobs host
          (json_float (Speed.kernel_s ())) (json_float (Speed.kernel_cpu_s ()))
          (String.concat ", "
             (List.rev_map
                (fun (t, w, c) ->
                  Printf.sprintf "[%s, %s, %s]" (json_float t) (json_float w) (json_float c))
                !Speed.samples))
          (json_float !sys_share)
          (String.concat ", " (List.map json_float !setups))
          (String.concat ", " (List.map json_float !walls))
          (String.concat ", " (List.map json_string (Tally.failures tally)))
          (json_metrics metrics) line);
  Printf.printf "workload %s seed %d: inputs %s\n" !workload !seed
    (Digest.to_hex (Digest.string (Inputs.fingerprint input)));
  Printf.printf "host %s, speed kernel %.6f s wall, %.6f s CPU (reference %.3f s, %.3f s)\n"
    host (Speed.kernel_s ()) (Speed.kernel_cpu_s ()) Speed.reference_s Speed.reference_cpu_s;
  if !setups <> [] then
    Printf.printf "setup rounds: %s\n"
      (String.concat " " (List.map (Printf.sprintf "%.3f") !setups));
  let samples = List.length !walls in
  if samples > 0 then
    Printf.printf "batch_s: %d samples, %d beyond the p90\n" samples
      (Sample.beyond ~pct:90 samples);
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (Tally.failures tally);
  Printf.printf "%-28s %16s %16s\n" "metric" "reported" "measured";
  List.iter2
    (fun (name, v) (_, raw) ->
      Printf.printf "%-28s %16.6f %16.6f %s\n" name v raw (Catalog.unit_of name))
    reported metrics;
  print_endline line
