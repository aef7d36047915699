open Lattol_core
open Lattol_stats
module Des = Lattol_sim.Mms_des
module Stpn = Lattol_petri.Mms_stpn

(* All streams are derived from the root seed before any run starts, so a
   replication's randomness depends only on (seed, index) — never on which
   domain picks it up or in what order. *)
let streams ~seed n =
  let root = Prng.create ~seed () in
  List.init n (fun _ -> Prng.split root)

type 'a summary = {
  results : 'a list;
  u_p_ci : (float * float) option;
  lambda_ci : (float * float) option;
}

let summarize results ~u_p ~lambda =
  let ci extract =
    let m = Moments.create () in
    List.iter (fun r -> Moments.add m (extract r)) results;
    Confidence.interval m
  in
  { results; u_p_ci = ci u_p; lambda_ci = ci lambda }

(* Journaled measures-level fan-out: replication [i] checkpoints under id
   ["rep<i>"], payload {!Cache.encode_measures_line}.  Inputs (streams or
   seeds) are always derived for the FULL replication set before the
   journal filters out completed indices — a resumed run must hand
   replication [i] exactly the stream it would have had uninterrupted. *)
module Tc = Lattol_obs.Trace_ctx

let journaled_measures ~journal ~monitor ~chunk ~oversubscribe ~causal ~jobs
    run inputs =
  let arr = Array.of_list inputs in
  let rep_id i = Printf.sprintf "rep%d" i in
  Array.to_list
    (Journal.map journal
       ~causal:(Option.value causal ~default:Tc.disabled)
       ~jobs ~chunk ~oversubscribe ~monitor
       ~retry:None ~deadline:None ~on_poison:None ~id:rep_id
       ~point:(fun i -> (rep_id i, rep_id i))
       ~encode:Cache.encode_measures_line
       ~decode:(fun _ payload -> Cache.decode_measures_line payload)
       (fun ctx i ->
         Tc.with_span ~cat:"solve" ~name:"simulate" ctx.Pool.trace (fun _ ->
             run arr.(i)))
       (Array.length arr))

let summarize_measures results =
  summarize results
    ~u_p:(fun m -> m.Measures.u_p)
    ~lambda:(fun m -> m.Measures.lambda)

let des_measures ?(jobs = 1) ?chunk ?oversubscribe ?monitor ?journal ?causal
    ?(config = Des.default_config) ~replications p =
  if replications < 1 then
    invalid_arg "Replicate.des_measures: replications must be at least 1";
  if config.Des.trace <> None || config.Des.metrics <> None then
    invalid_arg "Replicate.des_measures: trace/metrics sinks are per-run";
  summarize_measures
    (journaled_measures ~journal ~monitor ~chunk ~oversubscribe ~causal ~jobs
       (fun rng ->
         (Des.run ~config:{ config with Des.rng = Some rng } p).Des.measures)
       (streams ~seed:config.Des.seed replications))

let stpn_seeds ~seed n =
  let root = Prng.create ~seed () in
  List.init n (fun _ -> Int64.to_int (Prng.bits64 root) land max_int)

let stpn_measures ?(jobs = 1) ?chunk ?monitor ?journal ?causal ?(seed = 1)
    ?warmup ?horizon ?faults ~replications p =
  if replications < 1 then
    invalid_arg "Replicate.stpn_measures: replications must be at least 1";
  let layout = Stpn.build ?faults p in
  summarize_measures
    (journaled_measures ~journal ~monitor ~chunk ~oversubscribe:None ~causal
       ~jobs
       (fun s ->
         (Stpn.run_layout ~seed:s ?warmup ?horizon layout).Stpn.measures)
       (stpn_seeds ~seed replications))

let des ?(jobs = 1) ?chunk ?oversubscribe ?(config = Des.default_config)
    ~replications p =
  if replications < 1 then
    invalid_arg "Replicate.des: replications must be at least 1";
  if replications > 1 && (config.Des.trace <> None || config.Des.metrics <> None)
  then
    (* Sinks are per-run recorders; replications would race on them and
       collide on series names. *)
    invalid_arg "Replicate.des: trace/metrics sinks require replications = 1";
  let results =
    Pool.map_list ?chunk ?oversubscribe ~jobs
      (fun rng -> Des.run ~config:{ config with Des.rng = Some rng } p)
      (streams ~seed:config.Des.seed replications)
  in
  summarize results
    ~u_p:(fun r -> r.Des.measures.Measures.u_p)
    ~lambda:(fun r -> r.Des.measures.Measures.lambda)

let stpn ?(jobs = 1) ?(seed = 1) ?warmup ?horizon ~replications p =
  if replications < 1 then
    invalid_arg "Replicate.stpn: replications must be at least 1";
  let seeds = stpn_seeds ~seed replications in
  let layout = Stpn.build p in
  let results =
    Pool.map_list ~jobs
      (fun s -> Stpn.run_layout ~seed:s ?warmup ?horizon layout)
      seeds
  in
  summarize results
    ~u_p:(fun r -> r.Stpn.measures.Measures.u_p)
    ~lambda:(fun r -> r.Stpn.measures.Measures.lambda)
