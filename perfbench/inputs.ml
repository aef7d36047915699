(* Workload inputs, generated from the benchmark seed.

   The program under test never sees the seed: it receives only what this
   module builds from it.  The same seed always yields the same inputs
   ({!fingerprint} is equal), which the tests pin down. *)

open Lattol_core
module Sweep = Lattol_exec.Sweep
module Figures = Lattol_exec.Figures
module Des = Lattol_sim.Mms_des
module Prng = Lattol_stats.Prng

(* All load comes from one process at this pool size. *)
let jobs = 2

type replicate = {
  params : Params.t;
  des_config : Des.config;
  des_replications : int;
  stpn_seed : int;
  stpn_warmup : float;
  stpn_horizon : float;
  stpn_replications : int;
}

type t =
  | Figures_cold of Figures.figure list
  | Sweep_warm_journaled of { base : Params.t; axes : Sweep.axis list }
  | Replicate_sim of replicate

let names = [ "figures_cold"; "sweep_warm_journaled"; "replicate_sim" ]

(* Base machines the warm sweep draws from: the paper's 4x4 torus with a
   few access localities and run lengths. *)
let sweep_bases = [ (0.4, 1.); (0.5, 1.); (0.6, 1.); (0.4, 2.); (0.5, 2.); (0.6, 2.) ]

(* 16 x 21 = 336 grid points. *)
let sweep_axes =
  [
    { Sweep.param = Sweep.N_t; values = List.init 16 (fun i -> float_of_int (i + 1)) };
    { Sweep.param = Sweep.P_remote; values = Sweep.linspace ~lo:0. ~hi:1. ~steps:21 };
  ]

(* [mms simulate] measures 100000 time units after a 1000-unit warm-up,
   tens of seconds per replication; a batch here must take well under a
   second for a run to hold the 100 batches its p90 needs.  The horizons
   are shortened to that, and sized so that each engine takes about half
   of a batch and the steady event loop most of each replication: on the
   paper's machine the DES spends about 15% of a replication in set-up
   and warm-up, the STPN about 18% (a traced run reports both, as
   [des.warmup_share] and [stpn.warmup_share]), against about 1% at the
   CLI's horizons.  At these horizons an STPN replication's U_p scatters
   around Linearizer's with a standard deviation of about 0.008 (40
   seeds), so the oracle's 0.03 band holds it. *)
let des_warmup = 500.
let des_horizon = 3_000.
let stpn_warmup = 100.
let stpn_horizon = 600.
let replications = 2

let make ~workload ~seed =
  let rng = Prng.create ~seed () in
  match workload with
  | "figures_cold" ->
    (* The paper's grids are fixed (two of them are golden-gated), so the
       seed changes nothing here. *)
    Figures_cold (Figures.all ())
  | "sweep_warm_journaled" ->
    let p_sw, runlength =
      List.nth sweep_bases (Prng.int rng (List.length sweep_bases))
    in
    let base =
      {
        Params.default with
        Params.runlength;
        pattern = Lattol_topology.Access.Geometric p_sw;
      }
    in
    Sweep_warm_journaled { base; axes = sweep_axes }
  | "replicate_sim" ->
    let des_seed = 1 + Prng.int rng 1_000_000 in
    let stpn_seed = 1 + Prng.int rng 1_000_000 in
    Replicate_sim
      {
        params = Params.default;
        des_config =
          {
            Des.default_config with
            Des.seed = des_seed;
            warmup = des_warmup;
            horizon = des_horizon;
          };
        des_replications = replications;
        stpn_seed;
        stpn_warmup;
        stpn_horizon;
        stpn_replications = replications;
      }
  | other ->
    invalid_arg
      (Printf.sprintf "unknown workload %S (expected one of: %s)" other
         (String.concat ", " names))

let fingerprint = function
  | Figures_cold figures ->
    "figures_cold;" ^ Figures.journal_meta figures
  | Sweep_warm_journaled { base; axes } ->
    "sweep_warm_journaled;" ^ Sweep.journal_meta ~base axes
  | Replicate_sim r ->
    let c = r.des_config in
    Printf.sprintf "replicate_sim;%s;des=%d,%h,%h,%d;stpn=%d,%h,%h,%d"
      (Lattol_exec.Cache.canonical r.params)
      c.Des.seed c.Des.warmup c.Des.horizon r.des_replications r.stpn_seed
      r.stpn_warmup r.stpn_horizon r.stpn_replications
