(* Reproduction harness: regenerates every table and figure of the paper's
   evaluation (Sections 5-8) from the models in this repository.  Solver
   and fan-out timings live in the benchmark suites (mms bench).

     dune exec bench/main.exe

   Output layout: one section per paper artifact (Figure 4 ... Figure 11,
   Tables 2-4, Equations 4-5).  Absolute values depend on the parameter
   reconstruction documented in DESIGN.md; the shapes (who wins, where the
   knees fall, what saturates) are the reproduction targets recorded in
   EXPERIMENTS.md. *)

open Lattol_core
open Lattol_topology
module Plot = Lattol_stats.Ascii_plot

let default = Params.default

let section title =
  let bar = String.make 78 '=' in
  Format.printf "@.%s@.%s@.%s@." bar title bar

let subsection title = Format.printf "@.--- %s ---@." title

let p_remotes = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ]

let n_ts = [ 1; 2; 3; 4; 5; 6; 8; 10 ]

(* ------------------------------------------------------------------ *)
(* Equations 4 and 5 *)

let eq4_eq5 () =
  section "Equations 4 and 5 - closed-form bottleneck analysis";
  List.iter
    (fun r ->
      let b = Bottleneck.analyze { default with Params.runlength = r } in
      Format.printf "R = %g: %a@." r Bottleneck.pp b)
    [ 1.; 2. ];
  subsection "Eq. 4 cross-check: model lambda_net ceiling vs 1/(2 d_avg S)";
  let sat = Bottleneck.lambda_net_saturation default in
  List.iter
    (fun pr ->
      let m = Mms.solve { default with Params.p_remote = pr; n_t = 10 } in
      Format.printf
        "  p_remote = %.1f: lambda_net = %.4f (ceiling %.4f, %.0f%%)@." pr
        m.Measures.lambda_net sat
        (100. *. m.Measures.lambda_net /. sat))
    [ 0.4; 0.6; 0.8; 1.0 ];
  subsection
    "Open-model view (M/M/c at offered rate lambda): the latency build-up \
     behind Eq. 4";
  List.iter
    (fun lam ->
      Format.printf "  %a@." Bottleneck.pp_open_view
        (Bottleneck.open_view default ~lambda:lam))
    [ 0.2; 0.5; 0.8; 0.95 ];
  subsection "Eq. 5 cross-check: U_p knee against critical p_remote";
  List.iter
    (fun r ->
      let p = { default with Params.runlength = r; n_t = 8 } in
      let crit = Bottleneck.p_remote_critical p in
      let u pr = (Mms.solve { p with Params.p_remote = pr }).Measures.u_p in
      Format.printf
        "  R = %g: critical p* = %.3f; U_p at p*/2 = %.3f, at p* = %.3f, at \
         min(1, p*+0.3) = %.3f@."
        r crit
        (u (crit /. 2.))
        (u crit)
        (u (Float.min 1. (crit +. 0.3))))
    [ 1.; 2. ]

(* ------------------------------------------------------------------ *)
(* Figures 4 and 5 *)

let grid_figure ~runlength ~fig =
  section
    (Printf.sprintf
       "Figure %d - U_p, S_obs, lambda_net, tol_network vs (n_t, p_remote) at \
        R = %g"
       fig runlength);
  let base = { default with Params.runlength } in
  let header () =
    Format.printf "  n_t \\ p_r";
    List.iter (fun pr -> Format.printf "%7.1f" pr) p_remotes;
    Format.printf "@."
  in
  let grid csv_id name value =
    subsection name;
    ignore
      (Csvout.table csv_id
         ~header:
           ("n_t" :: List.map (fun pr -> Printf.sprintf "p%.1f" pr) p_remotes)
         (fun row ->
           header ();
           List.iter
             (fun nt ->
               Format.printf "  %8d" nt;
               let cells =
                 List.map
                   (fun pr ->
                     let v = value { base with Params.n_t = nt; p_remote = pr } in
                     Format.printf "%7.3f" v;
                     Printf.sprintf "%.6f" v)
                   p_remotes
               in
               row (string_of_int nt :: cells);
               Format.printf "@.")
             n_ts))
  in
  let id suffix = Printf.sprintf "fig%d%s" fig suffix in
  grid (id "a") (Printf.sprintf "Figure %d(a): processor utilization U_p" fig)
    (fun p -> (Mms.solve p).Measures.u_p);
  grid (id "b") (Printf.sprintf "Figure %d(b): observed network latency S_obs" fig)
    (fun p ->
      let s = (Mms.solve p).Measures.s_obs in
      if Float.is_nan s then 0. else s);
  grid (id "c") (Printf.sprintf "Figure %d(c): message rate lambda_net" fig)
    (fun p -> (Mms.solve p).Measures.lambda_net);
  grid (id "d") (Printf.sprintf "Figure %d(d): tolerance index tol_network" fig)
    (fun p -> (Tolerance.network p).Tolerance.tol);
  subsection
    (Printf.sprintf "Figure %d(a) as a chart: U_p vs p_remote, one curve per n_t"
       fig);
  let curves =
    List.map
      (fun nt ->
        {
          Plot.label = Printf.sprintf "n_t = %d" nt;
          points =
            List.map
              (fun pr ->
                (pr, (Mms.solve { base with Params.n_t = nt; p_remote = pr }).Measures.u_p))
              p_remotes;
        })
      [ 1; 4; 8 ]
  in
  Format.printf "%s@."
    (Plot.render ~y_min:0. ~y_max:1. ~x_label:"p_remote" ~y_label:"U_p" curves)

(* ------------------------------------------------------------------ *)
(* Table 2 *)

let table2 () =
  section
    "Table 2 - same S_obs, different tolerance: workload decides, not the \
     latency value";
  let header () =
    Format.printf "  %3s %4s %9s %8s %8s %11s %8s %12s %s@." "R" "n_t"
      "p_remote" "L_obs" "S_obs" "lambda_net" "U_p" "tol_network" "zone"
  in
  let row r nt pr =
    let p = { default with Params.runlength = r; n_t = nt; p_remote = pr } in
    let m = Mms.solve p in
    let t = Tolerance.network p in
    Format.printf "  %3g %4d %9.2f %8.3f %8.3f %11.4f %8.4f %12.4f %s@." r nt
      pr m.Measures.l_obs m.Measures.s_obs m.Measures.lambda_net
      m.Measures.u_p t.Tolerance.tol
      (Tolerance.zone_to_string t.Tolerance.zone)
  in
  (* For each anchor (large n_t, moderate p_remote) find a small-n_t
     configuration whose S_obs matches most closely: the pair lands in
     different tolerance zones despite the same observed latency. *)
  let s_obs_of r nt pr =
    (Mms.solve { default with Params.runlength = r; n_t = nt; p_remote = pr })
      .Measures.s_obs
  in
  let match_partner r nt target =
    let candidates = List.init 19 (fun i -> 0.05 +. (0.05 *. float_of_int i)) in
    List.fold_left
      (fun (best_pr, best_gap) pr ->
        let gap = abs_float (s_obs_of r nt pr -. target) in
        if gap < best_gap then (pr, gap) else (best_pr, best_gap))
      (0.5, infinity) candidates
    |> fst
  in
  List.iter
    (fun (r, anchors) ->
      subsection (Printf.sprintf "R = %g" r);
      header ();
      List.iter
        (fun (nt, pr, partner_nt) ->
          row r nt pr;
          row r partner_nt (match_partner r partner_nt (s_obs_of r nt pr)))
        anchors)
    [
      (1., [ (8, 0.25, 3); (8, 0.20, 2) ]);
      (2., [ (8, 0.30, 3); (6, 0.25, 2) ]);
    ]

(* ------------------------------------------------------------------ *)
(* Figures 6 and 7, Table 3 *)

let figure6 () =
  section "Figure 6 - tol_network vs (n_t, R)";
  List.iter
    (fun pr ->
      subsection (Printf.sprintf "Figure 6: p_remote = %g" pr);
      let rs = [ 0.5; 1.; 2.; 4.; 8.; 16. ] in
      Format.printf "  n_t \\ R ";
      List.iter (fun r -> Format.printf "%7.3g" r) rs;
      Format.printf "@.";
      List.iter
        (fun nt ->
          Format.printf "  %7d" nt;
          List.iter
            (fun r ->
              let p =
                { default with Params.n_t = nt; runlength = r; p_remote = pr }
              in
              Format.printf "%7.3f" (Tolerance.network p).Tolerance.tol)
            rs;
          Format.printf "@.")
        [ 1; 2; 4; 6; 8; 10 ])
    [ 0.2; 0.4 ]

let zone_map ~rows ~cols ~value =
  (* The paper's horizontal planes at 0.5 / 0.8 as a letter map:
     T = tolerated, p = partially, . = not. *)
  List.iter
    (fun r ->
      Format.printf "  %7g  " r;
      List.iter
        (fun c ->
          let glyph =
            match Tolerance.zone_of_index (value ~row:r ~col:c) with
            | Tolerance.Tolerated -> 'T'
            | Tolerance.Partially_tolerated -> 'p'
            | Tolerance.Not_tolerated -> '.'
          in
          Format.printf "%c " glyph)
        cols;
      Format.printf "@.")
    rows

let figure6_zones () =
  subsection
    "Figure 6 zone map (p_remote = 0.4): T = tolerated, p = partial, . = not; \
     rows n_t (down), columns R = 0.5 .. 16";
  let rs = [ 0.5; 1.; 2.; 4.; 8.; 16. ] in
  zone_map
    ~rows:[ 1.; 2.; 4.; 6.; 8.; 10. ]
    ~cols:rs
    ~value:(fun ~row ~col ->
      (Tolerance.network
         { default with Params.n_t = int_of_float row; runlength = col;
           p_remote = 0.4 })
        .Tolerance.tol)

let figure7 () =
  section "Figure 7 - tol_network for n_t x R = constant (thread partitioning)";
  List.iter
    (fun pr ->
      subsection (Printf.sprintf "Figure 7: p_remote = %g" pr);
      Format.printf "  %10s" "work\\R";
      let rs = [ 0.5; 1.; 2.; 4.; 8.; 16.; 32. ] in
      List.iter (fun r -> Format.printf "%8.3g" r) rs;
      Format.printf "@.";
      List.iter
        (fun work ->
          Format.printf "  %10g" work;
          List.iter
            (fun r ->
              let nt = work /. r in
              if Float.is_integer nt && nt >= 1. then begin
                let p =
                  {
                    default with
                    Params.n_t = int_of_float nt;
                    runlength = r;
                    p_remote = pr;
                  }
                in
                Format.printf "%8.3f" (Tolerance.network p).Tolerance.tol
              end
              else Format.printf "%8s" "-")
            rs;
          Format.printf "@.")
        [ 2.; 4.; 8.; 16.; 32.; 64. ])
    [ 0.2; 0.4 ]

let table3 () =
  section "Table 3 - thread partitioning strategy (n_t x R constant)";
  List.iter
    (fun pr ->
      subsection (Printf.sprintf "p_remote = %g, work = 4" pr);
      let base = { default with Params.p_remote = pr } in
      List.iter
        (fun pt -> Format.printf "  %a@." Partitioning.pp_point pt)
        (Partitioning.sweep base ~work:4. ~n_ts:[ 1; 2; 4 ]);
      subsection (Printf.sprintf "p_remote = %g, work = 8" pr);
      List.iter
        (fun pt -> Format.printf "  %a@." Partitioning.pp_point pt)
        (Partitioning.sweep base ~work:8. ~n_ts:[ 1; 2; 4; 8 ]))
    [ 0.2; 0.4 ]

(* ------------------------------------------------------------------ *)
(* Figure 8 and Table 4 *)

let figure8 () =
  section "Figure 8 - tol_memory vs (n_t, R) at p_remote = 0.2";
  List.iter
    (fun l ->
      subsection (Printf.sprintf "Figure 8: L = %g" l);
      let rs = [ 0.5; 1.; 2.; 4.; 8. ] in
      Format.printf "  n_t \\ R ";
      List.iter (fun r -> Format.printf "%7.3g" r) rs;
      Format.printf "@.";
      List.iter
        (fun nt ->
          Format.printf "  %7d" nt;
          List.iter
            (fun r ->
              let p =
                { default with Params.n_t = nt; runlength = r; l_mem = l }
              in
              Format.printf "%7.3f" (Tolerance.memory p).Tolerance.tol)
            rs;
          Format.printf "@.")
        [ 1; 2; 4; 6; 8; 10 ])
    [ 1.; 2. ]

let figure8_zones () =
  subsection
    "Figure 8 zone map (L = 2, p_remote = 0.2): tol_memory zones, rows n_t, \
     columns R = 0.5 .. 8";
  zone_map
    ~rows:[ 1.; 2.; 4.; 6.; 8.; 10. ]
    ~cols:[ 0.5; 1.; 2.; 4.; 8. ]
    ~value:(fun ~row ~col ->
      (Tolerance.memory
         { default with Params.n_t = int_of_float row; runlength = col;
           l_mem = 2. })
        .Tolerance.tol)

let table4 () =
  section "Table 4 - memory latency tolerance (p_remote = 0.2, n_t x R = 4)";
  Format.printf "  %3s %4s %6s %8s %8s %8s %10s@." "L" "n_t" "R" "L_obs"
    "S_obs" "U_p" "tol_memory";
  List.iter
    (fun l ->
      List.iter
        (fun (nt, r) ->
          let p =
            { default with Params.l_mem = l; n_t = nt; runlength = r }
          in
          let m = Mms.solve p in
          let t = Tolerance.memory p in
          Format.printf "  %3g %4d %6g %8.3f %8.3f %8.4f %10.4f@." l nt r
            m.Measures.l_obs m.Measures.s_obs m.Measures.u_p t.Tolerance.tol)
        [ (1, 4.); (2, 2.); (4, 1.); (8, 0.5) ])
    [ 1.; 2. ]

(* ------------------------------------------------------------------ *)
(* Figures 9 and 10 *)

let rec figure9 () =
  section
    "Figure 9 - tol_network (vs zero-delay ideal network) when scaling k, \
     geometric vs uniform";
  ignore
    (Csvout.table "fig9"
       ~header:
         ("R" :: "k" :: "pattern"
        :: List.map (fun nt -> Printf.sprintf "nt%d" nt) n_ts)
       (fun csv_row -> figure9_body csv_row))

and figure9_body csv_row =
  List.iter
    (fun r ->
      subsection (Printf.sprintf "Figure 9: R = %g" r);
      Format.printf "  %-24s" "series \\ n_t";
      List.iter (fun nt -> Format.printf "%7d" nt) n_ts;
      Format.printf "@.";
      List.iter
        (fun k ->
          List.iter
            (fun pattern ->
              let name =
                Printf.sprintf "k=%2d %s" k
                  (match pattern with
                  | Access.Uniform -> "uniform"
                  | Access.Geometric _ -> "geometric"
                  | Access.Explicit _ -> "explicit")
              in
              Format.printf "  %-24s" name;
              let cells =
                List.map
                  (fun nt ->
                    let p =
                      { default with Params.k; n_t = nt; runlength = r; pattern }
                    in
                    let t =
                      Tolerance.network ~ideal_method:Tolerance.Zero_delay p
                    in
                    Format.printf "%7.3f" t.Tolerance.tol;
                    Printf.sprintf "%.6f" t.Tolerance.tol)
                  n_ts
              in
              csv_row
                (Printf.sprintf "%g" r :: string_of_int k
                 :: (match pattern with
                    | Access.Uniform -> "uniform"
                    | Access.Geometric _ -> "geometric"
                    | Access.Explicit _ -> "explicit")
                 :: cells);
              Format.printf "@.")
            [ Access.Uniform; Access.Geometric 0.5 ])
        [ 2; 4; 6; 8; 10 ])
    [ 1.; 2. ]

let figure9_chart () =
  subsection "Figure 9 as a chart (R = 1, n_t = 8): tol_network vs k";
  let series pattern label =
    {
      Plot.label;
      points =
        List.map
          (fun k ->
            let p = { default with Params.k; pattern } in
            ( float_of_int k,
              (Tolerance.network ~ideal_method:Tolerance.Zero_delay p)
                .Tolerance.tol ))
          [ 2; 4; 6; 8; 10 ];
    }
  in
  Format.printf "%s@."
    (Plot.render ~y_min:0. ~y_max:1. ~x_label:"k (P = k^2)"
       ~y_label:"tol_network vs zero-delay ideal"
       [ series (Access.Geometric 0.5) "geometric(0.5)";
         series Access.Uniform "uniform" ])

let figure10 () =
  section "Figure 10 - system throughput and latencies when scaling P (n_t = 8, R = 1)";
  subsection "Figure 10(a): throughput P x lambda";
  Format.printf "  %4s %6s %10s %12s %10s %10s@." "k" "P" "linear"
    "ideal-net" "geometric" "uniform";
  ignore
    (Csvout.table "fig10a"
       ~header:[ "k"; "P"; "linear"; "ideal"; "geometric"; "uniform" ]
       (fun row ->
         List.iter
           (fun k ->
             let geo = Scaling.evaluate default ~k (Access.Geometric 0.5) in
             let uni = Scaling.evaluate default ~k Access.Uniform in
             Format.printf "  %4d %6d %10.2f %12.2f %10.2f %10.2f@." k
               geo.Scaling.num_processors
               (float_of_int geo.Scaling.num_processors)
               geo.Scaling.throughput_ideal geo.Scaling.throughput
               uni.Scaling.throughput;
             row
               [ string_of_int k;
                 string_of_int geo.Scaling.num_processors;
                 string_of_int geo.Scaling.num_processors;
                 Printf.sprintf "%.4f" geo.Scaling.throughput_ideal;
                 Printf.sprintf "%.4f" geo.Scaling.throughput;
                 Printf.sprintf "%.4f" uni.Scaling.throughput ])
           [ 2; 4; 6; 8; 10 ]));
  subsection "Figure 10(b): S_obs and L_obs";
  Format.printf "  %4s %6s | %10s %10s | %12s %10s %10s@." "k" "P"
    "S_obs geo" "S_obs uni" "L_obs ideal" "L_obs geo" "L_obs uni";
  List.iter
    (fun k ->
      let geo = Scaling.evaluate default ~k (Access.Geometric 0.5) in
      let uni = Scaling.evaluate default ~k Access.Uniform in
      Format.printf "  %4d %6d | %10.2f %10.2f | %12.2f %10.2f %10.2f@." k
        geo.Scaling.num_processors geo.Scaling.measures.Measures.s_obs
        uni.Scaling.measures.Measures.s_obs
        geo.Scaling.ideal_network.Measures.l_obs
        geo.Scaling.measures.Measures.l_obs
        uni.Scaling.measures.Measures.l_obs)
    [ 2; 4; 6; 8; 10 ]

(* ------------------------------------------------------------------ *)
(* Figure 11 - validation *)

let figure11 () =
  section
    "Figure 11 - validation: AMVA model vs STPN simulation vs DES (p_remote \
     = 0.5)";
  let rows = ref [] in
  let fig11_row cells = rows := cells :: !rows in
  let nts = [ 1; 2; 4; 6; 8 ] in
  List.iter
    (fun s ->
      subsection (Printf.sprintf "S = %g (STPN horizon 10k, DES horizon 20k)" s);
      Format.printf "  %4s | %9s %9s %9s | %9s %9s %9s@." "n_t" "ln.model"
        "ln.stpn" "ln.des" "So.model" "So.stpn" "So.des";
      List.iter
        (fun nt ->
          let p =
            { default with Params.p_remote = 0.5; n_t = nt; s_switch = s }
          in
          let model = Mms.solve p in
          let stpn =
            (Lattol_petri.Mms_stpn.run ~warmup:500. ~horizon:10_000. p)
              .Lattol_petri.Mms_stpn.measures
          in
          let des =
            (Lattol_sim.Mms_des.run
               ~config:
                 {
                   Lattol_sim.Mms_des.default_config with
                   Lattol_sim.Mms_des.horizon = 20_000.;
                   warmup = 500.;
                 }
               p)
              .Lattol_sim.Mms_des.measures
          in
          Format.printf "  %4d | %9.4f %9.4f %9.4f | %9.3f %9.3f %9.3f@." nt
            model.Measures.lambda_net stpn.Measures.lambda_net
            des.Measures.lambda_net model.Measures.s_obs stpn.Measures.s_obs
            des.Measures.s_obs;
          fig11_row
            [ Printf.sprintf "%g" s; string_of_int nt;
              Printf.sprintf "%.6f" model.Measures.lambda_net;
              Printf.sprintf "%.6f" stpn.Measures.lambda_net;
              Printf.sprintf "%.6f" des.Measures.lambda_net;
              Printf.sprintf "%.4f" model.Measures.s_obs;
              Printf.sprintf "%.4f" stpn.Measures.s_obs;
              Printf.sprintf "%.4f" des.Measures.s_obs ])
        nts)
    [ 1.; 2. ];
  ignore
    (Csvout.table "fig11"
       ~header:
         [ "S"; "n_t"; "lambda_net_model"; "lambda_net_stpn"; "lambda_net_des";
           "s_obs_model"; "s_obs_stpn"; "s_obs_des" ]
       (fun row -> List.iter row (List.rev !rows)));
  subsection "distribution sensitivity (paper: deterministic L moves S_obs < 10%)";
  let p = { default with Params.p_remote = 0.5; n_t = 4 } in
  let cfg =
    {
      Lattol_sim.Mms_des.default_config with
      Lattol_sim.Mms_des.horizon = 30_000.;
      warmup = 500.;
    }
  in
  let exp_run = (Lattol_sim.Mms_des.run ~config:cfg p).Lattol_sim.Mms_des.measures in
  let det_run =
    (Lattol_sim.Mms_des.run
       ~config:{ cfg with Lattol_sim.Mms_des.mem_model = Lattol_sim.Mms_des.Deterministic }
       p)
      .Lattol_sim.Mms_des.measures
  in
  Format.printf
    "  S_obs: exponential L = %.3f, deterministic L = %.3f (%.1f%% apart)@."
    exp_run.Measures.s_obs det_run.Measures.s_obs
    (100.
    *. abs_float (exp_run.Measures.s_obs -. det_run.Measures.s_obs)
    /. exp_run.Measures.s_obs)

(* ------------------------------------------------------------------ *)
(* Ablations: design choices the paper discusses but does not evaluate *)

let ablations () =
  section "Ablations - design implications from Section 7 and the symbol table";
  subsection
    "A1: memory multiporting (paper: 'multiporting/pipelining the memory can \
     be of help')";
  Format.printf "  %5s %8s %8s %10s %10s@." "ports" "U_p" "L_obs" "tol_mem"
    "tol_net";
  List.iter
    (fun ports ->
      let p = { default with Params.mem_ports = ports } in
      let m = Mms.solve p in
      let tm = (Tolerance.memory p).Tolerance.tol in
      let tn = (Tolerance.network p).Tolerance.tol in
      Format.printf "  %5d %8.4f %8.3f %10.4f %10.4f@." ports m.Measures.u_p
        m.Measures.l_obs tm tn)
    [ 1; 2; 3; 4 ];
  subsection
    "A2: local-memory priority, EM-4 style (DES; paper: 'prioritizing the \
     local memory requests can improve the performance of a system with a \
     very fast IN')";
  let compare_priority name p =
    let cfg = { Lattol_sim.Mms_des.default_config with horizon = 30_000. } in
    let fifo = (Lattol_sim.Mms_des.run ~config:cfg p).Lattol_sim.Mms_des.measures in
    let prio =
      (Lattol_sim.Mms_des.run
         ~config:{ cfg with Lattol_sim.Mms_des.local_memory_priority = true }
         p)
        .Lattol_sim.Mms_des.measures
    in
    Format.printf "  %-30s FCFS U_p=%.4f | local-priority U_p=%.4f (%+.4f)@."
      name fifo.Measures.u_p prio.Measures.u_p
      (prio.Measures.u_p -. fifo.Measures.u_p)
  in
  compare_priority "baseline 4x4" default;
  compare_priority "fast IN (k=6, S=0.01)"
    { default with Params.k = 6; s_switch = 0.01 };
  compare_priority "contended memory (L=2)"
    { default with Params.k = 6; s_switch = 0.01; l_mem = 2. };
  Format.printf
    "  finding: for the symmetric SPMD workload the heuristic consistently \
     hurts@.  aggregate U_p - starving remote responses keeps other \
     processors' threads@.  suspended (see EXPERIMENTS.md).@.";
  subsection "A3: context-switch overhead C (symbol table lists C; paper folds it into R)";
  Format.printf "  %6s %8s %8s@." "C" "U_p" "lambda";
  List.iter
    (fun c ->
      let m = Mms.solve { default with Params.context_switch = c } in
      Format.printf "  %6.2f %8.4f %8.4f@." c m.Measures.u_p m.Measures.lambda)
    [ 0.; 0.1; 0.25; 0.5; 1. ];
  subsection "A4: parameter sensitivity ranking at the Table 1 operating point";
  List.iter
    (fun d -> Format.printf "  %a@." Sensitivity.pp_derivative d)
    (Sensitivity.ranked default);
  subsection
    "A6: network dimensionality at P = 64 (ring vs torus vs cube, uniform \
     pattern)";
  Format.printf "  %4s %4s %8s %8s %8s@." "dim" "k" "U_p" "S_obs" "d_avg";
  List.iter
    (fun (k, d) ->
      let p =
        {
          default with
          Params.k;
          dimensions = d;
          p_remote = 0.4;
          pattern = Access.Uniform;
        }
      in
      let m = Mms.solve p in
      let b = Bottleneck.analyze p in
      Format.printf "  %4d %4d %8.4f %8.2f %8.2f@." d k m.Measures.u_p
        m.Measures.s_obs b.Bottleneck.d_avg)
    [ (64, 1); (8, 2); (4, 3) ];
  subsection
    "A7: AMVA variants vs exact MVA on the 2x2 machine (n_t = 3, p_remote = \
     0.5)";
  let tiny = { default with Params.k = 2; n_t = 3; p_remote = 0.5 } in
  let exact = Mms.solve ~solver:Mms.Exact_mva tiny in
  List.iter
    (fun (name, solver) ->
      let m = Mms.solve ~solver tiny in
      Format.printf "  %-16s U_p = %.6f (error %+.3f%%)@." name m.Measures.u_p
        (100. *. (m.Measures.u_p -. exact.Measures.u_p) /. exact.Measures.u_p))
    [
      ("exact MVA", Mms.Exact_mva);
      ("Bard-Schweitzer", Mms.General_amva);
      ("Linearizer", Mms.Linearizer_amva);
    ];
  subsection
    "A8: data distributions for a 3-point stencil loop (explicit em matrices)";
  Format.printf "  %-18s %9s %8s %8s@." "distribution" "p_remote" "U_p" "tol_net";
  List.iter
    (fun (d, ch, m, tol) ->
      Format.printf "  %-18s %9.4f %8.4f %8.4f@."
        (Workload.distribution_to_string d)
        ch.Workload.p_remote_mean m.Measures.u_p tol)
    (Workload.compare_distributions ~base:{ default with Params.n_t = 4 }
       ~elements:4096 ~stencil:[ -1; 0; 1 ] ~work_per_access:2.
       [ Workload.Block; Workload.Block_cyclic 4; Workload.Cyclic ])

let hotspot_ablation () =
  subsection
    "A10: hotspot traffic (every remote access targets node 0) - asymmetric \
     explicit pattern, full multi-class solve";
  let topo = Params.make_topology default in
  let n = Lattol_topology.Topology.num_nodes topo in
  Format.printf "  %9s %10s %10s %12s@." "p_remote" "U_p(hot)" "U_p(geo)"
    "hot mem util";
  List.iter
    (fun pr ->
      let matrix =
        Array.init n (fun src ->
            Array.init n (fun dst ->
                if src = 0 then (if dst = 0 then 1. else 0.)
                else if dst = src then 1. -. pr
                else if dst = 0 then pr
                else 0.))
      in
      let hot =
        Params.validate_exn
          { default with Params.pattern = Access.Explicit matrix }
      in
      (* Class 1 is a victim processor; node 0's memory is the hotspot. *)
      let sol = Mms.solve_network ~solver:Mms.General_amva hot in
      let hot_mem_util =
        Lattol_queueing.Solution.utilization sol
          ~station:(Mms.memory_station hot ~node:0)
      in
      let victim_u_p =
        sol.Lattol_queueing.Solution.throughput.(1)
        *. Params.processor_occupancy hot
      in
      let geo = Mms.solve { default with Params.p_remote = pr } in
      Format.printf "  %9.2f %10.4f %10.4f %12.4f@." pr victim_u_p
        geo.Measures.u_p hot_mem_util)
    [ 0.1; 0.2; 0.4 ];
  Format.printf
    "  the hotspot memory saturates long before the distributed pattern \
     suffers.@."

let trace_ablation () =
  subsection
    "A11: abstraction ladder on a cyclic stencil loop - analytical model vs \
     probabilistic DES vs execution trace replay";
  let base = { default with Params.n_t = 4 } in
  let loop =
    { Workload.elements = 4096; distribution = Workload.Cyclic;
      stencil = [ -1; 0; 1 ]; work_per_access = 2. }
  in
  let p = Workload.to_params ~base loop in
  let model = Mms.solve p in
  let cfg =
    { Lattol_sim.Mms_des.default_config with Lattol_sim.Mms_des.horizon = 30_000. }
  in
  let prob = (Lattol_sim.Mms_des.run ~config:cfg p).Lattol_sim.Mms_des.measures in
  let trace = Lattol_sim.Trace.of_loop ~base loop in
  let tr =
    (Lattol_sim.Mms_des.run_trace ~config:cfg ~base:p trace)
      .Lattol_sim.Mms_des.measures
  in
  Format.printf "  %-24s %8s %10s %8s %8s@." "level" "U_p" "lambda_net"
    "S_obs" "L_obs";
  List.iter
    (fun (name, (m : Measures.t)) ->
      Format.printf "  %-24s %8.4f %10.4f %8.3f %8.3f@." name m.Measures.u_p
        m.Measures.lambda_net m.Measures.s_obs m.Measures.l_obs)
    [ ("AMVA (explicit matrix)", model); ("DES (probabilistic)", prob);
      ("DES (trace replay)", tr) ];
  Format.printf
    "  the regular schedule and deterministic compute of the real loop beat@.\
    \  the memoryless abstractions - the model is a conservative bound here.@."

let su_ablation () =
  subsection
    "A12: EARTH-style synchronization unit - inline communication handling \
     (processor pays 2h per remote access) vs SU offload (a dedicated unit \
     pays h per touch)";
  let base = { default with Params.p_remote = 0.4 } in
  Format.printf "  %8s | %12s %12s | %10s@." "overhead" "inline U_p"
    "offload U_p" "SU util";
  List.iter
    (fun h ->
      let inline =
        Mms.solve
          { base with Params.context_switch = 2. *. h *. base.Params.p_remote }
      in
      let offload = Mms.solve { base with Params.sync_unit = h } in
      Format.printf "  %8.2f | %12.4f %12.4f | %10.3f@." h
        (inline.Measures.lambda *. base.Params.runlength)
        (offload.Measures.lambda *. base.Params.runlength)
        offload.Measures.util_sync)
    [ 0.1; 0.25; 0.5; 1. ];
  Format.printf
    "  (U_p shown is useful work, lambda x R, so the inline variant's \
     handling@.   cycles do not count as progress.)@."

let hetero_ablation () =
  subsection
    "A13: mixed workloads - batch traffic inflates interactive threads' \
     observed latency (multi-class interference)";
  let interactive =
    { Hetero.name = "interactive"; count = 2; runlength = 0.5; p_remote = 0.1;
      pattern = Access.Geometric 0.5 }
  in
  Format.printf "  %8s | %12s %14s | %8s@." "batch" "inter S_obs"
    "inter lambda" "U_p";
  List.iter
    (fun batch_count ->
      let groups =
        if batch_count = 0 then [ interactive ]
        else
          [ interactive;
            { Hetero.name = "batch"; count = batch_count; runlength = 2.;
              p_remote = 0.5; pattern = Access.Uniform } ]
      in
      let r = Hetero.solve ~base:default groups in
      let i = List.hd r.Hetero.groups in
      Format.printf "  %8d | %12.3f %14.4f | %8.4f@." batch_count
        i.Hetero.s_obs i.Hetero.lambda r.Hetero.u_p)
    [ 0; 2; 4; 6 ]

let pipeline_ablation () =
  subsection
    "A14: pipelined switches - the paper's own model limitation ('except to \
     achieve the low latency of pipelined networks') removed via \
     multiserver switch stations; Eq. 4's ceiling scales with depth";
  Format.printf "  %6s %9s %11s %8s %8s@." "depth" "ceiling" "lambda_net"
    "U_p" "S_obs";
  List.iter
    (fun depth ->
      let p =
        { default with Params.switch_pipeline = depth; p_remote = 0.6; n_t = 8 }
      in
      let b = Bottleneck.analyze p in
      let m = Mms.solve p in
      Format.printf "  %6d %9.3f %11.4f %8.4f %8.3f@." depth
        b.Bottleneck.lambda_net_saturation m.Measures.lambda_net
        m.Measures.u_p m.Measures.s_obs)
    [ 1; 2; 4; 8 ]

let locality_ablation () =
  subsection
    "A17: locality sweep - tol_network vs p_sw at k = 10 (the knob behind \
     Figure 9's geometric-vs-uniform contrast)";
  Format.printf "  %6s %8s %8s %8s@." "p_sw" "d_avg" "U_p" "tol_net";
  List.iter
    (fun p_sw ->
      let p =
        { default with Params.k = 10; pattern = Access.Geometric p_sw }
      in
      let b = Bottleneck.analyze p in
      let t = Tolerance.network ~ideal_method:Tolerance.Zero_delay p in
      Format.printf "  %6.2f %8.3f %8.4f %8.4f@." p_sw b.Bottleneck.d_avg
        t.Tolerance.u_p t.Tolerance.tol)
    [ 0.2; 0.4; 0.6; 0.8; 0.95 ];
  let uni = { default with Params.k = 10; pattern = Access.Uniform } in
  let t = Tolerance.network ~ideal_method:Tolerance.Zero_delay uni in
  Format.printf "  %6s %8.3f %8.4f %8.4f@." "unif"
    (Bottleneck.analyze uni).Bottleneck.d_avg t.Tolerance.u_p t.Tolerance.tol

let mesh_ablation () =
  subsection
    "A16: torus vs open mesh at the same k - losing the wraparound links \
     lengthens routes and breaks symmetry (general multi-class solve)";
  Format.printf "  %4s | %10s %10s | %10s %10s@." "k" "torus U_p" "mesh U_p"
    "torus S_obs" "mesh S_obs";
  List.iter
    (fun k ->
      let torus = Mms.solve { default with Params.k; p_remote = 0.4 } in
      let mesh =
        Mms.solve
          { default with Params.k; p_remote = 0.4;
            topology = Lattol_topology.Topology.Mesh }
      in
      Format.printf "  %4d | %10.4f %10.4f | %10.3f %10.3f@." k
        torus.Measures.u_p mesh.Measures.u_p torus.Measures.s_obs
        mesh.Measures.s_obs)
    [ 2; 4; 6 ]

let cache_ablation () =
  subsection
    "A9: cache contention caps the useful thread count (footnote 4; \
     contention-free vs cache-aware n_t sweep)";
  let cache = Cache_effects.default in
  let base = { default with Params.p_remote = 0.3 } in
  (* the contention-free comparison keeps the uncontended runlength *)
  let free_runlength = Cache_effects.runlength cache ~n_t:1 in
  Format.printf "  %4s | %12s | %9s %9s %9s@." "n_t" "free U_p" "hit" "R_eff"
    "U_p";
  List.iter
    (fun nt ->
      let free =
        (Mms.solve { base with Params.n_t = nt; runlength = free_runlength })
          .Measures.u_p
      in
      let pt =
        List.hd (Cache_effects.sweep cache ~base ~n_ts:[ nt ])
      in
      Format.printf "  %4d | %12.4f | %9.3f %9.2f %9.4f@." nt free
        pt.Cache_effects.hit_rate pt.Cache_effects.effective_runlength
        pt.Cache_effects.measures.Measures.u_p)
    [ 1; 2; 4; 6; 8; 12; 16 ];
  let best = Cache_effects.best_thread_count cache ~base ~max_threads:16 in
  Format.printf
    "  contention-free U_p is monotone in n_t; cache-aware peaks at n_t = %d.@."
    best.Cache_effects.n_t

(* ------------------------------------------------------------------ *)

let () =
  Csvout.configure ();
  Format.printf
    "Latency tolerance reproduction harness (Nemawarkar & Gao, IPPS 1997)@.";
  Format.printf "Defaults: %a@." Params.pp default;
  eq4_eq5 ();
  grid_figure ~runlength:1. ~fig:4;
  grid_figure ~runlength:2. ~fig:5;
  table2 ();
  figure6 ();
  figure6_zones ();
  figure7 ();
  table3 ();
  figure8 ();
  figure8_zones ();
  table4 ();
  figure9 ();
  figure9_chart ();
  figure10 ();
  figure11 ();
  ablations ();
  hotspot_ablation ();
  trace_ablation ();
  su_ablation ();
  hetero_ablation ();
  pipeline_ablation ();
  locality_ablation ();
  mesh_ablation ();
  cache_ablation ();
  Csvout.note ();
  Format.printf "@.Done.@."
