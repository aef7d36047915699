open Lattol_core

type figure = {
  name : string;
  title : string;
  base : Params.t;
  axes : Sweep.axis list;
}

(* The paper's 4x4 torus, geometric (p_sw = 0.5) access pattern. *)
let paper_base = Params.default

let axis param values = { Sweep.param; values }

let all ?(base = paper_base) () =
  let n_t = List.map float_of_int [ 1; 2; 3; 4; 5; 6; 8 ] in
  let p_remote = Sweep.linspace ~lo:0. ~hi:1. ~steps:11 in
  [
    {
      name = "fig04_grid";
      title = "U_p, S_obs, lambda_net and tolerance vs (n_t, p_remote), R = 1";
      base = { base with Params.runlength = 1. };
      axes = [ axis Sweep.N_t n_t; axis Sweep.P_remote p_remote ];
    };
    {
      name = "fig05_grid";
      title = "U_p, S_obs, lambda_net and tolerance vs (n_t, p_remote), R = 2";
      base = { base with Params.runlength = 2. };
      axes = [ axis Sweep.N_t n_t; axis Sweep.P_remote p_remote ];
    };
    {
      name = "fig06_tolerance";
      title = "network latency tolerance vs (p_remote, R, n_t)";
      base;
      axes =
        [
          axis Sweep.P_remote [ 0.2; 0.4 ];
          axis Sweep.Runlength [ 0.5; 1.; 2.; 4.; 8.; 16. ];
          axis Sweep.N_t (List.map float_of_int [ 1; 2; 4; 6; 8; 10 ]);
        ];
    };
    {
      name = "saturation";
      title = "lambda_net saturation vs p_remote, n_t = 10";
      base = { base with Params.n_t = 10 };
      axes = [ axis Sweep.P_remote (Sweep.linspace ~lo:0. ~hi:1. ~steps:21) ];
    };
  ]

let find ?base name =
  List.find_opt (fun f -> f.name = name) (all ?base ())

(* CSV: one column per swept parameter, then the measure columns the CLI's
   single-parameter sweep always printed. *)
let measure_columns =
  [ "u_p"; "lambda"; "lambda_net"; "s_obs"; "l_obs"; "tol_network"; "tol_memory" ]

let csv_of_rows figure rows =
  let b = Buffer.create 4096 in
  Printf.bprintf b "# %s\n" figure.title;
  Printf.bprintf b "%s\n"
    (String.concat ","
       (List.map (fun a -> Sweep.param_name a.Sweep.param) figure.axes
       @ measure_columns));
  let data_rows = ref 0 in
  List.iter
    (fun row ->
      match row.Sweep.result with
      | Error msg ->
        Printf.bprintf b "# skipped %s: %s\n" (Sweep.label row.Sweep.assigns)
          msg
      | Ok s ->
        incr data_rows;
        List.iter
          (fun (_, v) -> Printf.bprintf b "%g," v)
          row.Sweep.assigns;
        let m = s.Sweep.measures in
        Printf.bprintf b "%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n"
          m.Measures.u_p m.Measures.lambda m.Measures.lambda_net
          m.Measures.s_obs m.Measures.l_obs
          s.Sweep.tol_network.Tolerance.tol s.Sweep.tol_memory.Tolerance.tol)
    rows;
  (Buffer.contents b, !data_rows)

type written = { figure : figure; path : string; rows : int }

let journal_meta ?solver figures =
  let b = Buffer.create 256 in
  Printf.bprintf b "figures/%d;" Journal.format_version;
  List.iter
    (fun f ->
      Printf.bprintf b "%s=%s;" f.name
        (Sweep.journal_meta ?solver ~base:f.base f.axes))
    figures;
  Digest.to_hex (Digest.string (Buffer.contents b))

let write ?solver ?cache ?jobs ?chunk ?oversubscribe ?causal ?monitor ?journal
    ?retry ?deadline ?chaos ~dir figures =
  Cache.mkdir_p dir;
  let cache = match cache with Some c -> c | None -> Cache.create () in
  List.map
    (fun figure ->
      let rows =
        Sweep.run ?solver ~cache ?jobs ?chunk ?oversubscribe ?causal ?monitor
          ?journal
          ~journal_prefix:(figure.name ^ "/") ?retry ?deadline ?chaos
          ~base:figure.base figure.axes
      in
      let csv, data_rows = csv_of_rows figure rows in
      let path = Filename.concat dir (figure.name ^ ".csv") in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc csv);
      { figure; path; rows = data_rows })
    figures
