open Lattol_topology

type point = {
  k : int;
  num_processors : int;
  pattern : Access.pattern;
  d_avg : float;
  measures : Measures.t;
  ideal_network : Measures.t;
  tol_network : float;
  throughput : float;
  throughput_ideal : float;
}

let evaluate base ~k pattern =
  let p = { base with Params.k; pattern } in
  let report = Tolerance.network ~ideal_method:Tolerance.Zero_delay p in
  let real = report.Tolerance.real and ideal = report.Tolerance.ideal in
  let n = Params.num_processors p in
  {
    k;
    num_processors = n;
    pattern;
    d_avg = Bottleneck.(analyze p).d_avg;
    measures = real;
    ideal_network = ideal;
    tol_network = report.Tolerance.tol;
    throughput = Measures.system_throughput real ~num_processors:n;
    throughput_ideal = Measures.system_throughput ideal ~num_processors:n;
  }

let sweep base ~ks ~patterns =
  List.concat_map
    (fun k -> List.map (fun pattern -> evaluate base ~k pattern) patterns)
    ks

let pattern_to_string = function
  | Access.Geometric p_sw -> Printf.sprintf "geometric(%g)" p_sw
  | Access.Uniform -> "uniform"
  | Access.Explicit _ -> "explicit"

let pp_point ppf p =
  Fmt.pf ppf
    "@[k=%2d P=%3d %-14s d_avg=%.3f U_p=%.4f tol_net=%.4f P.X=%.3f \
     (ideal %.3f) S_obs=%.2f L_obs=%.2f@]"
    p.k p.num_processors
    (pattern_to_string p.pattern)
    p.d_avg p.measures.Measures.u_p p.tol_network p.throughput
    p.throughput_ideal p.measures.Measures.s_obs p.measures.Measures.l_obs
