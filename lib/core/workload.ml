open Lattol_topology

type distribution = Block | Cyclic | Block_cyclic of int

type loop = {
  elements : int;
  distribution : distribution;
  stencil : int list;
  work_per_access : float;
}

let distribution_to_string = function
  | Block -> "block"
  | Cyclic -> "cyclic"
  | Block_cyclic b -> Printf.sprintf "block-cyclic(%d)" b

let validate ~num_processors loop =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if loop.elements < num_processors then
    err "loop has %d elements for %d processors" loop.elements num_processors
  else if loop.stencil = [] then err "empty stencil"
  else if loop.work_per_access <= 0. then
    err "work per access %g must be > 0" loop.work_per_access
  else
    match loop.distribution with
    | Block_cyclic b when b < 1 -> err "block-cyclic block size %d < 1" b
    | Block | Cyclic | Block_cyclic _ -> Ok loop

let owner loop ~num_processors ~element =
  let n = loop.elements and p = num_processors in
  let e = ((element mod n) + n) mod n in
  match loop.distribution with
  | Block ->
    (* Chunks of ceil(n/p); the last processor may own a short chunk. *)
    let chunk = (n + p - 1) / p in
    min (p - 1) (e / chunk)
  | Cyclic -> e mod p
  | Block_cyclic b -> e / b mod p

let access_matrix loop topo =
  let p = Topology.num_nodes topo in
  (match validate ~num_processors:p loop with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Workload.access_matrix: " ^ msg));
  let counts = Array.make_matrix p p 0 in
  for e = 0 to loop.elements - 1 do
    let home = owner loop ~num_processors:p ~element:e in
    List.iter
      (fun offset ->
        let target = owner loop ~num_processors:p ~element:(e + offset) in
        counts.(home).(target) <- counts.(home).(target) + 1)
      loop.stencil
  done;
  Array.map
    (fun row ->
      let total = Array.fold_left ( + ) 0 row in
      if total = 0 then
        (* A node owning no iterations performs no accesses; keep the row
           stochastic with a purely local placeholder. *)
        Array.init p (fun j -> if j = 0 then 1. else 0.)
      else Array.map (fun c -> float_of_int c /. float_of_int total) row)
    counts

type characterization = {
  matrix : float array array;
  p_remote_mean : float;
  p_remote_max : float;
  d_avg : float;
  fitted_p_sw : float option;
}

let characterize loop topo =
  let matrix = access_matrix loop topo in
  let access = Access.create topo (Access.Explicit matrix) ~p_remote:0. in
  let p = Topology.num_nodes topo in
  let mean = Access.p_remote access in
  let max_remote = ref 0. in
  let pmf = Array.make (Topology.max_distance topo + 1) 0. in
  for src = 0 to p - 1 do
    let r = Access.remote_fraction access ~src in
    if r > !max_remote then max_remote := r;
    Array.iteri
      (fun h mass -> pmf.(h) <- pmf.(h) +. (mass /. float_of_int p))
      (Access.distance_pmf access ~src)
  done;
  let d_avg =
    if Float.equal mean 0. then nan
    else begin
      let acc = ref 0. in
      for h = 1 to Array.length pmf - 1 do
        acc := !acc +. (float_of_int h *. pmf.(h))
      done;
      !acc /. mean
    end
  in
  (* Geometric fit: the mass at distance h+1 over the mass at h, averaged
     over the distances that carry traffic. *)
  let fitted_p_sw =
    let ratios = ref [] in
    for h = 1 to Array.length pmf - 2 do
      if pmf.(h) > 1e-12 && pmf.(h + 1) > 1e-12 then
        ratios := (pmf.(h + 1) /. pmf.(h)) :: !ratios
    done;
    match !ratios with
    | [] -> None
    | rs ->
      let avg = List.fold_left ( +. ) 0. rs /. float_of_int (List.length rs) in
      if avg > 0. && avg < 1. then Some avg else None
  in
  { matrix; p_remote_mean = mean; p_remote_max = !max_remote; d_avg; fitted_p_sw }

let to_params ?n_t ~base loop =
  let topo = Params.make_topology base in
  let matrix = access_matrix loop topo in
  Params.validate_exn
    {
      base with
      Params.n_t = Option.value n_t ~default:base.Params.n_t;
      runlength = loop.work_per_access;
      pattern = Access.Explicit matrix;
    }

let compare_distributions ~base ~elements ~stencil ~work_per_access
    distributions =
  let topo = Params.make_topology base in
  List.map
    (fun distribution ->
      let loop = { elements; distribution; stencil; work_per_access } in
      let ch = characterize loop topo in
      let params = to_params ~base loop in
      let report = Tolerance.network params in
      (distribution, ch, report.Tolerance.real, report.Tolerance.tol))
    distributions

module Grid = struct
  type decomposition = Row_blocks | Row_cyclic | Blocks

  type t = {
    rows : int;
    cols : int;
    decomposition : decomposition;
    stencil : (int * int) list;
    work_per_access : float;
  }

  let validate ~base g =
    let err fmt = Format.kasprintf (fun s -> Error s) fmt in
    let p = Params.num_processors base in
    if g.rows < 1 || g.cols < 1 then err "empty grid"
    else if g.stencil = [] then err "empty stencil"
    else if g.work_per_access <= 0. then
      err "work per access %g must be > 0" g.work_per_access
    else
      match g.decomposition with
      | Row_blocks | Row_cyclic ->
        if g.rows mod p <> 0 then
          err "%d rows not divisible by %d processors" g.rows p
        else Ok g
      | Blocks ->
        let k = base.Params.k in
        if base.Params.dimensions <> 2 then
          err "2-D blocks need a 2-dimensional machine"
        else if g.rows mod k <> 0 || g.cols mod k <> 0 then
          err "grid %dx%d not divisible by %dx%d tiles" g.rows g.cols k k
        else Ok g

  let validate_exn ~base g =
    match validate ~base g with
    | Ok g -> g
    | Error msg -> invalid_arg ("Workload.Grid: " ^ msg)

  let owner g ~base ~row ~col =
    let p = Params.num_processors base in
    let row = ((row mod g.rows) + g.rows) mod g.rows in
    let col = ((col mod g.cols) + g.cols) mod g.cols in
    match g.decomposition with
    | Row_blocks -> row / (g.rows / p)
    | Row_cyclic -> row mod p
    | Blocks ->
      let k = base.Params.k in
      let bx = col / (g.cols / k) and by = row / (g.rows / k) in
      Topology.of_coords (Params.make_topology base) (bx, by)

  let access_matrix g ~base =
    let g = validate_exn ~base g in
    let p = Params.num_processors base in
    let counts = Array.make_matrix p p 0 in
    for row = 0 to g.rows - 1 do
      for col = 0 to g.cols - 1 do
        let home = owner g ~base ~row ~col in
        List.iter
          (fun (dr, dc) ->
            let target = owner g ~base ~row:(row + dr) ~col:(col + dc) in
            counts.(home).(target) <- counts.(home).(target) + 1)
          g.stencil
      done
    done;
    Array.map
      (fun row ->
        let total = Array.fold_left ( + ) 0 row in
        if total = 0 then Array.init p (fun j -> if j = 0 then 1. else 0.)
        else Array.map (fun c -> float_of_int c /. float_of_int total) row)
      counts

  let characterize_matrix matrix topo =
    let access = Access.create topo (Access.Explicit matrix) ~p_remote:0. in
    let p = Topology.num_nodes topo in
    let mean = Access.p_remote access in
    let max_remote = ref 0. in
    let pmf = Array.make (Topology.max_distance topo + 1) 0. in
    for src = 0 to p - 1 do
      let r = Access.remote_fraction access ~src in
      if r > !max_remote then max_remote := r;
      Array.iteri
        (fun h mass -> pmf.(h) <- pmf.(h) +. (mass /. float_of_int p))
        (Access.distance_pmf access ~src)
    done;
    let d_avg =
      if Float.equal mean 0. then nan
      else begin
        let acc = ref 0. in
        for h = 1 to Array.length pmf - 1 do
          acc := !acc +. (float_of_int h *. pmf.(h))
        done;
        !acc /. mean
      end
    in
    let fitted_p_sw =
      let ratios = ref [] in
      for h = 1 to Array.length pmf - 2 do
        if pmf.(h) > 1e-12 && pmf.(h + 1) > 1e-12 then
          ratios := (pmf.(h + 1) /. pmf.(h)) :: !ratios
      done;
      match !ratios with
      | [] -> None
      | rs ->
        let avg = List.fold_left ( +. ) 0. rs /. float_of_int (List.length rs) in
        if avg > 0. && avg < 1. then Some avg else None
    in
    {
      matrix;
      p_remote_mean = mean;
      p_remote_max = !max_remote;
      d_avg;
      fitted_p_sw;
    }

  let characterize g ~base =
    characterize_matrix (access_matrix g ~base) (Params.make_topology base)

  let to_params ~base g =
    let matrix = access_matrix g ~base in
    Params.validate_exn
      {
        base with
        runlength = g.work_per_access;
        pattern = Access.Explicit matrix;
      }

  let compare_decompositions ~base ~rows ~cols ~stencil ~work_per_access
      decompositions =
    List.map
      (fun decomposition ->
        let g = { rows; cols; decomposition; stencil; work_per_access } in
        let ch = characterize g ~base in
        let params = to_params ~base g in
        let report = Tolerance.network params in
        (decomposition, ch, report.Tolerance.real, report.Tolerance.tol))
      decompositions
end
