type pattern = Geometric of float | Uniform | Explicit of float array array

type t = {
  topo : Topology.t;
  pattern : pattern;
  p_remote : float;
  (* probs.(src).(dst) = em_{src,dst}; precomputed because every solver and
     simulator reads it in inner loops. *)
  probs : float array array;
}

(* [weights.(h) = p_sw ** h] for every hop count [h]: one [**] per
   distance, shared by every row. *)
let build_row topo pattern p_remote weights src =
  let p = Topology.num_nodes topo in
  let row = Array.make p 0. in
  row.(src) <- 1. -. p_remote;
  if p_remote > 0. then begin
    match pattern with
    | Explicit _ -> assert false (* handled before build_row is reached *)
    | Uniform ->
      let share = p_remote /. float_of_int (p - 1) in
      for dst = 0 to p - 1 do
        if dst <> src then row.(dst) <- share
      done
    | Geometric _ ->
      let counts = Topology.distance_counts topo src in
      let d_max = Array.length counts - 1 in
      (* Normalizer over the distances that actually have nodes: on small or
         open networks some nominal distances may be empty. *)
      let a = ref 0. in
      for h = 1 to d_max do
        if counts.(h) > 0 then a := !a +. weights.(h)
      done;
      for dst = 0 to p - 1 do
        if dst <> src then begin
          let h = Topology.distance topo src dst in
          let p_h = weights.(h) /. !a in
          row.(dst) <- p_remote *. p_h /. float_of_int counts.(h)
        end
      done
  end;
  row

(* Every row from node 0's.  On a vertex-transitive network each entry
   depends only on the hop distance, and distance commutes with
   translation: row [src] is [row0] read at [dst - src], the difference
   taken coordinate-wise modulo each dimension, bit for bit what
   [build_row] computes.  The offsets are computed here rather than read
   from [Topology.subtract_table], whose P x P table would double the
   words this build allocates. *)
let translated topo row0 =
  let p = Array.length row0 in
  let dims = Array.of_list (Topology.dims topo) in
  let coords = Array.init p (Topology.coords_nd topo) in
  Array.init p (fun src ->
      let row = Array.make p 0. in
      for dst = 0 to p - 1 do
        let off = ref 0 and stride = ref 1 in
        for d = 0 to Array.length dims - 1 do
          let x = coords.(dst).(d) - coords.(src).(d) in
          off := !off + ((if x < 0 then x + dims.(d) else x) * !stride);
          stride := !stride * dims.(d)
        done;
        row.(dst) <- row0.(!off)
      done;
      row)

let validate_explicit topo m =
  let p = Topology.num_nodes topo in
  if Array.length m <> p then
    Format.kasprintf invalid_arg
      "Access.create: explicit matrix has %d rows for %d nodes"
      (Array.length m) p;
  Array.iteri
    (fun src row ->
      if Array.length row <> p then
        Format.kasprintf invalid_arg
          "Access.create: explicit row %d has %d entries for %d nodes" src
          (Array.length row) p;
      let sum = ref 0. in
      Array.iter
        (fun v ->
          if v < 0. || not (Float.is_finite v) then
            Format.kasprintf invalid_arg
              "Access.create: explicit row %d has invalid entry %g" src v;
          sum := !sum +. v)
        row;
      if abs_float (!sum -. 1.) > 1e-9 then
        Format.kasprintf invalid_arg
          "Access.create: explicit row %d sums to %g, not 1" src !sum)
    m

let create topo pattern ~p_remote =
  if p_remote < 0. || p_remote > 1. then
    invalid_arg "Access.create: p_remote in [0, 1]";
  (match pattern with
  | Geometric p_sw when p_sw <= 0. || p_sw >= 1. ->
    invalid_arg "Access.create: p_sw in (0, 1)"
  | Explicit m -> validate_explicit topo m
  | Geometric _ | Uniform -> ());
  match pattern with
  | Explicit m ->
    let p = Topology.num_nodes topo in
    let probs = Array.map Array.copy m in
    let mean_remote =
      let acc = ref 0. in
      Array.iteri (fun src row -> acc := !acc +. (1. -. row.(src))) probs;
      !acc /. float_of_int p
    in
    { topo; pattern; p_remote = mean_remote; probs }
  | Geometric _ | Uniform ->
    if p_remote > 0. && Topology.num_nodes topo < 2 then
      invalid_arg "Access.create: remote accesses need at least two nodes";
    let p = Topology.num_nodes topo in
    let weights =
      match pattern with
      | Geometric p_sw ->
        Array.init (Topology.max_distance topo + 1) (fun h ->
            p_sw ** float_of_int h)
      | Uniform | Explicit _ -> [||]
    in
    let row = build_row topo pattern p_remote weights in
    let probs =
      if Topology.is_vertex_transitive topo then translated topo (row 0)
      else Array.init p row
    in
    { topo; pattern; p_remote; probs }

let p_remote t = t.p_remote

let remote_fraction t ~src = 1. -. t.probs.(src).(src)

let is_translation_invariant t =
  match t.pattern with
  | Explicit _ -> false
  | Geometric _ | Uniform -> Topology.is_vertex_transitive t.topo

let prob t ~src ~dst = t.probs.(src).(dst)

let matrix t = Array.map Array.copy t.probs

let distance_pmf t ~src =
  let pmf = Array.make (Topology.max_distance t.topo + 1) 0. in
  Array.iteri
    (fun dst p ->
      let h = Topology.distance t.topo src dst in
      pmf.(h) <- pmf.(h) +. p)
    t.probs.(src);
  pmf

let average_distance t ~src =
  let remote = remote_fraction t ~src in
  if Float.equal remote 0. then nan
  else begin
    let pmf = distance_pmf t ~src in
    let num = ref 0. in
    for h = 1 to Array.length pmf - 1 do
      num := !num +. (float_of_int h *. pmf.(h))
    done;
    !num /. remote
  end
