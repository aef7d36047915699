type kind = Torus | Mesh

type t = {
  kind : kind;
  dims : int array;     (* nodes per dimension, innermost first *)
  strides : int array;  (* mixed-radix strides for node numbering *)
  num_nodes : int;
}

type node = int

let create_nd kind ~dims =
  if dims = [] then invalid_arg "Topology.create_nd: at least one dimension";
  List.iter
    (fun k -> if k < 1 then invalid_arg "Topology.create_nd: dims >= 1")
    dims;
  let dims = Array.of_list dims in
  let n = Array.length dims in
  let strides = Array.make n 1 in
  for d = 1 to n - 1 do
    strides.(d) <- strides.(d - 1) * dims.(d - 1)
  done;
  { kind; dims; strides; num_nodes = Array.fold_left ( * ) 1 dims }

let create kind ~k =
  if k < 1 then invalid_arg "Topology.create: k >= 1";
  create_nd kind ~dims:[ k; k ]

let kind t = t.kind

let dims t = Array.to_list t.dims

let num_dimensions t = Array.length t.dims

let num_nodes t = t.num_nodes

let check_node t n name =
  if n < 0 || n >= t.num_nodes then
    Format.kasprintf invalid_arg "Topology.%s: node out of range" name

let coord t n d = n / t.strides.(d) mod t.dims.(d)

let coords_nd t n =
  check_node t n "coords";
  Array.init (Array.length t.dims) (coord t n)

let of_coords_nd t cs =
  if Array.length cs <> Array.length t.dims then
    invalid_arg "Topology.of_coords_nd: dimension mismatch";
  let acc = ref 0 in
  Array.iteri
    (fun d c ->
      if c < 0 || c >= t.dims.(d) then
        invalid_arg "Topology.of_coords_nd: out of range";
      acc := !acc + (c * t.strides.(d)))
    cs;
  !acc

let coords t n =
  if Array.length t.dims <> 2 then
    invalid_arg "Topology.coords: 2-dimensional networks only (use coords_nd)";
  check_node t n "coords";
  (coord t n 0, coord t n 1)

let of_coords t (x, y) =
  if Array.length t.dims <> 2 then
    invalid_arg "Topology.of_coords: 2-dimensional networks only";
  of_coords_nd t [| x; y |]

(* Signed step along one axis towards the target, shorter way round on the
   torus with a fixed tie-break so routes are deterministic. *)
let axis_delta t d a b =
  match t.kind with
  | Mesh -> compare b a
  | Torus ->
    let k = t.dims.(d) in
    let fwd = (b - a + k) mod k in
    let bwd = (a - b + k) mod k in
    if fwd = 0 then 0 else if fwd <= bwd then 1 else -1

let axis_distance t d a b =
  match t.kind with
  | Mesh -> abs (b - a)
  | Torus ->
    let k = t.dims.(d) in
    let fwd = (b - a + k) mod k in
    min fwd (k - fwd)

let distance t m n =
  check_node t m "distance";
  check_node t n "distance";
  let acc = ref 0 in
  for d = 0 to Array.length t.dims - 1 do
    acc := !acc + axis_distance t d (coord t m d) (coord t n d)
  done;
  !acc

let max_distance t =
  let acc = ref 0 in
  Array.iter
    (fun k ->
      acc := !acc + (match t.kind with Mesh -> k - 1 | Torus -> k / 2))
    t.dims;
  !acc

let iter_route t ~src ~dst f =
  check_node t src "route";
  check_node t dst "route";
  (* Dimension-order: finish dimension 0, then 1, ...  Only the
     coordinate being corrected changes, so the node number moves by
     that dimension's stride at each hop. *)
  let node = ref src in
  for d = 0 to Array.length t.dims - 1 do
    let k = t.dims.(d) and target = coord t dst d in
    let c = ref (coord t src d) in
    while !c <> target do
      let next = ((!c + axis_delta t d !c target) mod k + k) mod k in
      node := !node + ((next - !c) * t.strides.(d));
      c := next;
      f !node
    done
  done

(* [iter_route]'s step from [node]: the first dimension in which [node]
   and [dst] differ moves one coordinate.  Plain int arguments: the DES
   walks every message hop by hop through here. *)
let rec next_hop_from t ~node ~dst d =
  let c = coord t node d and target = coord t dst d in
  if c = target then next_hop_from t ~node ~dst (d + 1)
  else begin
    let k = t.dims.(d) in
    let next = ((c + axis_delta t d c target) mod k + k) mod k in
    node + ((next - c) * t.strides.(d))
  end

let next_hop t ~node ~dst =
  check_node t node "next_hop";
  check_node t dst "next_hop";
  if node = dst then invalid_arg "Topology.next_hop: node is the destination";
  next_hop_from t ~node ~dst 0

let route t ~src ~dst =
  let acc = ref [] in
  iter_route t ~src ~dst (fun hop -> acc := hop :: !acc);
  List.rev !acc

let neighbours t n =
  check_node t n "neighbours";
  let cs = coords_nd t n in
  let acc = ref [] in
  for d = Array.length t.dims - 1 downto 0 do
    let k = t.dims.(d) in
    let candidates =
      match t.kind with
      | Torus -> if k = 1 then [] else [ (cs.(d) + 1) mod k; (cs.(d) - 1 + k) mod k ]
      | Mesh ->
        List.filter (fun c -> c >= 0 && c < k) [ cs.(d) + 1; cs.(d) - 1 ]
    in
    List.iter
      (fun c ->
        if c <> cs.(d) then begin
          let moved = Array.copy cs in
          moved.(d) <- c;
          acc := of_coords_nd t moved :: !acc
        end)
      (List.sort_uniq compare candidates)
  done;
  List.sort_uniq compare !acc

let distance_counts t src =
  check_node t src "distance_counts";
  let counts = Array.make (max_distance t + 1) 0 in
  for n = 0 to t.num_nodes - 1 do
    let d = distance t src n in
    counts.(d) <- counts.(d) + 1
  done;
  counts

let nodes_at_distance t src h =
  List.filter (fun n -> distance t src n = h) (List.init t.num_nodes Fun.id)

let is_vertex_transitive t = t.kind = Torus || t.num_nodes = 1

let translate t n ~by =
  if t.kind <> Torus then
    invalid_arg "Topology.translate: torus only";
  check_node t n "translate";
  check_node t by "translate";
  let cs = coords_nd t n and bs = coords_nd t by in
  let moved =
    Array.init (Array.length cs) (fun d -> (cs.(d) + bs.(d)) mod t.dims.(d))
  in
  of_coords_nd t moved

let subtract t n ~by =
  if t.kind <> Torus then invalid_arg "Topology.subtract: torus only";
  check_node t n "subtract";
  check_node t by "subtract";
  let cs = coords_nd t n and bs = coords_nd t by in
  let moved =
    Array.init (Array.length cs) (fun d ->
        (cs.(d) - bs.(d) + t.dims.(d)) mod t.dims.(d))
  in
  of_coords_nd t moved

let subtract_table t =
  if not (is_vertex_transitive t) then
    invalid_arg "Topology.subtract_table: vertex-transitive networks only";
  let nd = Array.length t.dims in
  let cs = Array.init t.num_nodes (fun n -> Array.init nd (coord t n)) in
  Array.init t.num_nodes (fun n ->
      Array.init t.num_nodes (fun by ->
          let acc = ref 0 in
          for d = 0 to nd - 1 do
            let x = cs.(n).(d) - cs.(by).(d) in
            acc := !acc + ((if x < 0 then x + t.dims.(d) else x) * t.strides.(d))
          done;
          !acc))

let pp ppf t =
  Fmt.pf ppf "%s %a"
    (match t.kind with Torus -> "torus" | Mesh -> "mesh")
    Fmt.(array ~sep:(any "x") int)
    t.dims
