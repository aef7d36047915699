open Lattol_topology

type kernel =
  | Nearest_neighbour
  | Transpose
  | Reduction
  | Butterfly of int
  | Ring_shift
  | All_to_all

let kernel_to_string = function
  | Nearest_neighbour -> "nearest-neighbour"
  | Transpose -> "transpose"
  | Reduction -> "reduction"
  | Butterfly s -> Printf.sprintf "butterfly(stage %d)" s
  | Ring_shift -> "ring-shift"
  | All_to_all -> "all-to-all"

(* The remote targets (with weights) of one node under a kernel. *)
let remote_targets kernel topo src =
  let p = Topology.num_nodes topo in
  match kernel with
  | Nearest_neighbour ->
    let ns = Topology.neighbours topo src in
    if ns = [] then invalid_arg "Kernels: no neighbours on this topology";
    List.map (fun n -> (n, 1.)) ns
  | Transpose ->
    if Topology.num_dimensions topo <> 2 then
      invalid_arg "Kernels: transpose needs a 2-dimensional machine";
    let x, y = Topology.coords topo src in
    if x = y then [] (* diagonal nodes stay local *)
    else begin
      let partner = Topology.of_coords topo (y, x) in
      [ (partner, 1.) ]
    end
  | Reduction -> if src = 0 then [] else [ (src / 2, 1.) ]
  | Ring_shift -> [ ((src + 1) mod p, 1.) ]
  | Butterfly stage ->
    if stage < 0 then invalid_arg "Kernels: butterfly stage >= 0";
    let partner = src lxor (1 lsl stage) in
    if partner >= p then [] else [ (partner, 1.) ]
  | All_to_all ->
    if p < 2 then invalid_arg "Kernels: all-to-all needs >= 2 nodes";
    List.filter_map
      (fun dst -> if dst = src then None else Some (dst, 1.))
      (List.init p Fun.id)

let matrix kernel topo ~compute =
  if compute < 0. || compute > 1. then
    invalid_arg "Kernels.matrix: compute fraction in [0, 1]";
  let p = Topology.num_nodes topo in
  Array.init p (fun src ->
      let row = Array.make p 0. in
      let targets = remote_targets kernel topo src in
      let total_weight = List.fold_left (fun acc (_, w) -> acc +. w) 0. targets in
      if targets = [] || Float.equal total_weight 0. then begin
        (* This node does not communicate in this kernel: purely local. *)
        row.(src) <- 1.;
        row
      end
      else begin
        row.(src) <- compute;
        List.iter
          (fun (dst, w) ->
            row.(dst) <- row.(dst) +. ((1. -. compute) *. w /. total_weight))
          targets;
        row
      end)

let to_params ~base kernel ~compute ~runlength =
  let topo = Params.make_topology base in
  Params.validate_exn
    {
      base with
      runlength;
      pattern = Access.Explicit (matrix kernel topo ~compute);
    }

let all ~num_nodes =
  let rec stages s acc =
    if 1 lsl s >= num_nodes then List.rev acc
    else stages (s + 1) (Butterfly s :: acc)
  in
  [ Nearest_neighbour; Transpose; Reduction; Ring_shift; All_to_all ]
  @ stages 0 []

let compare_kernels ~base ~compute ~runlength kernels =
  List.map
    (fun kernel ->
      let p = to_params ~base kernel ~compute ~runlength in
      let report = Tolerance.network p in
      (kernel, report.Tolerance.real, report.Tolerance.tol))
    kernels
