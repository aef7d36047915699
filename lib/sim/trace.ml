open Lattol_core

type step = {
  compute : float;
  target : Lattol_topology.Topology.node;
}

type t = { steps : step array array array }

let make ~steps =
  if Array.length steps = 0 then invalid_arg "Trace.make: no nodes";
  Array.iteri
    (fun node threads ->
      if Array.length threads = 0 then
        Format.kasprintf invalid_arg "Trace.make: node %d has no threads" node;
      Array.iteri
        (fun thread script ->
          if Array.length script = 0 then
            Format.kasprintf invalid_arg "Trace.make: empty script %d.%d" node
              thread;
          Array.iter
            (fun s ->
              if s.compute < 0. || not (Float.is_finite s.compute) then
                Format.kasprintf invalid_arg
                  "Trace.make: invalid compute time %g" s.compute)
            script)
        threads)
    steps;
  { steps }

let num_nodes t = Array.length t.steps

let threads_at t ~node = Array.length t.steps.(node)

let script t ~node ~thread = t.steps.(node).(thread)

let total_steps t =
  Array.fold_left
    (fun acc threads ->
      Array.fold_left (fun acc s -> acc + Array.length s) acc threads)
    0 t.steps

(* Deal each node's iteration list round-robin over its threads, turning
   every (iteration, per-iteration accesses) into steps. *)
let build_scripts ~num_nodes ~n_t per_node_accesses =
  let steps =
    Array.init num_nodes (fun node ->
        let accesses = per_node_accesses.(node) in
        let buckets = Array.make n_t [] in
        List.iteri
          (fun i access -> buckets.(i mod n_t) <- access :: buckets.(i mod n_t))
          accesses;
        Array.init n_t (fun th ->
            match buckets.(th) with
            | [] ->
              (* Idle thread: a local self-access placeholder keeps the
                 thread structure uniform. *)
              [| { compute = 1.; target = node } |]
            | l -> Array.concat (List.rev_map Array.of_list l)))
  in
  make ~steps

let of_loop ~base loop =
  let base = Params.validate_exn base in
  let n_t = base.Params.n_t in
  if n_t < 1 then invalid_arg "Trace.of_loop: n_t >= 1";
  let p = Params.num_processors base in
  (match Workload.validate ~num_processors:p loop with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Trace.of_loop: " ^ msg));
  let per_node = Array.make p [] in
  (* Iterations in reverse so the final lists are in program order. *)
  for e = loop.Workload.elements - 1 downto 0 do
    let home = Workload.owner loop ~num_processors:p ~element:e in
    let accesses =
      List.map
        (fun offset ->
          {
            compute = loop.Workload.work_per_access;
            target = Workload.owner loop ~num_processors:p ~element:(e + offset);
          })
        loop.Workload.stencil
    in
    per_node.(home) <- accesses :: per_node.(home)
  done;
  build_scripts ~num_nodes:p ~n_t per_node

let of_grid ~base grid =
  let base = Params.validate_exn base in
  let n_t = base.Params.n_t in
  if n_t < 1 then invalid_arg "Trace.of_grid: n_t >= 1";
  (match Workload.Grid.validate ~base grid with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Trace.of_grid: " ^ msg));
  let p = Params.num_processors base in
  let per_node = Array.make p [] in
  for row = grid.Workload.Grid.rows - 1 downto 0 do
    for col = grid.Workload.Grid.cols - 1 downto 0 do
      let home = Workload.Grid.owner grid ~base ~row ~col in
      let accesses =
        List.map
          (fun (dr, dc) ->
            {
              compute = grid.Workload.Grid.work_per_access;
              target = Workload.Grid.owner grid ~base ~row:(row + dr) ~col:(col + dc);
            })
          grid.Workload.Grid.stencil
      in
      per_node.(home) <- accesses :: per_node.(home)
    done
  done;
  build_scripts ~num_nodes:p ~n_t per_node

let access_fractions t ~node =
  let counts = Hashtbl.create 16 in
  let total = ref 0 in
  Array.iter
    (fun script ->
      Array.iter
        (fun s ->
          incr total;
          Hashtbl.replace counts s.target
            (1 + Option.value (Hashtbl.find_opt counts s.target) ~default:0))
        script)
    t.steps.(node);
  let max_node =
    Hashtbl.fold (fun target _ acc -> max acc target) counts (num_nodes t - 1)
  in
  Array.init (max_node + 1) (fun target ->
      float_of_int (Option.value (Hashtbl.find_opt counts target) ~default:0)
      /. float_of_int !total)
