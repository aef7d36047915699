(* Tests for the interconnection-network substrate: torus/mesh distance
   structure, dimension-order routing, and the remote-access patterns. *)

open Lattol_topology

let torus k = Topology.create Topology.Torus ~k

let mesh k = Topology.create Topology.Mesh ~k

(* ------------------------------------------------------------------ *)
(* Topology *)

let test_coords_roundtrip () =
  let t = torus 5 in
  for n = 0 to Topology.num_nodes t - 1 do
    Alcotest.(check int) "roundtrip" n (Topology.of_coords t (Topology.coords t n))
  done

let test_torus_distances () =
  let t = torus 4 in
  let d a b = Topology.distance t a b in
  Alcotest.(check int) "self" 0 (d 0 0);
  Alcotest.(check int) "adjacent" 1 (d 0 1);
  Alcotest.(check int) "wraparound x" 1 (d 0 3);
  Alcotest.(check int) "two hops" 2 (d 0 2);
  (* node 10 = (2,2): opposite corner of 0 on a 4-torus *)
  Alcotest.(check int) "diameter pair" 4 (d 0 10)

let test_mesh_distances () =
  let t = mesh 4 in
  let d a b = Topology.distance t a b in
  Alcotest.(check int) "no wraparound" 3 (d 0 3);
  Alcotest.(check int) "manhattan" 6 (d 0 15)

let test_max_distance () =
  Alcotest.(check int) "torus 4" 4 (Topology.max_distance (torus 4));
  Alcotest.(check int) "torus 5" 4 (Topology.max_distance (torus 5));
  Alcotest.(check int) "mesh 4" 6 (Topology.max_distance (mesh 4));
  Alcotest.(check int) "torus 1" 0 (Topology.max_distance (torus 1))

let test_distance_counts_torus_4 () =
  (* 4x4 torus: 1 self, 4 at h=1, 6 at h=2, 4 at h=3, 1 at h=4. *)
  let counts = Topology.distance_counts (torus 4) 5 in
  Alcotest.(check (array int)) "histogram" [| 1; 4; 6; 4; 1 |] counts

let test_distance_counts_node_independent () =
  let t = torus 5 in
  let reference = Topology.distance_counts t 0 in
  for n = 1 to Topology.num_nodes t - 1 do
    Alcotest.(check (array int)) "same histogram" reference
      (Topology.distance_counts t n)
  done

let test_route_properties () =
  let t = torus 4 in
  for src = 0 to 15 do
    for dst = 0 to 15 do
      let route = Topology.route t ~src ~dst in
      Alcotest.(check int)
        (Printf.sprintf "route length %d->%d" src dst)
        (Topology.distance t src dst)
        (List.length route);
      (* consecutive nodes on the route are neighbours *)
      let rec check_hops prev = function
        | [] -> ()
        | hop :: rest ->
          if Topology.distance t prev hop <> 1 then
            Alcotest.failf "non-adjacent hop %d->%d on route %d->%d" prev hop
              src dst;
          check_hops hop rest
      in
      check_hops src route;
      (match List.rev route with
      | last :: _ -> Alcotest.(check int) "ends at dst" dst last
      | [] -> Alcotest.(check int) "empty iff self" src dst)
    done
  done

let test_route_translation_invariance () =
  (* On the torus, routes are translation-invariant as node sequences. *)
  let t = torus 4 in
  let shift by n =
    let x, y = Topology.coords t n and bx, by = Topology.coords t by in
    Topology.of_coords t ((x + bx) mod 4, (y + by) mod 4)
  in
  let route_a = Topology.route t ~src:0 ~dst:9 in
  let route_b = Topology.route t ~src:(shift 6 0) ~dst:(shift 6 9) in
  Alcotest.(check (list int)) "translated route" (List.map (shift 6) route_a)
    route_b

(* The list-building dimension-order router that [Topology.route] used
   before it was rebuilt on [iter_route]: the reference hop lists. *)
let reference_route t ~src ~dst =
  let dims = Array.of_list (Topology.dims t) in
  let target = Topology.coords_nd t dst in
  let delta d a b =
    match Topology.kind t with
    | Topology.Mesh -> compare b a
    | Topology.Torus ->
      let k = dims.(d) in
      let fwd = (b - a + k) mod k and bwd = (a - b + k) mod k in
      if fwd = 0 then 0 else if fwd <= bwd then 1 else -1
  in
  let rec go current acc =
    let rec find_dim d =
      if d = Array.length dims then None
      else if current.(d) <> target.(d) then Some d
      else find_dim (d + 1)
    in
    match find_dim 0 with
    | None -> List.rev acc
    | Some d ->
      let k = dims.(d) in
      current.(d) <- ((current.(d) + delta d current.(d) target.(d)) mod k + k) mod k;
      go current (Topology.of_coords_nd t current :: acc)
  in
  go (Topology.coords_nd t src) []

let shapes =
  List.concat_map
    (fun dims ->
      [ Topology.create_nd Topology.Torus ~dims; Topology.create_nd Topology.Mesh ~dims ])
    [ [ 4; 4 ]; [ 5 ]; [ 6; 6 ]; [ 3; 3; 2 ]; [ 2; 2; 2 ]; [ 4; 1; 3 ] ]

let test_route_matches_reference () =
  List.iter
    (fun t ->
      let n = Topology.num_nodes t in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let expected = reference_route t ~src ~dst in
          let name = Format.asprintf "%a %d->%d" Topology.pp t src dst in
          Alcotest.(check (list int)) name expected (Topology.route t ~src ~dst);
          let walked = ref [] in
          Topology.iter_route t ~src ~dst (fun hop -> walked := hop :: !walked);
          Alcotest.(check (list int)) ("iter " ^ name) expected (List.rev !walked);
          let rec hops node =
            if node = dst then []
            else
              let next = Topology.next_hop t ~node ~dst in
              next :: hops next
          in
          Alcotest.(check (list int)) ("next_hop " ^ name) expected (hops src)
        done
      done)
    shapes

let test_routes_commute_with_translation () =
  (* Node [x] is on route [c -> d] exactly when [x - c] is on route
     [0 -> d - c]: the fact the symmetric solver's measures rely on. *)
  List.iter
    (fun t ->
      if Topology.kind t = Topology.Torus then begin
        let n = Topology.num_nodes t in
        let sub = Topology.subtract_table t in
        for a = 0 to n - 1 do
          for by = 0 to n - 1 do
            Alcotest.(check int) "table = subtract" (Topology.subtract t a ~by)
              sub.(a).(by)
          done
        done;
        for c = 0 to n - 1 do
          for d = 0 to n - 1 do
            let route = Topology.route t ~src:c ~dst:d in
            let from_zero = Topology.route t ~src:0 ~dst:sub.(d).(c) in
            Alcotest.(check (list int))
              (Format.asprintf "%a %d->%d" Topology.pp t c d)
              from_zero
              (List.map (fun x -> sub.(x).(c)) route)
          done
        done
      end)
    shapes

let test_neighbours () =
  let t = torus 4 in
  Alcotest.(check int) "torus degree" 4 (List.length (Topology.neighbours t 0));
  let m = mesh 4 in
  Alcotest.(check int) "mesh corner degree" 2 (List.length (Topology.neighbours m 0));
  Alcotest.(check int) "mesh edge degree" 3 (List.length (Topology.neighbours m 1));
  Alcotest.(check int) "mesh inner degree" 4 (List.length (Topology.neighbours m 5));
  let t2 = torus 2 in
  Alcotest.(check int) "2-torus distinct neighbours" 2
    (List.length (Topology.neighbours t2 0))

let test_nodes_at_distance () =
  let t = torus 4 in
  Alcotest.(check int) "4 neighbours" 4
    (List.length (Topology.nodes_at_distance t 0 1));
  Alcotest.(check (list int)) "diameter node" [ 10 ]
    (Topology.nodes_at_distance t 0 4)

let test_invalid_args () =
  Alcotest.check_raises "k = 0" (Invalid_argument "Topology.create: k >= 1")
    (fun () -> ignore (torus 0));
  let t = torus 2 in
  Alcotest.check_raises "bad node"
    (Invalid_argument "Topology.coords: node out of range") (fun () ->
      ignore (Topology.coords t 4))

(* ------------------------------------------------------------------ *)
(* n-dimensional networks *)

let test_nd_ring () =
  let r = Topology.create_nd Topology.Torus ~dims:[ 8 ] in
  Alcotest.(check int) "nodes" 8 (Topology.num_nodes r);
  Alcotest.(check int) "diameter" 4 (Topology.max_distance r);
  Alcotest.(check int) "wrap distance" 1 (Topology.distance r 0 7);
  Alcotest.(check int) "ring degree" 2 (List.length (Topology.neighbours r 3))

let test_nd_cube () =
  let c = Topology.create_nd Topology.Torus ~dims:[ 3; 3; 3 ] in
  Alcotest.(check int) "nodes" 27 (Topology.num_nodes c);
  Alcotest.(check int) "degree" 6 (List.length (Topology.neighbours c 13));
  Alcotest.(check int) "diameter" 3 (Topology.max_distance c);
  (* coords roundtrip in 3D *)
  for n = 0 to 26 do
    Alcotest.(check int) "roundtrip" n
      (Topology.of_coords_nd c (Topology.coords_nd c n))
  done

let test_nd_asymmetric_dims () =
  let t = Topology.create_nd Topology.Mesh ~dims:[ 2; 5 ] in
  Alcotest.(check int) "nodes" 10 (Topology.num_nodes t);
  Alcotest.(check int) "diameter" 5 (Topology.max_distance t);
  Alcotest.(check int) "corner to corner" 5 (Topology.distance t 0 9)

let test_nd_route_length () =
  let c = Topology.create_nd Topology.Torus ~dims:[ 4; 3; 2 ] in
  for src = 0 to Topology.num_nodes c - 1 do
    for dst = 0 to Topology.num_nodes c - 1 do
      Alcotest.(check int) "route = distance"
        (Topology.distance c src dst)
        (List.length (Topology.route c ~src ~dst))
    done
  done

let test_translate_subtract () =
  let t = torus 4 in
  for n = 0 to 15 do
    for by = 0 to 15 do
      let moved = Topology.translate t n ~by in
      Alcotest.(check int) "subtract inverts translate" n
        (Topology.subtract t moved ~by);
      (* translation preserves distances *)
      Alcotest.(check int) "isometry"
        (Topology.distance t 0 n)
        (Topology.distance t by moved)
    done
  done;
  Alcotest.(check bool) "mesh translate rejected" true
    (try
       ignore (Topology.translate (mesh 3) 0 ~by:1);
       false
     with Invalid_argument _ -> true)

let test_hypercube () =
  (* The binary 4-cube is the side-2 torus, as Params builds it at k = 2. *)
  let h = Topology.create_nd Topology.Torus ~dims:[ 2; 2; 2; 2 ] in
  Alcotest.(check int) "nodes" 16 (Topology.num_nodes h);
  Alcotest.(check int) "degree" 4 (List.length (Topology.neighbours h 0));
  Alcotest.(check int) "diameter" 4 (Topology.max_distance h);
  (* Hamming distance: node indices differ in bits *)
  Alcotest.(check int) "hamming 0-15" 4 (Topology.distance h 0 15);
  Alcotest.(check int) "hamming 0-5" 2 (Topology.distance h 0 5)

let test_coords_2d_only () =
  let r = Topology.create_nd Topology.Torus ~dims:[ 8 ] in
  Alcotest.(check bool) "coords on ring rejected" true
    (try
       ignore (Topology.coords r 0);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Access *)

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

let test_access_rows_normalized () =
  let t = torus 4 in
  List.iter
    (fun pattern ->
      let a = Access.create t pattern ~p_remote:0.37 in
      let m = Access.matrix a in
      Array.iteri
        (fun src row ->
          let sum = Array.fold_left ( +. ) 0. row in
          close "row sums to 1" 1. sum;
          close "local prob" 0.63 row.(src))
        m)
    [ Access.Geometric 0.5; Access.Uniform ]

let test_access_uniform_shares () =
  let t = torus 4 in
  let a = Access.create t Access.Uniform ~p_remote:0.3 in
  close "remote share" (0.3 /. 15.) (Access.prob a ~src:0 ~dst:7)

let test_access_geometric_locality () =
  let t = torus 4 in
  let a = Access.create t (Access.Geometric 0.5) ~p_remote:0.2 in
  (* Per-node probability at h=2 vs h=1: (q^2/a)/6 over (q/a)/4. *)
  let p1 = Access.prob a ~src:0 ~dst:1 in
  let p2 = Access.prob a ~src:0 ~dst:2 in
  close "ratio" (0.5 *. 4. /. 6.) (p2 /. p1)

let test_paper_d_avg () =
  (* The anchor that pins the paper's Table 1: p_sw = 0.5 on the 4x4 torus
     gives d_avg = 1.7333. *)
  let t = torus 4 in
  let a = Access.create t (Access.Geometric 0.5) ~p_remote:0.2 in
  close ~eps:1e-4 "d_avg" 1.7333 (Access.average_distance a ~src:0)

let test_uniform_d_avg_growth () =
  (* Paper Section 7: uniform d_avg grows from 1.33 (k=2) to 5.05 (k=10). *)
  let d k =
    let a = Access.create (torus k) Access.Uniform ~p_remote:0.5 in
    Access.average_distance a ~src:0
  in
  close ~eps:1e-2 "k=2" 1.333 (d 2);
  close ~eps:1e-2 "k=10" 5.0505 (d 10)

let test_geometric_d_avg_asymptote () =
  (* Geometric d_avg approaches 1/(1-p_sw) = 2 as the torus grows. *)
  let d k =
    let a = Access.create (torus k) (Access.Geometric 0.5) ~p_remote:0.5 in
    Access.average_distance a ~src:0
  in
  Alcotest.(check bool) "approaches 2 from below" true (d 10 < 2. && d 10 > 1.9)

let test_access_zero_remote () =
  let t = torus 4 in
  let a = Access.create t (Access.Geometric 0.5) ~p_remote:0. in
  close "all local" 1. (Access.prob a ~src:3 ~dst:3);
  Alcotest.(check bool) "d_avg undefined" true
    (Float.is_nan (Access.average_distance a ~src:3))

let test_access_validation () =
  let t = torus 4 in
  let invalid f =
    Alcotest.(check bool) "raises" true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  invalid (fun () -> Access.create t (Access.Geometric 0.5) ~p_remote:1.5);
  invalid (fun () -> Access.create t (Access.Geometric 1.) ~p_remote:0.5);
  invalid (fun () -> Access.create t (Access.Geometric 0.) ~p_remote:0.5);
  invalid (fun () -> Access.create (torus 1) Access.Uniform ~p_remote:0.5)

let test_distance_pmf () =
  let t = torus 4 in
  let a = Access.create t (Access.Geometric 0.5) ~p_remote:0.4 in
  let pmf = Access.distance_pmf a ~src:0 in
  close "local mass" 0.6 pmf.(0);
  close "total mass" 1. (Array.fold_left ( +. ) 0. pmf)

(* ------------------------------------------------------------------ *)
(* Explicit matrices *)

let test_explicit_roundtrip () =
  let t = torus 3 in
  (* Build from a geometric pattern, feed back as explicit: identical. *)
  let geo = Access.create t (Access.Geometric 0.4) ~p_remote:0.3 in
  let exp_a = Access.create t (Access.Explicit (Access.matrix geo)) ~p_remote:0. in
  for src = 0 to 8 do
    for dst = 0 to 8 do
      close "probability preserved" (Access.prob geo ~src ~dst)
        (Access.prob exp_a ~src ~dst)
    done
  done;
  close ~eps:1e-9 "derived p_remote" 0.3 (Access.p_remote exp_a);
  Alcotest.(check bool) "not translation invariant flag" false
    (Access.is_translation_invariant exp_a);
  Alcotest.(check bool) "built-in invariant on torus" true
    (Access.is_translation_invariant geo)

let test_explicit_validation () =
  let t = torus 2 in
  let invalid m =
    Alcotest.(check bool) "rejected" true
      (try
         ignore (Access.create t (Access.Explicit m) ~p_remote:0.);
         false
       with Invalid_argument _ -> true)
  in
  invalid [| [| 1. |] |];
  invalid (Array.make_matrix 4 3 0.25);
  invalid [| [| 0.5; 0.5; 0.; 0. |]; [| 0.5; 0.6; 0.; 0. |];
             [| 1.; 0.; 0.; 0. |]; [| 1.; 0.; 0.; 0. |] |];
  invalid [| [| 1.5; -0.5; 0.; 0. |]; [| 0.; 1.; 0.; 0. |];
             [| 0.; 0.; 1.; 0. |]; [| 0.; 0.; 0.; 1. |] |]

let test_explicit_remote_fraction () =
  let t = torus 2 in
  let m =
    [| [| 0.4; 0.6; 0.; 0. |]; [| 0.; 1.; 0.; 0. |];
       [| 0.; 0.; 1.; 0. |]; [| 0.; 0.; 0.; 1. |] |]
  in
  let a = Access.create t (Access.Explicit m) ~p_remote:0.9 (* ignored *) in
  close "per-source remote" 0.6 (Access.remote_fraction a ~src:0);
  close "other sources local" 0. (Access.remote_fraction a ~src:2);
  close "mean" 0.15 (Access.p_remote a)

(* ------------------------------------------------------------------ *)
(* Properties *)

let arb_k = QCheck.int_range 2 7

let prop_distance_symmetric =
  QCheck.Test.make ~name:"distance is symmetric" ~count:100
    QCheck.(triple arb_k (int_range 0 48) (int_range 0 48))
    (fun (k, a, b) ->
      let t = torus k in
      let n = Topology.num_nodes t in
      let a = a mod n and b = b mod n in
      Topology.distance t a b = Topology.distance t b a)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"distance triangle inequality" ~count:200
    QCheck.(quad arb_k (int_range 0 48) (int_range 0 48) (int_range 0 48))
    (fun (k, a, b, c) ->
      let t = torus k in
      let n = Topology.num_nodes t in
      let a = a mod n and b = b mod n and c = c mod n in
      Topology.distance t a c
      <= Topology.distance t a b + Topology.distance t b c)

let prop_route_length_is_distance =
  QCheck.Test.make ~name:"route length equals distance (mesh too)" ~count:200
    QCheck.(quad (int_range 2 6) bool (int_range 0 35) (int_range 0 35))
    (fun (k, wrap, a, b) ->
      let t = if wrap then torus k else mesh k in
      let n = Topology.num_nodes t in
      let src = a mod n and dst = b mod n in
      List.length (Topology.route t ~src ~dst) = Topology.distance t src dst)

let prop_access_rows_sum_to_one =
  QCheck.Test.make ~name:"access matrix rows sum to 1" ~count:100
    QCheck.(quad arb_k (float_range 0.05 0.95) (float_range 0.05 0.95) bool)
    (fun (k, p_sw, p_remote, geometric) ->
      let t = torus k in
      let pattern = if geometric then Access.Geometric p_sw else Access.Uniform in
      let a = Access.create t pattern ~p_remote in
      let ok = ref true in
      Array.iter
        (fun row ->
          let s = Array.fold_left ( +. ) 0. row in
          if abs_float (s -. 1.) > 1e-9 then ok := false)
        (Access.matrix a);
      !ok)

let prop_geometric_monotone_in_distance =
  QCheck.Test.make
    ~name:"geometric distance pmf decays by exactly p_sw per hop" ~count:100
    QCheck.(pair (int_range 3 7) (float_range 0.1 0.9))
    (fun (k, p_sw) ->
      (* The distribution is geometric over distances: the total mass at
         distance h+1 is p_sw times the mass at h (when both distances
         exist); per-node probabilities need not be monotone. *)
      let t = torus k in
      let a = Access.create t (Access.Geometric p_sw) ~p_remote:0.5 in
      let counts = Topology.distance_counts t 0 in
      let pmf = Access.distance_pmf a ~src:0 in
      let ok = ref true in
      for h = 1 to Array.length counts - 2 do
        if counts.(h) > 0 && counts.(h + 1) > 0 then begin
          let ratio = pmf.(h + 1) /. pmf.(h) in
          if abs_float (ratio -. p_sw) > 1e-9 then ok := false
        end
      done;
      !ok)

(* Every entry of a built-in pattern's matrix, computed pair by pair
   from its definition: the matrix must match it bit for bit, however
   [Access.create] shares work between rows. *)
let reference_prob t pattern ~p_remote ~src ~dst =
  if src = dst then 1. -. p_remote
  else if p_remote <= 0. then 0.
  else
    match pattern with
    | Access.Uniform -> p_remote /. float_of_int (Topology.num_nodes t - 1)
    | Access.Geometric p_sw ->
      let counts = Topology.distance_counts t src in
      let a = ref 0. in
      for h = 1 to Array.length counts - 1 do
        if counts.(h) > 0 then a := !a +. (p_sw ** float_of_int h)
      done;
      let h = Topology.distance t src dst in
      p_remote *. ((p_sw ** float_of_int h) /. !a) /. float_of_int counts.(h)
    | Access.Explicit _ -> invalid_arg "reference_prob: built-in patterns only"

let prop_access_matches_reference =
  let gen =
    let open QCheck.Gen in
    let* nd = int_range 1 3 in
    let* dims = list_repeat nd (int_range 1 (if nd = 3 then 5 else 8)) in
    let* kind = oneofl [ Topology.Torus; Topology.Torus; Topology.Mesh ] in
    let t = Topology.create_nd kind ~dims in
    let* p_remote =
      if Topology.num_nodes t = 1 then return 0.
      else oneof [ return 0.; return 1.; float_range 0. 1. ]
    in
    let* pattern =
      oneof
        [
          return Access.Uniform;
          map (fun s -> Access.Geometric s) (float_range 0.05 0.95);
        ]
    in
    return (t, pattern, p_remote)
  in
  let print (t, pattern, p_remote) =
    Format.asprintf "%a %s p_remote=%h" Topology.pp t
      (match pattern with
      | Access.Geometric s -> Printf.sprintf "geometric %h" s
      | Access.Uniform -> "uniform"
      | Access.Explicit _ -> "explicit")
      p_remote
  in
  QCheck.Test.make ~name:"access matrix = per-pair reference, bit for bit"
    ~count:300 (QCheck.make ~print gen) (fun (t, pattern, p_remote) ->
      let a = Access.create t pattern ~p_remote in
      let n = Topology.num_nodes t in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let got = Access.prob a ~src ~dst
          and want = reference_prob t pattern ~p_remote ~src ~dst in
          if Int64.bits_of_float got <> Int64.bits_of_float want then
            QCheck.Test.fail_reportf "entry (%d, %d): %h, reference %h" src
              dst got want
        done
      done;
      true)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lattol_topology"
    [
      ( "topology",
        [
          Alcotest.test_case "coords roundtrip" `Quick test_coords_roundtrip;
          Alcotest.test_case "torus distances" `Quick test_torus_distances;
          Alcotest.test_case "mesh distances" `Quick test_mesh_distances;
          Alcotest.test_case "max distance" `Quick test_max_distance;
          Alcotest.test_case "distance counts 4x4" `Quick test_distance_counts_torus_4;
          Alcotest.test_case "vertex transitivity" `Quick
            test_distance_counts_node_independent;
          Alcotest.test_case "route properties" `Quick test_route_properties;
          Alcotest.test_case "route translation invariance" `Quick
            test_route_translation_invariance;
          Alcotest.test_case "route = list router" `Quick
            test_route_matches_reference;
          Alcotest.test_case "routes commute with translation" `Quick
            test_routes_commute_with_translation;
          Alcotest.test_case "neighbours" `Quick test_neighbours;
          Alcotest.test_case "nodes at distance" `Quick test_nodes_at_distance;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
        ] );
      ( "n-dimensional",
        [
          Alcotest.test_case "ring" `Quick test_nd_ring;
          Alcotest.test_case "cube" `Quick test_nd_cube;
          Alcotest.test_case "asymmetric dims" `Quick test_nd_asymmetric_dims;
          Alcotest.test_case "route lengths" `Quick test_nd_route_length;
          Alcotest.test_case "translate/subtract" `Quick test_translate_subtract;
          Alcotest.test_case "coords 2D only" `Quick test_coords_2d_only;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
        ] );
      ( "access",
        [
          Alcotest.test_case "rows normalized" `Quick test_access_rows_normalized;
          Alcotest.test_case "uniform shares" `Quick test_access_uniform_shares;
          Alcotest.test_case "geometric locality" `Quick test_access_geometric_locality;
          Alcotest.test_case "paper d_avg = 1.733" `Quick test_paper_d_avg;
          Alcotest.test_case "uniform d_avg growth" `Quick test_uniform_d_avg_growth;
          Alcotest.test_case "geometric d_avg asymptote" `Quick
            test_geometric_d_avg_asymptote;
          Alcotest.test_case "zero remote" `Quick test_access_zero_remote;
          Alcotest.test_case "validation" `Quick test_access_validation;
          Alcotest.test_case "distance pmf" `Quick test_distance_pmf;
        ] );
      ( "explicit",
        [
          Alcotest.test_case "roundtrip" `Quick test_explicit_roundtrip;
          Alcotest.test_case "validation" `Quick test_explicit_validation;
          Alcotest.test_case "remote fraction" `Quick test_explicit_remote_fraction;
        ] );
      ( "properties",
        qcheck
          [
            prop_distance_symmetric;
            prop_triangle_inequality;
            prop_route_length_is_distance;
            prop_access_rows_sum_to_one;
            prop_geometric_monotone_in_distance;
            prop_access_matches_reference;
          ] );
    ]
