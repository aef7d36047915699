(* The lint's whole-program half, tested as a library: the call-graph
   summarizer must be a pure function of the source text, and the
   reachability closure that defines the parallel/hot regions must be
   deterministic and monotone — an over-approximating analysis may only
   grow when the graph grows.  The rule-level behaviour (what fires
   where) lives in the cram suite over test/lint/fixtures. *)

module Callgraph = Lattol_lint.Callgraph
module Mutstate = Lattol_lint.Mutstate
module Reach = Lattol_lint.Reach
module Sset = Set.Make (String)

let parse src = Parse.implementation (Lexing.from_string src)

let summarize ~file src = Callgraph.summarize ~file (parse src)

(* ------------------------------------------------------------------ *)
(* Summarizer determinism *)

let tally_src =
  "let total = ref 0\n\
   let stream = Prng.create 42\n\
   let hits = Atomic.make 0\n"

let worker_src =
  "let bump x = Tally.total := !Tally.total + x\n\
   let work xs = Pool.map ~jobs:4 (fun x -> bump x; x) xs\n"

(* The checkpointed fan-out runs its task on pool domains too. *)
let journal_worker_src =
  "let bump x = Tally.total := !Tally.total + x\n\
   let work j n = Journal.map j ~id:string_of_int (fun _ i -> bump i; i) n\n"

let hot_src =
  "let scale k x = k *. x\n\
   let[@lattol.hot] solve n =\n\
  \  let acc = ref 0. in\n\
  \  for i = 1 to n do\n\
  \    let f = scale 2. in\n\
  \    acc := !acc +. f (float_of_int i)\n\
  \  done;\n\
  \  !acc\n"

let test_summary_deterministic () =
  List.iter
    (fun (file, src) ->
      let a = summarize ~file src and b = summarize ~file src in
      Alcotest.(check bool)
        (file ^ " summarized twice is identical")
        true (a = b))
    [ ("tally.ml", tally_src); ("worker.ml", worker_src);
      ("hot.ml", hot_src) ]

let test_summary_shape () =
  List.iter
    (fun (spawn, src) ->
      let s = summarize ~file:"worker.ml" src in
      let ids = List.map (fun (f : Callgraph.fn) -> f.id) s.Callgraph.fns in
      Alcotest.(check bool) "bump is a node" true (List.mem "Worker.bump" ids);
      let par =
        List.filter (fun (f : Callgraph.fn) -> f.par_root) s.Callgraph.fns
      in
      Alcotest.(check int)
        (Printf.sprintf "one parallel root (the %s closure)" spawn)
        1 (List.length par);
      let root = List.hd par in
      Alcotest.(check bool) "the root calls bump" true
        (List.exists (fun (c, _) -> c = "bump") root.Callgraph.calls))
    [ ("Pool.map", worker_src); ("Journal.map", journal_worker_src) ]

let test_mutstate_inventory () =
  let gs = Mutstate.scan ~file:"tally.ml" (parse tally_src) in
  let find name =
    List.find (fun (g : Mutstate.global) -> g.Mutstate.id = name) gs
  in
  Alcotest.(check int) "three globals" 3 (List.length gs);
  Alcotest.(check bool) "ref is unprotected" false
    (find "Tally.total").Mutstate.protected;
  Alcotest.(check bool) "Atomic is protected" true
    (find "Tally.hits").Mutstate.protected

(* ------------------------------------------------------------------ *)
(* End-to-end phase 2 over in-memory units *)

let analyze_rules sources =
  let summaries = List.map (fun (f, s) -> summarize ~file:f s) sources in
  let globals =
    List.concat_map (fun (f, s) -> Mutstate.scan ~file:f (parse s)) sources
  in
  let p = Reach.build summaries globals in
  let fired = ref [] in
  Reach.analyze p
    ~enabled:(fun _ -> true)
    ~report:(fun ~rule ~file:_ ~pos:_ ~message:_ -> fired := rule :: !fired);
  List.sort_uniq String.compare !fired

let test_phase2_fires () =
  let rules =
    analyze_rules [ ("tally.ml", tally_src); ("worker.ml", worker_src) ]
  in
  Alcotest.(check (list string))
    "unprotected cross-module mutation is caught through the call graph"
    [ "dom-shared-mutation"; "dom-unprotected-read-write" ]
    rules

let test_phase2_silent_when_protected () =
  let protected_src =
    "let work xs =\n\
    \  Pool.map ~jobs:4\n\
    \    (fun x ->\n\
    \      Mutex.protect Tally.lock (fun () -> Tally.total := x);\n\
    \      Atomic.incr Tally.hits;\n\
    \      x)\n\
    \    xs\n"
  in
  let tally =
    "let total = ref 0\nlet lock = Mutex.create ()\nlet hits = Atomic.make 0\n"
  in
  Alcotest.(check (list string))
    "locked mutation and Atomic state stay silent" []
    (analyze_rules [ ("tally.ml", tally); ("safe.ml", protected_src) ])

let test_hot_alloc_fires () =
  let rules = analyze_rules [ ("hot.ml", hot_src) ] in
  Alcotest.(check (list string))
    "per-iteration boxing in the hot region" [ "hot-alloc" ] rules

(* A call made inside a nested module reads the name there first: the
   sibling [Inner.weight] allocates, the toplevel [weight] it shadows
   does not, so the finding names the sibling. *)
let nested_hot_src =
  "let weight _ x = x\n\
   module Inner = struct\n\
  \  let weight w x = (w, x)\n\
  \  let[@lattol.hot] solve n =\n\
  \    let acc = ref 0. in\n\
  \    for _ = 1 to n do\n\
  \      acc := !acc +. snd (weight 1. 0.)\n\
  \    done;\n\
  \    !acc\n\
   end\n"

let test_hot_alloc_nested_module () =
  let p = Reach.build [ summarize ~file:"nested.ml" nested_hot_src ] [] in
  let fired = ref [] in
  Reach.analyze p
    ~enabled:(fun rule -> rule = "hot-alloc")
    ~report:(fun ~rule:_ ~file:_ ~pos:_ ~message -> fired := message :: !fired);
  Alcotest.(check (list string))
    "the sibling's tuple is in the hot region"
    [ "tuple allocated per call in the hot region (Nested.Inner.weight)" ]
    !fired

(* dead-export: a library interface value stays alive exactly as long as
   some other unit names it. *)
let dead_exports ~users =
  let exports =
    Callgraph.exports ~file:"lib/w/widget.mli"
      (Parse.interface (Lexing.from_string "val f : int -> int\n"))
  in
  let summaries =
    summarize ~file:"lib/w/widget.ml" "let f x = x + 1\nlet g x = f x\n"
    :: List.map (fun (f, s) -> summarize ~file:f s) users
  in
  let fired = ref [] in
  Reach.analyze (Reach.build ~exports summaries [])
    ~enabled:(String.equal "dead-export")
    ~report:(fun ~rule:_ ~file:_ ~pos:_ ~message -> fired := message :: !fired);
  !fired

let test_dead_export_on_last_reference () =
  Alcotest.(check int) "a test's reference keeps the val alive" 0
    (List.length
       (dead_exports ~users:[ ("test/test_w.ml", "let () = ignore (Widget.f 1)\n") ]));
  Alcotest.(check (list string))
    "deleting that reference makes the rule fire"
    [ "Widget.f is exported but no other unit uses it" ]
    (dead_exports ~users:[ ("test/test_w.ml", "let () = ignore 1\n") ])

(* dead-option: an optional parameter stays alive exactly as long as some
   application passes its label. *)
let dead_options ~users =
  let exports =
    Callgraph.exports ~file:"lib/w/widget.mli"
      (Parse.interface
         (Lexing.from_string "val f : ?scale:int -> ?bias:int -> int -> int\n"))
  in
  let summaries =
    summarize ~file:"lib/w/widget.ml"
      "let f ?(scale = 1) ?(bias = 0) x = (scale * x) + bias\n\
       let g x = f ~bias:1 x\n"
    :: List.map (fun (f, s) -> summarize ~file:f s) users
  in
  let fired = ref [] in
  Reach.analyze (Reach.build ~exports summaries [])
    ~enabled:(String.equal "dead-option")
    ~report:(fun ~rule:_ ~file:_ ~pos:_ ~message -> fired := message :: !fired);
  !fired

let test_dead_option_on_last_passer () =
  Alcotest.(check (list string)) "the own unit's call and a test's pass both"
    []
    (dead_options
       ~users:[ ("test/test_w.ml", "let () = ignore (Widget.f ~scale:2 1)\n") ]);
  Alcotest.(check (list string))
    "deleting the last passer of a label makes the rule fire"
    [ "Widget.f takes ?scale but no application passes it" ]
    (dead_options
       ~users:[ ("test/test_w.ml", "let () = ignore (Widget.f 1)\n") ]);
  Alcotest.(check (list string)) "a function value may pass any label" []
    (dead_options
       ~users:[ ("test/test_w.ml", "let h = List.map Widget.f [ 1 ]\n") ])

(* ------------------------------------------------------------------ *)
(* Reachability closure: determinism and monotonicity *)

let node_gen = QCheck.Gen.map (Printf.sprintf "n%d") (QCheck.Gen.int_bound 9)

let graph_gen =
  QCheck.Gen.(small_list (pair node_gen (small_list node_gen)))

let roots_gen = QCheck.Gen.small_list node_gen

let print_graph (edges, roots) =
  let b = Buffer.create 64 in
  List.iter
    (fun (s, ds) ->
      Buffer.add_string b
        (Printf.sprintf "%s->[%s] " s (String.concat ";" ds)))
    edges;
  Buffer.add_string b ("roots=[" ^ String.concat ";" roots ^ "]");
  Buffer.contents b

let graph_arb =
  QCheck.make ~print:print_graph QCheck.Gen.(pair graph_gen roots_gen)

let qcheck_closure_deterministic =
  QCheck.Test.make ~name:"closure is invariant under edge/root order"
    ~count:500 graph_arb (fun (edges, roots) ->
      Reach.closure ~edges ~roots
      = Reach.closure ~edges:(List.rev edges) ~roots:(List.rev roots))

let qcheck_closure_contains_roots =
  QCheck.Test.make ~name:"closure contains its roots" ~count:500 graph_arb
    (fun (edges, roots) ->
      let c = Sset.of_list (Reach.closure ~edges ~roots) in
      List.for_all (fun r -> Sset.mem r c) roots)

let extra_edge_gen = QCheck.Gen.pair node_gen (QCheck.Gen.small_list node_gen)

let graph_extra_arb =
  QCheck.make
    ~print:(fun ((edges, roots), (s, ds)) ->
      print_graph (edges, roots)
      ^ Printf.sprintf " +%s->[%s]" s (String.concat ";" ds))
    QCheck.Gen.(pair (pair graph_gen roots_gen) extra_edge_gen)

let qcheck_closure_monotone =
  QCheck.Test.make
    ~name:"adding an edge never shrinks the closure (monotone)" ~count:500
    graph_extra_arb (fun ((edges, roots), extra) ->
      let before = Sset.of_list (Reach.closure ~edges ~roots) in
      let after =
        Sset.of_list (Reach.closure ~edges:(extra :: edges) ~roots)
      in
      Sset.subset before after)

let () =
  Alcotest.run "lint"
    [
      ( "callgraph",
        [
          Alcotest.test_case "summaries are deterministic" `Quick
            test_summary_deterministic;
          Alcotest.test_case "summary shape" `Quick test_summary_shape;
          Alcotest.test_case "mutable-state inventory" `Quick
            test_mutstate_inventory;
        ] );
      ( "phase2",
        [
          Alcotest.test_case "cross-module race fires" `Quick
            test_phase2_fires;
          Alcotest.test_case "protected access is silent" `Quick
            test_phase2_silent_when_protected;
          Alcotest.test_case "hot-alloc fires" `Quick test_hot_alloc_fires;
          Alcotest.test_case "hot-alloc follows nested-module calls" `Quick
            test_hot_alloc_nested_module;
          Alcotest.test_case "dead-export fires on the last reference" `Quick
            test_dead_export_on_last_reference;
          Alcotest.test_case
            "deleting the last passer of a label makes the rule fire" `Quick
            test_dead_option_on_last_passer;
        ] );
      ( "reachability",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_closure_deterministic;
            qcheck_closure_contains_roots;
            qcheck_closure_monotone;
          ] );
    ]
