(* Tests for the benchmark's own code: metric names, the percentile
   rule, failure accounting, seed-reproducible inputs, the golden
   comparison and the conformance bands. *)

open Perfbench_lib

let all_metrics = Catalog.end_to_end @ Catalog.per_layer
let names = List.map (fun m -> m.Catalog.name) all_metrics

let test_names_valid () =
  List.iter
    (fun n ->
      if not (Catalog.valid_name n) then Alcotest.failf "invalid metric name %S" n)
    (names @ Inputs.names);
  List.iter
    (fun bad -> Alcotest.(check bool) bad false (Catalog.valid_name bad))
    [ ""; ".p50"; "batch s"; "lat/ms"; String.make 65 'a' ]

let test_names_unique () =
  Alcotest.(check int) "no duplicates"
    (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_setup_metric () =
  Alcotest.(check string) "setup_s unit" "s" (Catalog.unit_of "setup_s")

(* BENCHMARK.json must list exactly the catalog's metrics and the
   workloads, each as one ["name": "..."] entry. *)
let test_benchmark_json () =
  let json = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let count_sub sub =
    let n = String.length sub and len = String.length json in
    let rec go i acc =
      if i + n > len then acc
      else if String.sub json i n = sub then go (i + n) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  List.iter
    (fun m ->
      Alcotest.(check int) m.Catalog.name 1
        (count_sub
           (Printf.sprintf "\"name\": \"%s\", \"unit\": \"%s\"" m.Catalog.name
              m.Catalog.unit)))
    all_metrics;
  List.iter
    (fun n ->
      Alcotest.(check int) n 1 (count_sub (Printf.sprintf "\"name\": \"%s\"" n)))
    Inputs.names;
  Alcotest.(check int) "no other names"
    (List.length names + List.length Inputs.names)
    (count_sub "\"name\":")

let test_percentile_rule () =
  Alcotest.(check int) "p90 needs 100 samples" 100 (Sample.required ~pct:90);
  Alcotest.(check int) "p50 needs 20 samples" 20 (Sample.required ~pct:50);
  Alcotest.(check int) "10 beyond p90 of 100" 10 (Sample.beyond ~pct:90 100);
  Alcotest.(check int) "9 beyond p90 of 99" 9 (Sample.beyond ~pct:90 99);
  Alcotest.(check bool) "99 is too few" false (Sample.enough ~pct:90 99);
  let xs = List.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. (Sample.percentile ~pct:90 xs);
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (Sample.percentile ~pct:50 xs);
  Alcotest.(check (float 0.)) "median of three" 2. (Sample.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "p100 is the max" 100. (Sample.percentile ~pct:100 xs);
  Alcotest.check_raises "no samples" (Invalid_argument "Sample.rank: no samples")
    (fun () -> ignore (Sample.median []))

let test_failed_accounting () =
  let t = Tally.create () in
  Alcotest.(check bool) "nothing attempted is not correct" false (Tally.correct t);
  Tally.work t ~attempted:336 ~failed:0 "rows";
  Tally.check t ~ok:true "identical output";
  Alcotest.(check bool) "all passed" true (Tally.correct t);
  Alcotest.(check (float 0.)) "pass ratio 1" 1. (Tally.pass_ratio t);
  Tally.work t ~attempted:2 ~failed:1 "replications";
  Tally.check t ~ok:false "band";
  Alcotest.(check int) "attempted" 340 (Tally.attempted t);
  Alcotest.(check int) "failed" 2 (Tally.failed t);
  Alcotest.(check (float 1e-15)) "failed ratio" (2. /. 340.) (Tally.failed_ratio t);
  Alcotest.(check (float 1e-15)) "pass ratio" (338. /. 340.) (Tally.pass_ratio t);
  Alcotest.(check (list string)) "failures kept in order"
    [ "replications: 1 of 2 failed"; "band" ] (Tally.failures t);
  Alcotest.check_raises "more failed than attempted"
    (Invalid_argument "Tally.work: need 0 <= failed <= attempted") (fun () ->
      Tally.work t ~attempted:1 ~failed:2 "x")

let test_seed_reproduces_inputs () =
  List.iter
    (fun workload ->
      List.iter
        (fun seed ->
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d" workload seed)
            (Inputs.fingerprint (Inputs.make ~workload ~seed))
            (Inputs.fingerprint (Inputs.make ~workload ~seed)))
        [ 0; 1; 7; 123456 ])
    Inputs.names;
  let distinct workload =
    List.length
      (List.sort_uniq String.compare
         (List.init 20 (fun seed -> Inputs.fingerprint (Inputs.make ~workload ~seed))))
  in
  Alcotest.(check bool) "sweep bases vary with the seed" true (distinct "sweep_warm_journaled" > 1);
  Alcotest.(check int) "replication seeds vary with the seed" 20 (distinct "replicate_sim");
  Alcotest.(check int) "figure grids are fixed" 1 (distinct "figures_cold");
  match Inputs.make ~workload:"sweep_warm_journaled" ~seed:3 with
  | Inputs.Sweep_warm_journaled { axes; _ } ->
    Alcotest.(check int) "336 grid points" 336
      (List.length (Lattol_exec.Sweep.points axes))
  | _ -> Alcotest.fail "wrong workload"

let test_golden_rule () =
  let golden = "# t\na,b\n0.2,0.168736\n" in
  let ok = Result.is_ok in
  Alcotest.(check bool) "identical" true (ok (Oracle.csv_close ~rtol:1e-4 ~atol:1e-6 ~golden golden));
  Alcotest.(check bool) "within rtol" true
    (ok (Oracle.csv_close ~rtol:1e-4 ~atol:1e-6 ~golden "# t\na,b\n0.2,0.168740\n"));
  Alcotest.(check bool) "perturbed" false
    (ok (Oracle.csv_close ~rtol:1e-4 ~atol:1e-6 ~golden "# t\na,b\n0.2,0.169736\n"));
  Alcotest.(check bool) "header differs" false
    (ok (Oracle.csv_close ~rtol:1e-4 ~atol:1e-6 ~golden "# t\na,c\n0.2,0.168736\n"));
  Alcotest.(check bool) "missing line" false
    (ok (Oracle.csv_close ~rtol:1e-4 ~atol:1e-6 ~golden "# t\na,b\n"))

(* The conformance bands apply to each replication on its own: a value
   that only a wide across-replication interval would admit fails. *)
let test_conformance_bands () =
  let linearizer = 0.8436 in
  let des u_p half = Oracle.des_within ~linearizer ~u_p ~half in
  Alcotest.(check bool) "DES inside the 0.02 floor" true (des 0.86 0.001);
  Alcotest.(check bool) "DES inside 3 half-widths" true (des 0.87 0.009);
  Alcotest.(check bool) "DES outside both" false (des 0.87 0.005);
  Alcotest.(check bool) "perturbed linearizer fails" false
    (Oracle.des_within ~linearizer:(linearizer +. 0.05) ~u_p:linearizer ~half:0.006);
  Alcotest.(check bool) "STPN inside 0.03" true (Oracle.stpn_within ~linearizer ~u_p:0.82);
  Alcotest.(check bool) "STPN outside 0.03" false (Oracle.stpn_within ~linearizer ~u_p:0.80)

let () =
  Alcotest.run "perfbench"
    [
      ( "catalog",
        [
          Alcotest.test_case "metric names" `Quick test_names_valid;
          Alcotest.test_case "unique names" `Quick test_names_unique;
          Alcotest.test_case "setup metric" `Quick test_setup_metric;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "failed accounting" `Quick test_failed_accounting;
          Alcotest.test_case "seed reproduces inputs" `Quick test_seed_reproduces_inputs;
          Alcotest.test_case "golden rule" `Quick test_golden_rule;
          Alcotest.test_case "conformance bands" `Quick test_conformance_bands;
        ] );
    ]
