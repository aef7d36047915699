(* Tests for the Markov-chain substrate: the sparse CTMC solver against
   closed-form birth-death chains, and the brute-force queueing-network
   CTMC against exact MVA (the strongest ground-truth ladder in the
   repository). *)

module Ctmc = Lattol_markov.Ctmc
module Birth_death = Lattol_markov.Birth_death
module Qn_ctmc = Lattol_markov.Qn_ctmc
open Lattol_queueing

let close ?(eps = 1e-9) = Alcotest.(check (float eps))

(* ------------------------------------------------------------------ *)
(* Ctmc *)

let test_two_state_chain () =
  (* 0 -(a)-> 1, 1 -(b)-> 0: pi = (b, a) / (a+b). *)
  let c = Ctmc.create 2 in
  Ctmc.add_rate c ~src:0 ~dst:1 3.;
  Ctmc.add_rate c ~src:1 ~dst:0 1.;
  let pi = Ctmc.steady_state c in
  close ~eps:1e-9 "pi0" 0.25 pi.(0);
  close ~eps:1e-9 "pi1" 0.75 pi.(1)

let test_rate_accumulates () =
  let c = Ctmc.create 2 in
  Ctmc.add_rate c ~src:0 ~dst:1 1.;
  Ctmc.add_rate c ~src:0 ~dst:1 2.;
  close "accumulated" 3. (Ctmc.rate c ~src:0 ~dst:1);
  close "exit rate" 3. (Ctmc.exit_rate c 0)

let test_ctmc_validation () =
  let c = Ctmc.create 2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Ctmc.add_rate: src = dst")
    (fun () -> Ctmc.add_rate c ~src:1 ~dst:1 1.);
  Alcotest.(check bool) "negative rate" true
    (try
       Ctmc.add_rate c ~src:0 ~dst:1 (-1.);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "absorbing detected" true
    (try
       Ctmc.add_rate c ~src:0 ~dst:1 1.;
       (* state 1 has no exit *)
       ignore (Ctmc.steady_state c);
       false
     with Failure _ -> true)

let test_expected_and_flow () =
  let c = Ctmc.create 2 in
  Ctmc.add_rate c ~src:0 ~dst:1 1.;
  Ctmc.add_rate c ~src:1 ~dst:0 1.;
  let pi = Ctmc.steady_state c in
  close "expected id" 0.5 (Ctmc.expected c ~pi ~f:float_of_int);
  (* flux 0->1 equals flux 1->0 in steady state *)
  let f01 = Ctmc.flow c ~pi ~select:(fun ~src ~dst -> src = 0 && dst = 1) in
  let f10 = Ctmc.flow c ~pi ~select:(fun ~src ~dst -> src = 1 && dst = 0) in
  close ~eps:1e-9 "balanced flux" f01 f10

(* ------------------------------------------------------------------ *)
(* Birth-death *)

let test_birth_death_mm1n () =
  (* M/M/1/3: lambda=1, mu=2 -> pi_i ~ (1/2)^i. *)
  let births = [| 1.; 1.; 1. |] and deaths = [| 2.; 2.; 2. |] in
  let pi = Birth_death.steady_state ~births ~deaths in
  let z = 1. +. 0.5 +. 0.25 +. 0.125 in
  close "pi0" (1. /. z) pi.(0);
  close "pi3" (0.125 /. z) pi.(3)

let test_birth_death_vs_ctmc_solver () =
  let births = [| 2.; 1.5; 1.; 0.5 |] and deaths = [| 1.; 1.; 2.; 3. |] in
  let closed_form = Birth_death.steady_state ~births ~deaths in
  let solved = Ctmc.steady_state (Birth_death.to_ctmc ~births ~deaths) in
  Array.iteri
    (fun i p -> close ~eps:1e-8 (Printf.sprintf "pi%d" i) p solved.(i))
    closed_form

let test_birth_death_validation () =
  Alcotest.(check bool) "length mismatch" true
    (try
       ignore (Birth_death.steady_state ~births:[| 1. |] ~deaths:[| 1.; 1. |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero rate" true
    (try
       ignore (Birth_death.steady_state ~births:[| 0. |] ~deaths:[| 1. |]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Qn_ctmc *)

let repairman ~n =
  Network.make
    ~stations:[| ("think", Network.Delay); ("repair", Network.Queueing) |]
    ~classes:
      [|
        {
          Network.class_name = "jobs";
          population = n;
          visits = [| 1.; 1. |];
          service = [| 5.; 1. |];
        };
      |]

let test_qn_ctmc_repairman_vs_mva () =
  let nw = repairman ~n:4 in
  let a = Mva.solve nw and b = Qn_ctmc.solve nw in
  close ~eps:1e-8 "throughput" a.Solution.throughput.(0) b.Solution.throughput.(0);
  close ~eps:1e-7 "queue at repair" a.Solution.queue.(0).(1) b.Solution.queue.(0).(1)

let test_qn_ctmc_repairman_vs_birth_death () =
  (* The repairman model is a birth-death chain on the number of broken
     machines: birth rate (N-i)/Z, death rate 1/R. *)
  let n = 5 and z = 5. and r = 1. in
  let births = Array.init n (fun i -> float_of_int (n - i) /. z) in
  let deaths = Array.make n (1. /. r) in
  let pi = Birth_death.steady_state ~births ~deaths in
  let mean_broken = ref 0. in
  Array.iteri (fun i p -> mean_broken := !mean_broken +. (float_of_int i *. p)) pi;
  let nw = repairman ~n in
  let s = Qn_ctmc.solve nw in
  close ~eps:1e-8 "mean broken machines" !mean_broken s.Solution.queue.(0).(1)

let test_qn_ctmc_multiclass_vs_mva () =
  let nw =
    Network.make
      ~stations:
        [|
          ("cpu", Network.Queueing); ("disk", Network.Queueing);
          ("net", Network.Queueing);
        |]
      ~classes:
        [|
          {
            Network.class_name = "a";
            population = 3;
            visits = [| 1.; 2.; 0.5 |];
            service = [| 0.5; 0.4; 1.0 |];
          };
          {
            Network.class_name = "b";
            population = 2;
            visits = [| 1.; 1.; 2.0 |];
            service = [| 0.5; 0.4; 1.0 |];
          };
        |]
  in
  let a = Mva.solve nw and b = Qn_ctmc.solve nw in
  for c = 0 to 1 do
    close ~eps:1e-7
      (Printf.sprintf "throughput class %d" c)
      a.Solution.throughput.(c) b.Solution.throughput.(c)
  done;
  for c = 0 to 1 do
    for m = 0 to 2 do
      close ~eps:1e-6
        (Printf.sprintf "queue c%d m%d" c m)
        a.Solution.queue.(c).(m) b.Solution.queue.(c).(m)
    done
  done

let test_qn_ctmc_rejects_class_dependent_fcfs () =
  let nw =
    Network.make
      ~stations:[| ("s", Network.Queueing) |]
      ~classes:
        [|
          {
            Network.class_name = "a";
            population = 1;
            visits = [| 1. |];
            service = [| 1. |];
          };
          {
            Network.class_name = "b";
            population = 1;
            visits = [| 1. |];
            service = [| 2. |];
          };
        |]
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Qn_ctmc.solve nw);
       false
     with Invalid_argument _ -> true)

let test_qn_ctmc_state_cap () =
  let nw = repairman ~n:4 in
  Alcotest.(check bool) "raises under tiny cap" true
    (try
       ignore (Qn_ctmc.solve ~max_states:2 nw);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "repairman states" 5 (Qn_ctmc.num_states nw)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_steady_state_normalized =
  QCheck.Test.make ~name:"birth-death steady state sums to 1" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 10) (pair (float_range 0.1 5.) (float_range 0.1 5.)))
    (fun rates ->
      let births = Array.of_list (List.map fst rates) in
      let deaths = Array.of_list (List.map snd rates) in
      let pi = Birth_death.steady_state ~births ~deaths in
      abs_float (Array.fold_left ( +. ) 0. pi -. 1.) < 1e-9)

let prop_ctmc_matches_closed_form =
  QCheck.Test.make ~name:"CTMC solver matches birth-death closed form"
    ~count:50
    QCheck.(list_of_size Gen.(int_range 1 8) (pair (float_range 0.1 5.) (float_range 0.1 5.)))
    (fun rates ->
      let births = Array.of_list (List.map fst rates) in
      let deaths = Array.of_list (List.map snd rates) in
      let a = Birth_death.steady_state ~births ~deaths in
      let b = Ctmc.steady_state (Birth_death.to_ctmc ~births ~deaths) in
      let ok = ref true in
      Array.iteri (fun i p -> if abs_float (p -. b.(i)) > 1e-7 then ok := false) a;
      !ok)

let prop_qn_ctmc_matches_mva =
  QCheck.Test.make ~name:"QN CTMC matches exact MVA on random networks"
    ~count:25
    QCheck.(
      pair (int_range 1 4)
        (list_of_size Gen.(int_range 2 3) (float_range 0.2 2.)))
    (fun (n, demands) ->
      let m = List.length demands in
      let nw =
        Network.make
          ~stations:
            (Array.init m (fun i -> (Printf.sprintf "s%d" i, Network.Queueing)))
          ~classes:
            [|
              {
                Network.class_name = "c";
                population = n;
                visits = Array.make m 1.;
                service = Array.of_list demands;
              };
            |]
      in
      let a = (Mva.solve nw).Solution.throughput.(0) in
      let b = (Qn_ctmc.solve nw).Solution.throughput.(0) in
      abs_float (a -. b) /. a < 1e-6)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lattol_markov"
    [
      ( "ctmc",
        [
          Alcotest.test_case "two states" `Quick test_two_state_chain;
          Alcotest.test_case "rate accumulation" `Quick test_rate_accumulates;
          Alcotest.test_case "validation" `Quick test_ctmc_validation;
          Alcotest.test_case "expected and flow" `Quick test_expected_and_flow;
        ] );
      ( "birth-death",
        [
          Alcotest.test_case "M/M/1/3" `Quick test_birth_death_mm1n;
          Alcotest.test_case "vs CTMC solver" `Quick test_birth_death_vs_ctmc_solver;
          Alcotest.test_case "validation" `Quick test_birth_death_validation;
        ] );
      ( "qn-ctmc",
        [
          Alcotest.test_case "repairman vs MVA" `Quick test_qn_ctmc_repairman_vs_mva;
          Alcotest.test_case "repairman vs birth-death" `Quick
            test_qn_ctmc_repairman_vs_birth_death;
          Alcotest.test_case "multiclass vs MVA" `Quick test_qn_ctmc_multiclass_vs_mva;
          Alcotest.test_case "rejects class-dependent FCFS" `Quick
            test_qn_ctmc_rejects_class_dependent_fcfs;
          Alcotest.test_case "state cap" `Quick test_qn_ctmc_state_cap;
        ] );
      ( "properties",
        qcheck
          [
            prop_steady_state_normalized;
            prop_ctmc_matches_closed_form;
            prop_qn_ctmc_matches_mva;
          ] );
    ]
