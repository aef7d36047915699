(* Unit and property tests for the statistics substrate: PRNG, variates,
   moment accumulators, confidence intervals, histograms. *)

open Lattol_stats

let check_float = Alcotest.(check (float 1e-9))

let close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 () and b = Prng.create ~seed:42 () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same sequence" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 () and b = Prng.create ~seed:2 () in
  Alcotest.(check bool) "different sequences" true
    (Prng.bits64 a <> Prng.bits64 b)

let test_prng_float_range () =
  let rng = Prng.create ~seed:7 () in
  for _ = 1 to 10_000 do
    let u = Prng.float rng in
    if u < 0. || u >= 1. then Alcotest.failf "float out of [0,1): %g" u
  done

let test_prng_float_moments () =
  let rng = Prng.create ~seed:11 () in
  let m = Moments.create () in
  for _ = 1 to 100_000 do
    Moments.add m (Prng.float rng)
  done;
  close ~eps:5e-3 "mean ~ 1/2" 0.5 (Moments.mean m);
  close ~eps:5e-3 "var ~ 1/12" (1. /. 12.) (Moments.variance m)

let test_prng_int_uniform () =
  let rng = Prng.create ~seed:3 () in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Prng.int rng 10 in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let freq = float_of_int c /. float_of_int n in
      if abs_float (freq -. 0.1) > 0.01 then
        Alcotest.failf "bucket %d frequency %g too far from 0.1" i freq)
    counts

let test_prng_int_bounds () =
  let rng = Prng.create ~seed:3 () in
  for _ = 1 to 1000 do
    let v = Prng.int rng 3 in
    if v < 0 || v >= 3 then Alcotest.failf "int out of range: %d" v
  done;
  Alcotest.check_raises "n = 0 rejected" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_split_independent () =
  let parent = Prng.create ~seed:5 () in
  let child = Prng.split parent in
  (* Parent and child should not produce identical streams. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 parent = Prng.bits64 child then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

(* Replication fan-out derives one stream per replication by repeated
   [split] from a root seed; these three tests are the statistical
   contract that design leans on. *)

let split_streams ~seed n =
  let root = Prng.create ~seed () in
  List.init n (fun _ -> Prng.split root)

let test_prng_split_reproducible () =
  (* Streams depend only on (seed, index): re-deriving from the same root
     seed replays every stream exactly. *)
  let a = split_streams ~seed:1997 8 and b = split_streams ~seed:1997 8 in
  List.iteri
    (fun i (x, y) ->
      for _ = 1 to 1_000 do
        if Prng.bits64 x <> Prng.bits64 y then
          Alcotest.failf "stream %d diverged" i
      done)
    (List.combine a b)

let test_prng_split_nonoverlapping () =
  (* Over 10^5 draws per stream, no 64-bit output may appear in two
     different streams: a birthday collision of honest streams has
     probability ~ (5*10^5)^2 / 2^64 < 10^-8, so any hit means the
     streams share state. *)
  let streams = split_streams ~seed:5 4 in
  let draws = 100_000 in
  let seen = Hashtbl.create (5 * draws) in
  List.iteri
    (fun id rng ->
      for _ = 1 to draws do
        let v = Prng.bits64 rng in
        match Hashtbl.find_opt seen v with
        | Some other when other <> id ->
          Alcotest.failf "streams %d and %d both produced %Ld" other id v
        | _ -> Hashtbl.replace seen v id
      done)
    streams

let test_prng_split_uncorrelated () =
  (* Pearson correlation between sibling streams' uniforms: the standard
     error at n = 10^5 is ~0.003, so |r| beyond 0.02 is a real defect,
     not noise. *)
  match split_streams ~seed:23 2 with
  | [ a; b ] ->
    let n = 100_000 in
    let xs = Array.init n (fun _ -> Prng.float a) in
    let ys = Array.init n (fun _ -> Prng.float b) in
    let mean v = Array.fold_left ( +. ) 0. v /. float_of_int n in
    let mx = mean xs and my = mean ys in
    let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
    for i = 0 to n - 1 do
      let dx = xs.(i) -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy)
    done;
    let r = !sxy /. sqrt (!sxx *. !syy) in
    if abs_float r > 0.02 then
      Alcotest.failf "sibling streams correlate: r = %g" r
  | _ -> assert false

let test_prng_split_order_independent () =
  (* The foundation of the pool's byte-identity guarantee: streams derived
     up-front are fully determined at derivation time, so the order in
     which workers later CONSUME them — any interleaving, any schedule —
     cannot change what each stream produces. *)
  let draws = 256 in
  let consume order streams =
    let out = Array.make (List.length streams) [] in
    List.iter
      (fun id ->
        let rng = List.nth streams id in
        out.(id) <- Prng.bits64 rng :: out.(id))
      order;
    Array.map List.rev out
  in
  (* Each stream appears [draws] times in both orders; only the
     interleaving differs (round-robin vs. reversed blocks). *)
  let ids = [ 0; 1; 2; 3 ] in
  let round_robin =
    List.concat (List.init draws (fun _ -> ids))
  in
  let blocks =
    List.concat_map (fun id -> List.init draws (fun _ -> id)) (List.rev ids)
  in
  let a = consume round_robin (split_streams ~seed:97 4) in
  let b = consume blocks (split_streams ~seed:97 4) in
  Array.iteri
    (fun id xs ->
      if xs <> b.(id) then
        Alcotest.failf "stream %d depends on consumption order" id)
    a

let test_prng_copy () =
  let a = Prng.create ~seed:9 () in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.bits64 a)
    (Prng.bits64 b)

(* The first outputs recorded while the state was a boxed [int64]:
   keeping the state in bytes must not move a bit of any stream. *)
let test_prng_recorded_outputs () =
  let first3 g =
    let a = Prng.bits64 g in
    let b = Prng.bits64 g in
    [ a; b; Prng.bits64 g ]
  in
  Alcotest.(check (list int64)) "seed 1"
    [ -4616330145664149646L; 6869446166584666695L; 8084911050856847527L ]
    (first3 (Prng.create ~seed:1 ()));
  Alcotest.(check (list int64)) "default seed"
    [ -2901454630578392181L; 8703238342444992614L; 7264735077615930166L ]
    (first3 (Prng.create ()));
  let parent = Prng.create ~seed:1 () in
  let child = Prng.split parent in
  Alcotest.(check (list int64)) "split child"
    [ -6699885206154003123L; -2537955891498307325L; -7719521118934686758L ]
    (first3 child);
  Alcotest.(check int64) "parent after split" 6869446166584666695L
    (Prng.bits64 parent)

(* ------------------------------------------------------------------ *)
(* Variate *)

let sample_moments dist seed n =
  let rng = Prng.create ~seed () in
  let m = Moments.create () in
  for _ = 1 to n do
    Moments.add m (Variate.draw dist rng)
  done;
  m

let test_variate_exponential () =
  let d = Variate.Exponential 2.5 in
  check_float "mean" 2.5 (Variate.mean d);
  check_float "variance" 6.25 (Variate.variance d);
  check_float "scv" 1. (Variate.scv d);
  let m = sample_moments d 13 200_000 in
  close ~eps:0.05 "sample mean" 2.5 (Moments.mean m);
  close ~eps:0.25 "sample variance" 6.25 (Moments.variance m)

let test_variate_deterministic () =
  let d = Variate.Deterministic 3. in
  check_float "mean" 3. (Variate.mean d);
  check_float "variance" 0. (Variate.variance d);
  let rng = Prng.create () in
  for _ = 1 to 10 do
    check_float "draw" 3. (Variate.draw d rng)
  done

let test_variate_uniform () =
  let d = Variate.Uniform (1., 3.) in
  check_float "mean" 2. (Variate.mean d);
  close "variance" (1. /. 3.) (Variate.variance d);
  let m = sample_moments d 17 100_000 in
  close ~eps:0.02 "sample mean" 2. (Moments.mean m);
  close ~eps:0.02 "sample min >= 1" 1. (Moments.min m)

let test_variate_erlang () =
  let d = Variate.Erlang (4, 2.) in
  check_float "mean" 2. (Variate.mean d);
  check_float "variance" 1. (Variate.variance d);
  check_float "scv" 0.25 (Variate.scv d);
  let m = sample_moments d 19 100_000 in
  close ~eps:0.03 "sample mean" 2. (Moments.mean m);
  close ~eps:0.05 "sample variance" 1. (Moments.variance m)

let test_variate_hyperexp () =
  let d = Variate.Hyperexp [| (0.5, 1.); (0.5, 3.) |] in
  check_float "mean" 2. (Variate.mean d);
  (* E[X^2] = 0.5*2*1 + 0.5*2*9 = 10; var = 10 - 4 = 6 *)
  check_float "variance" 6. (Variate.variance d);
  let m = sample_moments d 23 200_000 in
  close ~eps:0.05 "sample mean" 2. (Moments.mean m)

let test_variate_validate () =
  let bad d = Alcotest.(check bool) "invalid" true (Variate.validate d |> Result.is_error) in
  bad (Variate.Exponential 0.);
  bad (Variate.Exponential (-1.));
  bad (Variate.Deterministic (-0.5));
  bad (Variate.Uniform (2., 1.));
  bad (Variate.Erlang (0, 1.));
  bad (Variate.Hyperexp [| (0.5, 1.); (0.4, 1.) |]);
  bad (Variate.Hyperexp [||]);
  Alcotest.(check bool) "valid exp" true
    (Variate.validate (Variate.Exponential 1.) |> Result.is_ok)

let test_discrete_distribution () =
  let rng = Prng.create ~seed:29 () in
  let weights = [| 1.; 2.; 7. |] in
  let counts = Array.make 3 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Variate.discrete rng weights in
    counts.(i) <- counts.(i) + 1
  done;
  close ~eps:0.01 "p0" 0.1 (float_of_int counts.(0) /. float_of_int n);
  close ~eps:0.01 "p1" 0.2 (float_of_int counts.(1) /. float_of_int n);
  close ~eps:0.01 "p2" 0.7 (float_of_int counts.(2) /. float_of_int n)

let test_discrete_zero_weights () =
  let rng = Prng.create () in
  (* Indices with zero weight must never be drawn. *)
  for _ = 1 to 1000 do
    let i = Variate.discrete rng [| 0.; 1.; 0. |] in
    Alcotest.(check int) "only index 1" 1 i
  done

let test_geometric_trunc () =
  let rng = Prng.create ~seed:31 () in
  let p = 0.5 and max = 4 in
  let counts = Array.make (max + 1) 0 in
  let n = 200_000 in
  for _ = 1 to n do
    let h = Variate.geometric_trunc rng ~p ~max in
    counts.(h) <- counts.(h) + 1
  done;
  Alcotest.(check int) "never draws 0" 0 counts.(0);
  let a = 0.5 +. 0.25 +. 0.125 +. 0.0625 in
  for h = 1 to max do
    let expected = (p ** float_of_int h) /. a in
    let freq = float_of_int counts.(h) /. float_of_int n in
    if abs_float (freq -. expected) > 0.01 then
      Alcotest.failf "P(h=%d): got %g want %g" h freq expected
  done

(* ------------------------------------------------------------------ *)
(* Moments *)

let test_moments_basic () =
  let m = Moments.create () in
  List.iter (Moments.add m) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check int) "count" 8 (Moments.count m);
  check_float "mean" 5. (Moments.mean m);
  close "variance" (32. /. 7.) (Moments.variance m);
  check_float "min" 2. (Moments.min m);
  check_float "max" 9. (Moments.max m);
  check_float "sum" 40. (Moments.sum m)

let test_moments_empty () =
  let m = Moments.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Moments.mean m));
  Alcotest.(check bool) "variance nan" true (Float.is_nan (Moments.variance m))

let test_moments_weighted () =
  let m = Moments.create () in
  Moments.add_weighted m ~weight:3. 10.;
  Moments.add_weighted m ~weight:1. 2.;
  check_float "weighted mean" 8. (Moments.mean m);
  check_float "total weight" 4. (Moments.total_weight m)

let test_moments_merge () =
  let a = Moments.create () and b = Moments.create () and whole = Moments.create () in
  let xs = [ 1.; 2.; 3.; 4.; 5.; 6. ] in
  List.iteri
    (fun i x ->
      Moments.add whole x;
      if i < 3 then Moments.add a x else Moments.add b x)
    xs;
  let merged = Moments.merge a b in
  close "merged mean" (Moments.mean whole) (Moments.mean merged);
  close "merged variance" (Moments.variance whole) (Moments.variance merged);
  Alcotest.(check int) "merged count" 6 (Moments.count merged)

(* Bits recorded while [count] was an int field of a mixed record:
   the all-float accumulator must reproduce every one. *)
let test_moments_recorded_bits () =
  let g = Prng.create ~seed:11 () in
  let a = Moments.create () and b = Moments.create () in
  for i = 1 to 1000 do
    let x = Variate.exponential g ~mean:2.5 in
    if i mod 3 = 0 then Moments.add b x else Moments.add a x
  done;
  let bits name m (count, mean, variance, min, max) =
    Alcotest.(check int) (name ^ " count") count (Moments.count m);
    List.iter
      (fun (what, expected, got) ->
        Alcotest.(check string) (name ^ " " ^ what) expected
          (Printf.sprintf "%h" got))
      [
        ("mean", mean, Moments.mean m);
        ("variance", variance, Moments.variance m);
        ("min", min, Moments.min m);
        ("max", max, Moments.max m);
      ]
  in
  bits "a" a
    (667, "0x1.450cd55967108p+1", "0x1.a56d117edcc3fp+2",
     "0x1.45bab023cee1bp-9", "0x1.26e2fbe8376d9p+4");
  bits "b" b
    (333, "0x1.355341dd4fe37p+1", "0x1.538a223db459dp+2",
     "0x1.9348891ed43a6p-5", "0x1.cd8c4c34ba432p+3");
  bits "merge" (Moments.merge a b)
    (1000, "0x1.3fd051096ca8bp+1", "0x1.8a01642c1a344p+2",
     "0x1.45bab023cee1bp-9", "0x1.26e2fbe8376d9p+4")

let test_moments_negative_weight () =
  let m = Moments.create () in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Moments.add_weighted: negative weight") (fun () ->
      Moments.add_weighted m ~weight:(-1.) 0.)

(* ------------------------------------------------------------------ *)
(* Confidence *)

let test_t_quantile () =
  close ~eps:1e-3 "df=1" 12.706 (Confidence.t_quantile ~df:1);
  close ~eps:1e-3 "df=10" 2.228 (Confidence.t_quantile ~df:10);
  close ~eps:1e-2 "df=30" 2.042 (Confidence.t_quantile ~df:30);
  close ~eps:1e-2 "df huge ~ z" 1.96 (Confidence.t_quantile ~df:10_000)

let test_interval_coverage () =
  (* The 95% CI over n samples of a known-mean distribution should cover the
     true mean roughly 95% of the time. *)
  let rng = Prng.create ~seed:37 () in
  let trials = 400 and n = 30 in
  let covered = ref 0 in
  for _ = 1 to trials do
    let m = Moments.create () in
    for _ = 1 to n do
      Moments.add m (Variate.exponential rng ~mean:1.)
    done;
    match Confidence.interval m with
    | Some (mean, half) when abs_float (mean -. 1.) <= half -> incr covered
    | Some _ -> ()
    | None -> Alcotest.fail "no interval with 30 samples"
  done;
  let coverage = float_of_int !covered /. float_of_int trials in
  if coverage < 0.88 || coverage > 0.99 then
    Alcotest.failf "coverage %g out of [0.88, 0.99]" coverage

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_basic () =
  let h = Histogram.create ~hi:10. ~bins:10 () in
  List.iter (Histogram.add h) [ 0.5; 1.5; 1.6; 9.9; -1.; 12. ];
  Alcotest.(check int) "count" 6 (Histogram.count h);
  Alcotest.(check int) "bin 0" 1 (Histogram.bin_count h 0);
  Alcotest.(check int) "bin 1" 2 (Histogram.bin_count h 1);
  Alcotest.(check int) "bin 9" 1 (Histogram.bin_count h 9);
  Alcotest.(check int) "underflow" 1 (Histogram.underflow h);
  Alcotest.(check int) "overflow" 1 (Histogram.overflow h)

let test_histogram_quantile () =
  let h = Histogram.create ~hi:100. ~bins:100 () in
  let rng = Prng.create ~seed:41 () in
  for _ = 1 to 100_000 do
    Histogram.add h (Prng.float rng *. 100.)
  done;
  close ~eps:1. "median ~ 50" 50. (Histogram.quantile h 0.5);
  close ~eps:1.5 "p90 ~ 90" 90. (Histogram.quantile h 0.9)

let test_histogram_quantile_edges () =
  (* All mass in overflow: every quantile saturates at the top edge. *)
  let h = Histogram.create ~hi:10. ~bins:10 () in
  List.iter (Histogram.add h) [ 11.; 12.; 13. ];
  check_float "all overflow -> hi" 10. (Histogram.quantile h 0.5);
  (* All mass in underflow: every quantile saturates at the bottom edge. *)
  let h = Histogram.create ~lo:5. ~hi:10. ~bins:5 () in
  List.iter (Histogram.add h) [ 0.; 1.; 2. ];
  check_float "all underflow -> lo" 5. (Histogram.quantile h 0.5);
  (* Underflow mass already covers the target: still the bottom edge, not
     an interpolation into the first populated bin (the historical bug
     produced a negative offset here). *)
  let h = Histogram.create ~lo:5. ~hi:10. ~bins:5 () in
  List.iter (Histogram.add h) [ 0.; 1.; 2.; 7.25 ];
  check_float "underflow owns the median" 5. (Histogram.quantile h 0.5);
  close ~eps:1e-9 "tail quantile lands in the bin" 7.96
    (Histogram.quantile h 0.99);
  (* Exact bin-boundary target: interpolation reaches precisely the edge. *)
  let h = Histogram.create ~hi:10. ~bins:10 () in
  for _ = 1 to 10 do
    Histogram.add h 0.5
  done;
  for _ = 1 to 10 do
    Histogram.add h 1.5
  done;
  check_float "boundary median" 1. (Histogram.quantile h 0.5);
  (* Empty interior bins never own a quantile: with mass only in the first
     and last bins, the median sits at the top of the first. *)
  let h = Histogram.create ~hi:10. ~bins:10 () in
  for _ = 1 to 5 do
    Histogram.add h 0.5
  done;
  for _ = 1 to 5 do
    Histogram.add h 9.5
  done;
  check_float "gap: median tops the first bin" 1. (Histogram.quantile h 0.5);
  close ~eps:1e-9 "gap: p60 lands in the last bin" 9.2
    (Histogram.quantile h 0.6);
  (* Degenerate requests: q must sit strictly inside (0, 1); an empty
     histogram has no quantiles at all. *)
  Alcotest.(check bool) "q outside (0, 1)" true
    (try
       ignore (Histogram.quantile h 0.);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "q = 1 rejected" true
    (try
       ignore (Histogram.quantile h 1.);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "empty histogram -> nan" true
    (Float.is_nan (Histogram.quantile (Histogram.create ~hi:1. ~bins:2 ()) 0.5))

let test_histogram_bounds () =
  let h = Histogram.create ~lo:2. ~hi:4. ~bins:4 () in
  let lo, hi = Histogram.bin_bounds h 1 in
  check_float "bin lo" 2.5 lo;
  check_float "bin hi" 3. hi

(* ------------------------------------------------------------------ *)
(* Ascii_plot *)

let test_plot_renders () =
  let chart =
    Ascii_plot.render ~width:20 ~height:5 ~x_label:"x" ~y_label:"y"
      [ { Ascii_plot.label = "line"; points = [ (0., 0.); (1., 1.); (2., 2.) ] } ]
  in
  Alcotest.(check bool) "contains glyph" true (String.contains chart '*');
  Alcotest.(check bool) "contains legend" true
    (String.length chart > 0
    &&
    let found = ref false in
    String.iteri
      (fun i _ ->
        if i + 4 <= String.length chart && String.sub chart i 4 = "line" then
          found := true)
      chart;
    !found);
  Alcotest.(check bool) "y label present" true (String.length chart > 20)

let test_plot_empty () =
  Alcotest.(check string) "no data message" "(no finite data points)"
    (Ascii_plot.render [ { Ascii_plot.label = "e"; points = [] } ]);
  Alcotest.(check string) "nan filtered" "(no finite data points)"
    (Ascii_plot.render [ { Ascii_plot.label = "n"; points = [ (nan, 1.) ] } ])

let test_plot_degenerate_range () =
  (* A single point must still render without dividing by zero. *)
  let chart =
    Ascii_plot.render ~width:10 ~height:3
      [ { Ascii_plot.label = "p"; points = [ (1., 1.) ] } ]
  in
  Alcotest.(check bool) "renders" true (String.contains chart '*')

let test_plot_multiple_glyphs () =
  let chart =
    Ascii_plot.render ~width:20 ~height:5
      [
        { Ascii_plot.label = "a"; points = [ (0., 0.) ] };
        { Ascii_plot.label = "b"; points = [ (1., 1.) ] };
      ]
  in
  Alcotest.(check bool) "both glyphs" true
    (String.contains chart '*' && String.contains chart '+')

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_moments_mean_in_range =
  QCheck.Test.make ~name:"moments mean lies within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.) 1000.))
    (fun xs ->
      let m = Moments.create () in
      List.iter (Moments.add m) xs;
      Moments.mean m >= Moments.min m -. 1e-9
      && Moments.mean m <= Moments.max m +. 1e-9)

let prop_merge_commutes =
  QCheck.Test.make ~name:"moments merge is commutative" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 20) (float_range (-100.) 100.))
        (list_of_size Gen.(int_range 1 20) (float_range (-100.) 100.)))
    (fun (xs, ys) ->
      let build l =
        let m = Moments.create () in
        List.iter (Moments.add m) l;
        m
      in
      let ab = Moments.merge (build xs) (build ys) in
      let ba = Moments.merge (build ys) (build xs) in
      abs_float (Moments.mean ab -. Moments.mean ba) < 1e-6
      && abs_float (Moments.variance ab -. Moments.variance ba) < 1e-6)

let prop_variate_nonnegative =
  QCheck.Test.make ~name:"all variates are non-negative" ~count:200
    QCheck.(pair (int_range 1 4) (float_range 0.01 100.))
    (fun (kind, mean) ->
      let d =
        match kind with
        | 1 -> Variate.Exponential mean
        | 2 -> Variate.Deterministic mean
        | 3 -> Variate.Erlang (3, mean)
        | _ -> Variate.Uniform (0., mean)
      in
      let rng = Prng.create ~seed:(int_of_float (mean *. 1000.)) () in
      let ok = ref true in
      for _ = 1 to 50 do
        if Variate.draw d rng < 0. then ok := false
      done;
      !ok)

let prop_discrete_in_range =
  QCheck.Test.make ~name:"discrete index within bounds" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_range 0.01 10.))
    (fun ws ->
      let weights = Array.of_list ws in
      let rng = Prng.create ~seed:(List.length ws) () in
      let i = Lattol_stats.Variate.discrete rng weights in
      i >= 0 && i < Array.length weights)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lattol_stats"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "float moments" `Quick test_prng_float_moments;
          Alcotest.test_case "int uniform" `Quick test_prng_int_uniform;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "split reproducible" `Quick
            test_prng_split_reproducible;
          Alcotest.test_case "split non-overlapping" `Slow
            test_prng_split_nonoverlapping;
          Alcotest.test_case "split uncorrelated" `Slow
            test_prng_split_uncorrelated;
          Alcotest.test_case "split order-independent" `Quick
            test_prng_split_order_independent;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "recorded outputs" `Quick test_prng_recorded_outputs;
        ] );
      ( "variate",
        [
          Alcotest.test_case "exponential" `Quick test_variate_exponential;
          Alcotest.test_case "deterministic" `Quick test_variate_deterministic;
          Alcotest.test_case "uniform" `Quick test_variate_uniform;
          Alcotest.test_case "erlang" `Quick test_variate_erlang;
          Alcotest.test_case "hyperexp" `Quick test_variate_hyperexp;
          Alcotest.test_case "validate" `Quick test_variate_validate;
          Alcotest.test_case "discrete" `Quick test_discrete_distribution;
          Alcotest.test_case "discrete zero weights" `Quick test_discrete_zero_weights;
          Alcotest.test_case "geometric truncated" `Quick test_geometric_trunc;
        ] );
      ( "moments",
        [
          Alcotest.test_case "basic" `Quick test_moments_basic;
          Alcotest.test_case "empty" `Quick test_moments_empty;
          Alcotest.test_case "weighted" `Quick test_moments_weighted;
          Alcotest.test_case "merge" `Quick test_moments_merge;
          Alcotest.test_case "negative weight" `Quick test_moments_negative_weight;
          Alcotest.test_case "recorded bits" `Quick test_moments_recorded_bits;
        ] );
      ( "confidence",
        [
          Alcotest.test_case "t quantile" `Quick test_t_quantile;
          Alcotest.test_case "interval coverage" `Slow test_interval_coverage;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "basic" `Quick test_histogram_basic;
          Alcotest.test_case "quantile" `Quick test_histogram_quantile;
          Alcotest.test_case "quantile edges" `Quick
            test_histogram_quantile_edges;
          Alcotest.test_case "bounds" `Quick test_histogram_bounds;
        ] );
      ( "ascii-plot",
        [
          Alcotest.test_case "renders" `Quick test_plot_renders;
          Alcotest.test_case "empty" `Quick test_plot_empty;
          Alcotest.test_case "degenerate range" `Quick test_plot_degenerate_range;
          Alcotest.test_case "multiple glyphs" `Quick test_plot_multiple_glyphs;
        ] );
      ( "properties",
        qcheck
          [
            prop_moments_mean_in_range;
            prop_merge_commutes;
            prop_variate_nonnegative;
            prop_discrete_in_range;
          ] );
    ]
