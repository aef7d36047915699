exception Too_many_rows of int

let incidence net =
  let np = Petri.num_places net and nt = Petri.num_transitions net in
  let c = Array.make_matrix np nt 0 in
  for tr = 0 to nt - 1 do
    Array.iter
      (fun (p, mult) -> c.(p).(tr) <- c.(p).(tr) - mult)
      (Petri.inputs net tr);
    Array.iter
      (fun (p, mult) -> c.(p).(tr) <- c.(p).(tr) + mult)
      (Petri.outputs net tr)
  done;
  c

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let normalize row =
  let g = Array.fold_left (fun acc v -> gcd acc v) 0 row in
  if g > 1 then Array.map (fun v -> v / g) row else row

(* Support-minimality filter: drop vectors whose support strictly contains
   another vector's support. *)
let minimal_support rows =
  let support row =
    let acc = ref [] in
    Array.iteri (fun i v -> if v <> 0 then acc := i :: !acc) row;
    !acc
  in
  let with_support = List.map (fun r -> (r, support r)) rows in
  List.filter_map
    (fun (r, s) ->
      let strictly_contains_other =
        List.exists
          (fun (r', s') ->
            r != r'
            && List.length s' < List.length s
            && List.for_all (fun p -> List.mem p s) s')
          with_support
      in
      if strictly_contains_other then None else Some r)
    with_support

(* Farkas elimination on an [n x m] integer matrix: returns the minimal
   non-negative integer combinations of rows that cancel every column. *)
let farkas ~max_rows matrix =
  let n = Array.length matrix in
  let m = if n = 0 then 0 else Array.length matrix.(0) in
  let rows =
    ref
      (List.init n (fun i ->
           let w = Array.make n 0 in
           w.(i) <- 1;
           (w, Array.copy matrix.(i))))
  in
  for tr = 0 to m - 1 do
    let zero = ref [] and pos = ref [] and neg = ref [] in
    List.iter
      (fun ((_, residual) as row) ->
        if residual.(tr) = 0 then zero := row :: !zero
        else if residual.(tr) > 0 then pos := row :: !pos
        else neg := row :: !neg)
      !rows;
    let combined = ref !zero in
    List.iter
      (fun (wp, rp) ->
        List.iter
          (fun (wn, rn) ->
            let a = -rn.(tr) and b = rp.(tr) in
            let w = Array.init n (fun i -> (a * wp.(i)) + (b * wn.(i))) in
            let r = Array.init m (fun j -> (a * rp.(j)) + (b * rn.(j))) in
            (* Normalize jointly so the weight/residual pair stays
               consistent. *)
            let g =
              Array.fold_left gcd (Array.fold_left gcd 0 w) r
            in
            let w, r =
              if g > 1 then
                (Array.map (fun v -> v / g) w, Array.map (fun v -> v / g) r)
              else (w, r)
            in
            combined := (w, r) :: !combined)
          !neg)
      !pos;
    (* Deduplicate identical rows to curb growth. *)
    let tbl = Hashtbl.create (List.length !combined * 2) in
    let unique =
      List.filter
        (fun (w, _) ->
          if Hashtbl.mem tbl w then false
          else begin
            Hashtbl.replace tbl w ();
            true
          end)
        !combined
    in
    if List.length unique > max_rows then
      raise (Too_many_rows (List.length unique));
    rows := unique
  done;
  let flows =
    List.filter_map
      (fun (w, _) ->
        if Array.exists (fun v -> v <> 0) w then Some (normalize w) else None)
      !rows
  in
  minimal_support flows

let p_semiflows ?(max_rows = 20_000) net = farkas ~max_rows (incidence net)

let t_semiflows net =
  let c = incidence net in
  let np = Petri.num_places net and nt = Petri.num_transitions net in
  let transposed =
    Array.init nt (fun tr -> Array.init np (fun p -> c.(p).(tr)))
  in
  farkas ~max_rows:20_000 transposed

let reproduces_marking net ~firings =
  if Array.length firings <> Petri.num_transitions net then
    invalid_arg "Invariants.reproduces_marking: size mismatch";
  let c = incidence net in
  let ok = ref true in
  for p = 0 to Petri.num_places net - 1 do
    let acc = ref 0 in
    Array.iteri (fun tr count -> acc := !acc + (c.(p).(tr) * count)) firings;
    if !acc <> 0 then ok := false
  done;
  !ok

let conserved_total net ~weights =
  if Array.length weights <> Petri.num_places net then
    invalid_arg "Invariants.conserved_total: weight size mismatch";
  let marking = Petri.initial_marking net in
  let acc = ref 0 in
  Array.iteri (fun p w -> acc := !acc + (w * marking.(p))) weights;
  !acc

let covers flows ~place =
  List.exists (fun w -> w.(place) > 0) flows
