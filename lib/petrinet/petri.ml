type place = int

type transition = int

type timing =
  | Immediate of float
  | Timed of Lattol_stats.Variate.t
  | Timed_infinite of Lattol_stats.Variate.t

type t = {
  place_names : string array;
  initial : int array;
  transition_names : string array;
  timings : timing array;
  inputs : (place * int) array array;
  outputs : (place * int) array array;
  consumers : transition array array;
}

module Builder = struct
  type net = t

  type t = {
    mutable places : (string * int) list;  (* reversed *)
    mutable num_places : int;
    mutable transitions :
      (string * timing * (place * int) list * (place * int) list) list;
    mutable num_transitions : int;
  }

  let create () =
    { places = []; num_places = 0; transitions = []; num_transitions = 0 }

  let add_place b ?(initial = 0) name =
    if initial < 0 then invalid_arg "Petri.Builder.add_place: negative marking";
    b.places <- (name, initial) :: b.places;
    b.num_places <- b.num_places + 1;
    b.num_places - 1

  let check_arcs b kind arcs =
    if arcs = [] && kind = "input" then
      invalid_arg "Petri.Builder.add_transition: no input arcs";
    List.iter
      (fun (p, mult) ->
        if p < 0 || p >= b.num_places then
          Format.kasprintf invalid_arg
            "Petri.Builder.add_transition: %s arc to unknown place %d" kind p;
        if mult < 1 then
          invalid_arg "Petri.Builder.add_transition: arc multiplicity >= 1")
      arcs

  let add_transition b name timing ~inputs ~outputs =
    check_arcs b "input" inputs;
    check_arcs b "output" outputs;
    (match timing with
    | Immediate w when w <= 0. ->
      invalid_arg "Petri.Builder.add_transition: weight must be > 0"
    | Timed d | Timed_infinite d ->
      (match Lattol_stats.Variate.validate d with
      | Ok () -> ()
      | Error msg -> invalid_arg ("Petri.Builder.add_transition: " ^ msg))
    | Immediate _ -> ());
    b.transitions <- (name, timing, inputs, outputs) :: b.transitions;
    b.num_transitions <- b.num_transitions + 1;
    b.num_transitions - 1

  let build b =
    let places = Array.of_list (List.rev b.places) in
    let transitions = Array.of_list (List.rev b.transitions) in
    let consumer_lists = Array.make (Array.length places) [] in
    Array.iteri
      (fun t (_, _, ins, _) ->
        List.iter
          (fun (p, _) ->
            match consumer_lists.(p) with
            | t' :: _ when t' = t -> ()
            | l -> consumer_lists.(p) <- t :: l)
          ins)
      transitions;
    {
      place_names = Array.map fst places;
      initial = Array.map snd places;
      transition_names = Array.map (fun (n, _, _, _) -> n) transitions;
      timings = Array.map (fun (_, tm, _, _) -> tm) transitions;
      inputs = Array.map (fun (_, _, i, _) -> Array.of_list i) transitions;
      outputs = Array.map (fun (_, _, _, o) -> Array.of_list o) transitions;
      consumers =
        Array.map (fun l -> Array.of_list (List.rev l)) consumer_lists;
    }
end

let num_places t = Array.length t.place_names

let num_transitions t = Array.length t.transition_names

let place_name t p = t.place_names.(p)

let transition_name t tr = t.transition_names.(tr)

let timing t tr = t.timings.(tr)

let inputs t tr = t.inputs.(tr)

let outputs t tr = t.outputs.(tr)

let initial_marking t = Array.copy t.initial

let consumers t p = t.consumers.(p)

(* The simulator tests enabling on every refresh, so both tests are
   top-level loops: a closure over [marking] would be allocated per call. *)
let rec marked marking arcs i =
  i = Array.length arcs
  ||
  let p, mult = arcs.(i) in
  marking.(p) >= mult && marked marking arcs (i + 1)

let enabled t ~marking tr = marked marking t.inputs.(tr) 0

let rec degree marking arcs i acc =
  if i = Array.length arcs then acc
  else
    let p, mult = arcs.(i) in
    let d = marking.(p) / mult in
    degree marking arcs (i + 1) (if d < acc then d else acc)

let enabling_degree t ~marking tr = degree marking t.inputs.(tr) 0 max_int

let fire t ~marking tr =
  if not (enabled t ~marking tr) then
    Format.kasprintf invalid_arg "Petri.fire: %s not enabled"
      t.transition_names.(tr);
  Array.iter (fun (p, mult) -> marking.(p) <- marking.(p) - mult) t.inputs.(tr);
  Array.iter (fun (p, mult) -> marking.(p) <- marking.(p) + mult) t.outputs.(tr)

let token_delta t tr ~weights =
  if Array.length weights <> num_places t then
    invalid_arg "Petri.token_delta: weight vector size mismatch";
  let acc = ref 0. in
  Array.iter
    (fun (p, mult) -> acc := !acc -. (weights.(p) *. float_of_int mult))
    t.inputs.(tr);
  Array.iter
    (fun (p, mult) -> acc := !acc +. (weights.(p) *. float_of_int mult))
    t.outputs.(tr);
  !acc

let is_invariant t ~weights =
  let ok = ref true in
  for tr = 0 to num_transitions t - 1 do
    if abs_float (token_delta t tr ~weights) > 1e-9 then ok := false
  done;
  !ok

let pp ppf t =
  Fmt.pf ppf "@[STPN: %d places, %d transitions (%d immediate)@]"
    (num_places t) (num_transitions t)
    (Array.fold_left
       (fun acc tm ->
         match tm with Immediate _ -> acc + 1 | Timed _ | Timed_infinite _ -> acc)
       0 t.timings)
