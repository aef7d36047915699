(* Phase 2: assemble the per-unit summaries into one program, compute the
   parallel and hot regions by reachability over the call graph, and
   evaluate the whole-program rules. *)

module Smap = Map.Make (String)
module Sset = Set.Make (String)

type program = {
  fns : Callgraph.fn Smap.t;          (* id -> node (duplicates merged) *)
  globals : Mutstate.global Smap.t;   (* id -> global *)
  exports : Callgraph.export list;
  used : Sset.t;  (* "Unit.path" named by some other unit *)
  passed : Sset.t option Smap.t;
      (* export id -> the labels some application passes it, [None]
         when one may pass any *)
}

(* Every path a unit names, calls and {!Callgraph.t.uses} alike, that
   starts with another unit's name. *)
let uses summaries =
  List.fold_left
    (fun acc (s : Callgraph.t) ->
      let add acc path =
        match String.index_opt path '.' with
        | Some i when String.sub path 0 i <> s.unit_name -> Sset.add path acc
        | _ -> acc
      in
      let acc = List.fold_left add acc s.uses in
      List.fold_left
        (fun acc (f : Callgraph.fn) ->
          List.fold_left (fun acc (path, _) -> add acc path) acc f.calls)
        acc s.fns)
    Sset.empty summaries

(* Every label each unit's applications pass to an export, keyed by both
   ids a callee path may resolve to: a definition of the applying unit,
   or another unit's. *)
let passes exports summaries =
  let ids =
    Sset.of_list (List.map (fun (e : Callgraph.export) -> e.e_id) exports)
  in
  List.fold_left
    (fun acc (s : Callgraph.t) ->
      List.fold_left
        (fun acc (p : Callgraph.pass) ->
          let add acc id =
            if not (Sset.mem id ids) then acc
            else
              let labels =
                match (Smap.find_opt id acc, p.labels) with
                | Some None, _ | _, None -> None
                | Some (Some seen), Some ls ->
                  Some (List.fold_right Sset.add ls seen)
                | None, Some ls -> Some (Sset.of_list ls)
              in
              Smap.add id labels acc
          in
          add (add acc (s.unit_name ^ "." ^ p.callee)) p.callee)
        acc s.passes)
    Smap.empty summaries

let build ?(exports = []) summaries globals =
  let fns =
    List.fold_left
      (fun m (s : Callgraph.t) ->
        List.fold_left
          (fun m (f : Callgraph.fn) ->
            match Smap.find_opt f.id m with
            | None -> Smap.add f.id f m
            | Some prev ->
              (* duplicate unit names (or shadowed bindings): merge the
                 edges and events so reachability stays an
                 over-approximation *)
              Smap.add f.id
                {
                  prev with
                  calls = prev.calls @ f.calls;
                  events = prev.events @ f.events;
                  hot = prev.hot || f.hot;
                  par_root = prev.par_root || f.par_root;
                }
                m)
          m s.Callgraph.fns)
      Smap.empty summaries
  in
  let globals =
    List.fold_left
      (fun m (g : Mutstate.global) -> Smap.add g.Mutstate.id g m)
      Smap.empty globals
  in
  { fns; globals; exports; used = uses summaries;
    passed = passes exports summaries }

(* Resolve a reference [path] made by [f]: a definition in an enclosing
   nested module shadows one further out (innermost first), and one in
   the referencing unit shadows a unit of the same name. *)
let resolve_in tbl (f : Callgraph.fn) path =
  let readings =
    List.map (fun scope -> f.unit_name ^ "." ^ scope ^ path) f.scopes
    @ [ f.unit_name ^ "." ^ path; path ]
  in
  List.find_opt (fun id -> Smap.mem id tbl) readings

let resolve_fn p f path = resolve_in p.fns f path
let resolve_global p f path = resolve_in p.globals f path

(* ------------------------------------------------------------------ *)
(* Reachability.  Pure worklist closure over an explicit edge list —
   exposed for the property tests (determinism, monotonicity). *)

let closure ~edges ~roots =
  let adj =
    List.fold_left
      (fun m (src, dsts) ->
        let prev = Option.value ~default:[] (Smap.find_opt src m) in
        Smap.add src (prev @ dsts) m)
      Smap.empty edges
  in
  let rec go seen = function
    | [] -> seen
    | n :: rest ->
      if Sset.mem n seen then go seen rest
      else
        let seen = Sset.add n seen in
        let next = Option.value ~default:[] (Smap.find_opt n adj) in
        go seen (next @ rest)
  in
  Sset.elements (go Sset.empty roots)

let edges_of p =
  Smap.fold
    (fun id (f : Callgraph.fn) acc ->
      let dsts =
        List.filter_map
          (fun (path, _) -> resolve_fn p f path)
          f.calls
      in
      (id, List.sort_uniq String.compare dsts) :: acc)
    p.fns []
  |> List.rev

let region p ~roots = Sset.of_list (closure ~edges:(edges_of p) ~roots)

let parallel_roots p =
  Smap.fold
    (fun id (f : Callgraph.fn) acc -> if f.par_root then id :: acc else acc)
    p.fns []
  |> List.rev

let hot_roots p =
  Smap.fold
    (fun id (f : Callgraph.fn) acc -> if f.hot then id :: acc else acc)
    p.fns []
  |> List.rev

let parallel_region p = region p ~roots:(parallel_roots p)
let hot_region p = region p ~roots:(hot_roots p)

(* ------------------------------------------------------------------ *)
(* Rule evaluation *)

type reporter =
  rule:string ->
  file:string ->
  pos:Callgraph.pos ->
  message:string ->
  unit

let in_region region (f : Callgraph.fn) = Sset.mem f.id region

(* Pretty name for a region member in messages: strip synthetic suffixes. *)
let root_name id =
  match String.index_opt id '!' with
  | Some i when i > 0 && id.[i - 1] = '.' -> String.sub id 0 (i - 1)
  | Some i -> String.sub id 0 i
  | None -> id

let shared_kinds_hazard (g : Mutstate.global) =
  (not g.protected) && g.kind <> Mutstate.Prng

(* Globals mutated anywhere in the program (by any function, parallel or
   not), used by the read-write rule: a region read races with a main-
   domain write just as much as with a region write. *)
let mutated_anywhere p =
  Smap.fold
    (fun _ (f : Callgraph.fn) acc ->
      List.fold_left
        (fun acc (ev, _) ->
          match ev with
          | Callgraph.Mutate { target; _ } -> (
            match resolve_global p f target with
            | Some id -> Sset.add id acc
            | None -> acc)
          | _ -> acc)
        acc f.events)
    p.fns Sset.empty

let analyze p ~enabled ~(report : reporter) =
  if enabled "dead-export" then
    List.iter
      (fun (e : Callgraph.export) ->
        if not (Sset.mem e.e_id p.used) then
          report ~rule:"dead-export" ~file:e.e_file ~pos:e.e_pos
            ~message:
              (Printf.sprintf "%s is exported but no other unit uses it"
                 e.e_id))
      p.exports;
  if enabled "dead-option" then
    List.iter
      (fun (e : Callgraph.export) ->
        let passed l =
          match Smap.find_opt e.e_id p.passed with
          | Some None -> true
          | Some (Some ls) -> Sset.mem l ls
          | None -> false
        in
        List.iter
          (fun (l, pos) ->
            if not (passed l) then
              report ~rule:"dead-option" ~file:e.e_file ~pos
                ~message:
                  (Printf.sprintf "%s takes ?%s but no application passes it"
                     e.e_id l))
          e.e_opts)
      p.exports;
  let par = parallel_region p in
  let hot = hot_region p in
  let writers = mutated_anywhere p in
  let fire rule (f : Callgraph.fn) pos fmt =
    Printf.ksprintf
      (fun message ->
        if enabled rule then
          report ~rule ~file:f.Callgraph.file ~pos ~message)
      fmt
  in
  Smap.iter
    (fun _ (f : Callgraph.fn) ->
      let fn_in_par = in_region par f in
      let fn_in_hot = in_region hot f in
      List.iter
        (fun (ev, pos) ->
          match ev with
          | Callgraph.Mutate { target; under_lock } when fn_in_par -> (
            match resolve_global p f target with
            | Some gid ->
              let g = Smap.find gid p.globals in
              if shared_kinds_hazard g && not under_lock then
                fire "dom-shared-mutation" f pos
                  "toplevel %s %s is mutated from the parallel region \
                   (via %s) without Atomic/Mutex.protect"
                  (Mutstate.kind_name g.kind) g.id (root_name f.id)
            | None -> ())
          | Callgraph.Read { target; under_lock } when fn_in_par -> (
            match resolve_global p f target with
            | Some gid ->
              let g = Smap.find gid p.globals in
              if
                shared_kinds_hazard g && (not under_lock)
                && Sset.mem gid writers
              then
                fire "dom-unprotected-read-write" f pos
                  "toplevel %s %s is read in the parallel region (via %s) \
                   while also being mutated elsewhere"
                  (Mutstate.kind_name g.kind) g.id (root_name f.id)
            | None -> ())
          | Callgraph.Prng_draw { op; target } when fn_in_par -> (
            match target with
            | None -> ()
            | Some t -> (
              match resolve_global p f t with
              | Some gid ->
                let g = Smap.find gid p.globals in
                if g.kind = Mutstate.Prng then
                  fire "det-prng-unsplit" f pos
                    "Prng.%s draws from the shared toplevel stream %s \
                     inside the parallel region" op g.id
              | None -> ()))
          | Callgraph.Alloc { what; in_loop } when fn_in_hot && f.arity > 0 ->
            (* On the annotated root itself only loop-body allocations
               are per-iteration; in a transitive callee every
               allocation repeats with the calling loop.  Zero-arity
               bindings are constants evaluated once at module init, so
               reaching one through the call graph is not a hot
               allocation. *)
            if in_loop || not f.hot then
              fire "hot-alloc" f pos
                "%s allocated %s in the hot region (%s)" what
                (if in_loop then "per iteration" else "per call")
                (root_name f.id)
          | Callgraph.Partial { callee; given } when fn_in_hot -> (
            match resolve_fn p f callee with
            | Some cid ->
              let c = Smap.find cid p.fns in
              if
                c.Callgraph.arity > given && given > 0
                && not c.Callgraph.keyword_args
              then
                fire "hot-alloc" f pos
                  "partial application of %s (%d of %d arguments) \
                   allocates a closure per iteration" cid given
                  c.Callgraph.arity
            | None -> ())
          | _ -> ())
        f.events)
    p.fns
