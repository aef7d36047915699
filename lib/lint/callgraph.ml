open Parsetree

type pos = { line : int; col : int; offset : int }

let pos_of (loc : Location.t) =
  let p = loc.loc_start in
  { line = p.pos_lnum; col = p.pos_cnum - p.pos_bol; offset = p.pos_cnum }

type event =
  | Mutate of { target : string; under_lock : bool }
  | Read of { target : string; under_lock : bool }
  | Prng_draw of { op : string; target : string option }
  | Alloc of { what : string; in_loop : bool }
  | Partial of { callee : string; given : int }

type fn = {
  id : string;
  unit_name : string;
  scopes : string list;
  file : string;
  pos : pos;
  arity : int;
  keyword_args : bool;
  hot : bool;
  par_root : bool;
  calls : (string * pos) list;
  events : (event * pos) list;
}

type pass = { callee : string; labels : string list option }

type t = {
  unit_name : string;
  file : string;
  fns : fn list;
  uses : string list;
  passes : pass list;
}

type export = {
  e_id : string;
  e_file : string;
  e_pos : pos;
  e_opts : (string * pos) list;
}

(* ------------------------------------------------------------------ *)
(* Path resolution: syntactic value paths, normalized so that the same
   function is named identically from inside its unit, from a sibling
   unit (M.f), and from another library (Lattol_x.M.f or through a
   [module Alias = ...]).  Resolution is a heuristic over-approximation:
   an unresolvable path simply produces no edge. *)

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply _ -> []

let is_library_wrapper s =
  String.length s > 7 && String.sub s 0 7 = "Lattol_"

let normalize aliases segs =
  let segs =
    match segs with
    | ("Stdlib" | "Pervasives") :: (_ :: _ as rest) -> rest
    | l -> l
  in
  let segs =
    match segs with
    | a :: rest -> (
      match List.assoc_opt a aliases with
      | Some prefix -> prefix @ rest
      | None -> segs)
    | [] -> []
  in
  match segs with
  | w :: (_ :: _ as rest) when is_library_wrapper w -> rest
  | l -> l

let path_of aliases e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match normalize aliases (flatten txt) with
    | [] -> None
    | segs -> Some (String.concat "." segs))
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Classification tables *)

let spawn_point = function
  | [ "Domain"; "spawn" ] -> true
  | [ "Pool"; ("map" | "map_ctx" | "map_local" | "map_list" | "run") ]
  | [ "Journal"; "map" ] -> true
  | _ -> false

(* (path, role list): which positional argument (0-based, Nolabel only)
   is mutated / read by a call to this function. *)
let mutating_calls =
  [
    ([ ":=" ], [ 0 ]);
    ([ "incr" ], [ 0 ]);
    ([ "decr" ], [ 0 ]);
    ([ "Hashtbl"; "replace" ], [ 0 ]);
    ([ "Hashtbl"; "add" ], [ 0 ]);
    ([ "Hashtbl"; "remove" ], [ 0 ]);
    ([ "Hashtbl"; "reset" ], [ 0 ]);
    ([ "Hashtbl"; "clear" ], [ 0 ]);
    ([ "Hashtbl"; "filter_map_inplace" ], [ 0 ]);
    ([ "Buffer"; "add_string" ], [ 0 ]);
    ([ "Buffer"; "add_char" ], [ 0 ]);
    ([ "Buffer"; "add_substring" ], [ 0 ]);
    ([ "Buffer"; "add_buffer" ], [ 0 ]);
    ([ "Buffer"; "clear" ], [ 0 ]);
    ([ "Buffer"; "reset" ], [ 0 ]);
    ([ "Buffer"; "truncate" ], [ 0 ]);
    ([ "Queue"; "add" ], [ 0 ]);
    ([ "Queue"; "push" ], [ 0 ]);
    ([ "Queue"; "pop" ], [ 0 ]);
    ([ "Queue"; "take" ], [ 0 ]);
    ([ "Queue"; "clear" ], [ 0 ]);
    ([ "Queue"; "transfer" ], [ 0; 1 ]);
    ([ "Stack"; "push" ], [ 1 ]);
    ([ "Stack"; "pop" ], [ 0 ]);
    ([ "Stack"; "clear" ], [ 0 ]);
    ([ "Array"; "set" ], [ 0 ]);
    ([ "Array"; "unsafe_set" ], [ 0 ]);
    ([ "Array"; "fill" ], [ 0 ]);
    ([ "Array"; "blit" ], [ 2 ]);
    ([ "Bytes"; "set" ], [ 0 ]);
  ]

let reading_calls =
  [
    ([ "!" ], [ 0 ]);
    ([ "Hashtbl"; "find" ], [ 0 ]);
    ([ "Hashtbl"; "find_opt" ], [ 0 ]);
    ([ "Hashtbl"; "find_all" ], [ 0 ]);
    ([ "Hashtbl"; "mem" ], [ 0 ]);
    ([ "Hashtbl"; "length" ], [ 0 ]);
    ([ "Hashtbl"; "fold" ], [ 1 ]);
    ([ "Hashtbl"; "iter" ], [ 1 ]);
    ([ "Hashtbl"; "copy" ], [ 0 ]);
    ([ "Queue"; "length" ], [ 0 ]);
    ([ "Queue"; "peek" ], [ 0 ]);
    ([ "Queue"; "top" ], [ 0 ]);
    ([ "Queue"; "is_empty" ], [ 0 ]);
    ([ "Queue"; "iter" ], [ 1 ]);
    ([ "Queue"; "fold" ], [ 2 ]);
    ([ "Buffer"; "contents" ], [ 0 ]);
    ([ "Buffer"; "length" ], [ 0 ]);
    ([ "Buffer"; "nth" ], [ 0 ]);
    ([ "Buffer"; "sub" ], [ 0 ]);
    ([ "Stack"; "top" ], [ 0 ]);
    ([ "Stack"; "length" ], [ 0 ]);
    ([ "Stack"; "is_empty" ], [ 0 ]);
    ([ "Array"; "get" ], [ 0 ]);
    ([ "Array"; "unsafe_get" ], [ 0 ]);
    ([ "Array"; "length" ], [ 0 ]);
    ([ "Array"; "to_list" ], [ 0 ]);
    ([ "Array"; "copy" ], [ 0 ]);
    ([ "Array"; "iter" ], [ 1 ]);
    ([ "Array"; "fold_left" ], [ 2 ]);
  ]

let prng_draws = [ "float"; "float_pos"; "int"; "bool"; "bits64" ]

(* Applications that allocate their result on every call. *)
let allocating_calls =
  [
    ([ "ref" ], "ref cell");
    ([ "Array"; "make" ], "array");
    ([ "Array"; "init" ], "array");
    ([ "Array"; "make_matrix" ], "array matrix");
    ([ "Array"; "append" ], "array");
    ([ "Array"; "copy" ], "array");
    ([ "Array"; "sub" ], "array");
    ([ "Array"; "of_list" ], "array");
    ([ "Array"; "to_list" ], "list");
    ([ "Bytes"; "create" ], "bytes buffer");
    ([ "Bytes"; "make" ], "bytes buffer");
    ([ "List"; "init" ], "list");
    ([ "List"; "map" ], "list");
    ([ "List"; "mapi" ], "list");
    ([ "List"; "append" ], "list");
    ([ "List"; "rev" ], "list");
    ([ "List"; "concat" ], "list");
    ([ "List"; "filter" ], "list");
    ([ "List"; "filter_map" ], "list");
    ([ "Hashtbl"; "create" ], "hash table");
    ([ "Buffer"; "create" ], "buffer");
    ([ "^" ], "string");
    ([ "String"; "concat" ], "string");
    ([ "Printf"; "sprintf" ], "string");
    ([ "Format"; "asprintf" ], "string");
  ]

(* Higher-order iterators: a [fun] literal passed to one of these runs
   once per element, so its body is loop context. *)
let iterator_hof = function
  | [ ("List" | "Array" | "Seq" | "Float" | "Queue"); f ]
  | [ "Float"; "Array"; f ]
  | [ f ] when
      List.mem f
        [ "iter"; "iteri"; "map"; "mapi"; "fold_left"; "fold_right";
          "init"; "for_all"; "exists"; "filter"; "filter_map";
          "concat_map"; "fold" ] ->
    true
  | [ "Hashtbl"; ("iter" | "fold" | "filter_map_inplace") ] -> true
  | _ -> false

let has_attr name attrs =
  List.exists (fun (a : attribute) -> a.attr_name.txt = name) attrs

(* ------------------------------------------------------------------ *)
(* Per-function collection *)

type state = {
  unit_name : string;
  file : string;
  mutable aliases : (string * string list) list;
  mutable opens : string list list;  (* modules opened in scope *)
  mutable scopes : string list;
      (* enclosing nested modules as path prefixes ("A.B."), innermost
         first *)
  uses : string list ref;  (* names used without a call edge, reverse order *)
  passes : pass list ref;  (* reverse order *)
  out : fn list ref;  (* completed nodes, reverse order *)
}

type coll = {
  mutable calls : (string * pos) list;
  mutable events : (event * pos) list;
  mutable lock_depth : int;
  mutable loop_depth : int;
  mutable par_count : int;
  mutable cons_depth : int;  (* inside a :: spine: record one event per list *)
}

let new_coll () =
  { calls = []; events = []; lock_depth = 0; loop_depth = 0;
    par_count = 0; cons_depth = 0 }

let finish st coll ~id ~pos ~arity ~keyword_args ~hot ~par_root =
  st.out :=
    {
      id;
      unit_name = st.unit_name;
      scopes = st.scopes;
      file = st.file;
      pos;
      arity;
      keyword_args;
      hot;
      par_root;
      calls = List.rev coll.calls;
      events = List.rev coll.events;
    }
    :: !(st.out)

let nolabel_args args =
  List.filter_map
    (fun (l, a) -> match l with Asttypes.Nolabel -> Some a | _ -> None)
    args

let is_name s =
  s <> "" && (s.[0] = '_' || (s.[0] >= 'a' && s.[0] <= 'z')
              || (s.[0] >= 'A' && s.[0] <= 'Z'))

(* The labels an application passes ([~l] or [?l]), or [None] when it
   may pass any: with no positional argument it can be a partial
   application whose result takes the rest. *)
let passed_labels args =
  if List.exists (fun (l, _) -> l = Asttypes.Nolabel) args then
    Some
      (List.filter_map
         (fun (l, _) ->
           match l with
           | Asttypes.Labelled s | Asttypes.Optional s -> Some s
           | Asttypes.Nolabel -> None)
         args)
  else None

(* Record that [raw] is applied with [labels] ([None]: referenced as a
   value, so any label).  Every reading of the name counts, so
   dead-option stays quiet: each enclosing nested module's, and the
   [M.]-qualified one under each [open M]. *)
let note_pass st raw labels =
  let add segs =
    if segs <> [] then begin
      let path = String.concat "." segs in
      List.iter
        (fun callee -> st.passes := { callee; labels } :: !(st.passes))
        (path :: List.map (fun scope -> scope ^ path) st.scopes)
    end
  in
  if labels <> Some [] && raw <> [] && is_name (List.hd raw) then begin
    add (normalize st.aliases raw);
    List.iter (fun o -> add (normalize st.aliases (o @ raw))) st.opens
  end

let rec walk st coll e =
  let loc = pos_of e.pexp_loc in
  let alloc what =
    coll.events <-
      (Alloc { what; in_loop = coll.loop_depth > 0 }, loc) :: coll.events
  in
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
    note_pass st (flatten txt) None;
    walk_ident st coll txt loc
  | Pexp_apply (fn, args) -> walk_apply st coll e fn args
  | Pexp_fun _ | Pexp_function _ ->
    (* one closure per curried group: [fun a b -> e] is a single
       allocation, so the nested parameters are peeled without
       re-recording *)
    alloc "closure";
    walk_fn_parts st coll e
  | Pexp_for (pat, lo, hi, _, body) ->
    walk_pat st coll pat;
    walk st coll lo;
    walk st coll hi;
    coll.loop_depth <- coll.loop_depth + 1;
    walk st coll body;
    coll.loop_depth <- coll.loop_depth - 1
  | Pexp_while (cond, body) ->
    walk st coll cond;
    coll.loop_depth <- coll.loop_depth + 1;
    walk st coll body;
    coll.loop_depth <- coll.loop_depth - 1
  | Pexp_tuple es ->
    alloc "tuple";
    List.iter (walk st coll) es
  | Pexp_record (fields, base) ->
    alloc "record";
    Option.iter (walk st coll) base;
    List.iter (fun (_, v) -> walk st coll v) fields
  | Pexp_array es ->
    alloc "array literal";
    List.iter (walk st coll) es
  | Pexp_lazy body ->
    alloc "lazy block";
    walk st coll body
  | Pexp_construct ({ txt = Longident.Lident "::"; _ }, Some arg) ->
    if coll.cons_depth = 0 then alloc "list";
    coll.cons_depth <- coll.cons_depth + 1;
    (* the tail (second tuple component) continues the spine; the head is
       a fresh context *)
    (match arg.pexp_desc with
    | Pexp_tuple [ hd; tl ] ->
      let d = coll.cons_depth in
      coll.cons_depth <- 0;
      walk st coll hd;
      coll.cons_depth <- d;
      walk st coll tl
    | _ -> walk st coll arg);
    coll.cons_depth <- coll.cons_depth - 1
  | Pexp_setfield (target, _, v) ->
    (match path_of st.aliases target with
    | Some t ->
      coll.events <-
        (Mutate { target = t; under_lock = coll.lock_depth > 0 }, loc)
        :: coll.events
    | None -> ());
    walk st coll target;
    walk st coll v
  | Pexp_field (target, _) ->
    (match path_of st.aliases target with
    | Some t ->
      coll.events <-
        (Read { target = t; under_lock = coll.lock_depth > 0 }, loc)
        :: coll.events
    | None -> ());
    walk st coll target
  | Pexp_let (_, vbs, body) ->
    List.iter (walk_binding st coll) vbs;
    walk st coll body
  | Pexp_match (scrut, cases) ->
    walk st coll scrut;
    List.iter (walk_case st coll) cases
  | Pexp_try (body, cases) ->
    walk st coll body;
    List.iter (walk_case st coll) cases
  | Pexp_ifthenelse (c, a, b) ->
    walk st coll c;
    walk st coll a;
    Option.iter (walk st coll) b
  | Pexp_sequence (a, b) ->
    walk st coll a;
    walk st coll b
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_newtype (_, e)
  | Pexp_letexception (_, e) ->
    walk st coll e
  | Pexp_open ({ popen_expr = { pmod_desc = Pmod_ident m; _ }; _ }, e) ->
    (* [M.( ... )] and [let open M in]: only a module path is followed *)
    let saved = st.opens in
    st.opens <- flatten m.txt :: saved;
    walk st coll e;
    st.opens <- saved
  | Pexp_open (_, e) -> walk st coll e
  | Pexp_letmodule ({ txt = Some name; _ }, { pmod_desc = Pmod_ident m; _ },
                    body) ->
    let saved = st.aliases in
    st.aliases <- (name, normalize st.aliases (flatten m.txt)) :: saved;
    walk st coll body;
    st.aliases <- saved
  | Pexp_letmodule (_, _, body) -> walk st coll body
  | Pexp_letop { let_; ands; body } ->
    List.iter (fun b -> walk st coll b.pbop_exp) (let_ :: ands);
    walk st coll body
  | Pexp_variant (_, arg) -> Option.iter (walk st coll) arg
  | Pexp_construct (_, arg) -> Option.iter (walk st coll) arg
  | Pexp_assert e | Pexp_send (e, _) -> walk st coll e
  | _ -> ()

and walk_ident st coll txt loc =
  let raw = flatten txt in
  (* Under [open M] a name may also be [M.name].  That reading is a
     use (dead-export stays quiet), never a call edge. *)
  if raw <> [] && is_name (List.hd raw) then
    List.iter
      (fun o ->
        st.uses :=
          String.concat "." (normalize st.aliases (o @ raw)) :: !(st.uses))
      st.opens;
  match normalize st.aliases raw with
  | [] -> ()
  | segs ->
    (* operators and module-path heads are never call edges to skip *)
    if is_name (List.hd segs) then
      coll.calls <- (String.concat "." segs, loc) :: coll.calls

and walk_pat _st _coll _p = ()

and walk_case st coll c =
  Option.iter (walk st coll) c.pc_guard;
  walk st coll c.pc_rhs

and walk_binding st coll vb =
  (* A nested [let[@lattol.hot] f ...] becomes its own node so a hot
     inner loop can be annotated without hoisting it to toplevel. *)
  if has_attr "lattol.hot" vb.pvb_attributes then begin
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt = name; _ } ->
      let id = st.unit_name ^ "." ^ name in
      collect_fn st ~id ~hot:true ~pos:(pos_of vb.pvb_loc) vb.pvb_expr;
      coll.calls <- (id, pos_of vb.pvb_loc) :: coll.calls
    | _ -> walk st coll vb.pvb_expr
  end
  else walk st coll vb.pvb_expr

and walk_apply st coll e fn args =
  let loc = pos_of e.pexp_loc in
  let fpath = Option.map (String.split_on_char '.')
      (path_of st.aliases fn) in
  let head = match fn.pexp_desc with
    | Pexp_ident { txt; _ } -> Some txt
    | _ -> None
  in
  Option.iter (fun txt -> note_pass st (flatten txt) (passed_labels args))
    head;
  match fpath with
  | Some p when spawn_point p ->
    (* Parallel root: everything in the argument list runs (or is
       captured) on pool/spawned domains.  Collect it as a synthetic
       root node hanging off the enclosing function. *)
    coll.par_count <- coll.par_count + 1;
    st.uses := String.concat "." p :: !(st.uses);
    let sub = new_coll () in
    List.iter (fun (_, a) -> walk st sub a) args;
    let id = par_id st loc in
    finish st sub ~id ~pos:loc ~arity:0 ~keyword_args:false ~hot:false
      ~par_root:true;
    coll.calls <- (id, loc) :: coll.calls
  | Some [ "Mutex"; "protect" ] ->
    coll.lock_depth <- coll.lock_depth + 1;
    List.iter (fun (_, a) -> walk st coll a) args;
    coll.lock_depth <- coll.lock_depth - 1
  | Some p ->
    let pos_args = nolabel_args args in
    let target i =
      match List.nth_opt pos_args i with
      | Some a -> path_of st.aliases a
      | None -> None
    in
    (match List.assoc_opt p mutating_calls with
    | Some idxs ->
      List.iter
        (fun i ->
          match target i with
          | Some t ->
            coll.events <-
              (Mutate { target = t; under_lock = coll.lock_depth > 0 }, loc)
              :: coll.events
          | None -> ())
        idxs
    | None -> ());
    (match List.assoc_opt p reading_calls with
    | Some idxs ->
      List.iter
        (fun i ->
          match target i with
          | Some t ->
            coll.events <-
              (Read { target = t; under_lock = coll.lock_depth > 0 }, loc)
              :: coll.events
          | None -> ())
        idxs
    | None -> ());
    (match p with
    | [ "Prng"; op ] when List.mem op prng_draws ->
      coll.events <- (Prng_draw { op; target = target 0 }, loc) :: coll.events
    | _ -> ());
    (match List.assoc_opt p allocating_calls with
    | Some what ->
      coll.events <-
        (Alloc { what; in_loop = coll.loop_depth > 0 }, loc) :: coll.events
    | None -> ());
    (* Partial application is only worth reporting where it repeats *)
    (if coll.loop_depth > 0
     && List.for_all (fun (l, _) -> l = Asttypes.Nolabel) args
     && List.length p <= 2
    then
       coll.events <-
         (Partial { callee = String.concat "." p;
                    given = List.length pos_args }, loc)
         :: coll.events);
    Option.iter
      (fun txt -> walk_ident st coll txt (pos_of fn.pexp_loc)) head;
    let hof = iterator_hof p in
    List.iter
      (fun (_, a) ->
        match a.pexp_desc with
        | (Pexp_fun _ | Pexp_function _) when hof ->
          (* closure literal handed to an iterator: the literal itself
             allocates once, at the apply's own loop depth, while its
             body runs once per element and is walked as loop context *)
          coll.events <-
            (Alloc { what = "closure"; in_loop = coll.loop_depth > 0 },
             pos_of a.pexp_loc)
            :: coll.events;
          coll.loop_depth <- coll.loop_depth + 1;
          walk_fn_parts st coll a;
          coll.loop_depth <- coll.loop_depth - 1
        | _ -> walk st coll a)
      args
  | None ->
    walk st coll fn;
    List.iter (fun (_, a) -> walk st coll a) args

(* Walk the parameters and body of a curried [fun]/[function] group
   without recording further closure allocations for the directly nested
   parameter lambdas: the group compiles to one closure. *)
and walk_fn_parts st coll e =
  match e.pexp_desc with
  | Pexp_fun (_, default, pat, body) ->
    Option.iter (walk st coll) default;
    walk_pat st coll pat;
    walk_fn_parts st coll body
  | Pexp_function cases -> List.iter (walk_case st coll) cases
  | _ -> walk st coll e

and par_id st loc =
  Printf.sprintf "%s.!par.%d.%d" st.unit_name loc.line loc.col

(* Collect one named function (toplevel or hot-nested binding). *)
and collect_fn st ~id ~hot ~pos expr =
  let rec peel arity keyword e =
    match e.pexp_desc with
    | Pexp_fun (lbl, default, _, body) ->
      let keyword =
        keyword
        || (match lbl with
           | Asttypes.Labelled _ | Asttypes.Optional _ -> true
           | Asttypes.Nolabel -> false)
        || default <> None
      in
      peel (arity + 1) keyword body
    | Pexp_newtype (_, body) | Pexp_constraint (body, _) ->
      peel arity keyword body
    | Pexp_function _ -> (arity + 1, keyword, e)
    | _ -> (arity, keyword, e)
  in
  let arity, keyword_args, body = peel 0 false expr in
  let coll = new_coll () in
  (* walk the function body; for Pexp_function the cases are the body *)
  (match body.pexp_desc with
  | Pexp_function cases -> List.iter (walk_case st coll) cases
  | _ -> walk st coll body);
  finish st coll ~id ~pos ~arity ~keyword_args ~hot ~par_root:false

(* ------------------------------------------------------------------ *)
(* Structure traversal *)

let binding_name vb =
  let rec of_pat p =
    match p.ppat_desc with
    | Ppat_var { txt; _ } -> Some txt
    | Ppat_constraint (p, _) -> Some (Option.value ~default:"" (of_pat p))
    | _ -> None
  in
  match of_pat vb.pvb_pat with Some "" | None -> None | s -> s

let rec scan_structure st items =
  let saved = st.opens in
  let prefix = match st.scopes with scope :: _ -> scope | [] -> "" in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_open od -> (
        match od.popen_expr.pmod_desc with
        | Pmod_ident { txt; _ } -> st.opens <- flatten txt :: st.opens
        | _ -> ())
      | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            let hot = has_attr "lattol.hot" vb.pvb_attributes in
            match binding_name vb with
            | Some name ->
              let id = st.unit_name ^ "." ^ prefix ^ name in
              collect_fn st ~id ~hot ~pos:(pos_of vb.pvb_loc) vb.pvb_expr
            | None ->
              (* pattern or unit binding: module-init code; spawn points
                 inside it still become roots *)
              let coll = new_coll () in
              walk st coll vb.pvb_expr;
              if coll.calls <> [] || coll.events <> [] then
                finish st coll
                  ~id:(st.unit_name ^ "." ^ prefix ^ "!init."
                       ^ string_of_int (pos_of vb.pvb_loc).line)
                  ~pos:(pos_of vb.pvb_loc) ~arity:0 ~keyword_args:false
                  ~hot ~par_root:false)
          vbs
      | Pstr_module mb -> (
        let mname =
          match mb.pmb_name.txt with Some n -> n | None -> "_"
        in
        match mb.pmb_expr.pmod_desc with
        | Pmod_structure items ->
          let outer = st.scopes in
          st.scopes <- (prefix ^ mname ^ ".") :: outer;
          scan_structure st items;
          st.scopes <- outer
        | _ -> ())
      | Pstr_eval (e, _) ->
        let coll = new_coll () in
        walk st coll e;
        if coll.calls <> [] || coll.events <> [] then
          finish st coll
            ~id:(st.unit_name ^ "." ^ prefix ^ "!init."
                 ^ string_of_int (pos_of item.pstr_loc).line)
            ~pos:(pos_of item.pstr_loc) ~arity:0 ~keyword_args:false
            ~hot:false ~par_root:false
      | _ -> ())
    items;
  st.opens <- saved

let module_aliases items =
  List.filter_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_module mb -> (
        match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
        | Some name, Pmod_ident { txt; _ } -> (
          match normalize [] (flatten txt) with
          | [] -> None
          | segs -> Some (name, segs))
        | _ -> None)
      | _ -> None)
    items

let unit_name_of_file file =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename file))

let summarize ~file str =
  let unit_name = unit_name_of_file file in
  let st =
    { unit_name; file; aliases = module_aliases str; opens = [];
      scopes = []; uses = ref []; passes = ref []; out = ref [] }
  in
  scan_structure st str;
  { unit_name; file; fns = List.rev !(st.out);
    uses = List.sort_uniq String.compare !(st.uses);
    passes = List.sort_uniq compare !(st.passes) }

(* The optional parameters of a [val]'s type, each at its [?l:]. *)
let rec optional_labels t =
  match t.ptyp_desc with
  | Ptyp_arrow (Asttypes.Optional l, _, rest) ->
    (l, pos_of t.ptyp_loc) :: optional_labels rest
  | Ptyp_arrow (_, _, rest) | Ptyp_poly (_, rest) -> optional_labels rest
  | _ -> []

(* Every [val] (or [external]) of an interface, nested [module X : sig
   ... end] signatures included, named as the call graph names it. *)
let exports ~file sg =
  let rec go prefix acc items =
    List.fold_left
      (fun acc item ->
        match item.psig_desc with
        | Psig_value vd ->
          { e_id = prefix ^ vd.pval_name.txt; e_file = file;
            e_pos = pos_of vd.pval_loc;
            e_opts = optional_labels vd.pval_type }
          :: acc
        | Psig_module { pmd_name = { txt = Some m; _ };
                        pmd_type = { pmty_desc = Pmty_signature sg; _ }; _ } ->
          go (prefix ^ m ^ ".") acc sg
        | _ -> acc)
      acc items
  in
  List.rev (go (unit_name_of_file file ^ ".") [] sg)
