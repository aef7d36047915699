open Parsetree

type meta = {
  id : string;
  family : string;
  summary : string;
  hint : string;
}

let metas =
  [
    {
      id = "det-random";
      family = "determinism";
      summary = "ambient Random use outside lib/stats/prng.ml";
      hint =
        "draw from a Lattol_stats.Prng stream threaded from the experiment \
         seed; the ambient Random is invisible to replay and to the solve \
         cache";
    };
    {
      id = "det-wallclock";
      family = "determinism";
      summary =
        "wall-clock read in deterministic model/experiment code (lib/ \
         outside the telemetry and supervision layers)";
      hint =
        "solver results, cache keys and golden CSVs must not depend on time; \
         read clocks only in the layers scoped for it (lib/obs, lib/serve, \
         lib/robust) or in executables";
    };
    {
      id = "det-stdout";
      family = "determinism";
      summary = "direct stdout write in library code (lib/serve excepted)";
      hint =
        "emit through a Format.formatter or a Report/Metrics sink chosen by \
         the caller; library stdout interleaves nondeterministically under \
         --jobs";
    };
    {
      id = "float-polycompare";
      family = "float-safety";
      summary = "polymorphic =/<>/compare/Hashtbl.hash on a float-bearing value";
      hint =
        "use Float.equal / Float.compare (or a keyed comparison): polymorphic \
         compare diverges on nan and boxes every float, and Hashtbl.hash \
         folds nan/-0. unpredictably into cache keys";
    };
    {
      id = "float-div-unguarded";
      family = "float-safety";
      summary =
        "float division by a difference with no dominating nonzero guard";
      hint =
        "guard the branch so the divisor is provably nonzero, or annotate \
         with [@lattol.allow \"float-div-unguarded\"] stating the invariant \
         that keeps it away from zero";
    };
    {
      id = "float-sum-naive";
      family = "float-safety";
      summary = "naive float accumulation via fold_left in lib/stats";
      hint =
        "use Lattol_stats.Moments (Welford) or Kahan compensation for long \
         sums; annotate when the operand count is small and bounded";
    };
    {
      id = "dom-unsync-mutation";
      family = "domain-safety";
      summary =
        "shared-state mutation inside a Domain.spawn closure without \
         Mutex.protect/Atomic";
      hint =
        "wrap the mutation in Mutex.protect, use Atomic, or annotate with \
         [@lattol.allow \"dom-unsync-mutation\"] naming the lock that is \
         held";
    };
    {
      id = "hyg-obj-magic";
      family = "domain-safety";
      summary = "Obj.magic defeats the type system";
      hint = "restructure with a GADT, a variant, or a first-class module";
    };
    {
      id = "hyg-catchall";
      family = "domain-safety";
      summary = "catch-all exception handler";
      hint =
        "match the specific exceptions: a catch-all absorbs the supervisor's \
         escalation exceptions (and Stack_overflow) and turns faults into \
         silent wrong answers";
    };
    {
      id = "hyg-mli-missing";
      family = "domain-safety";
      summary = "library module without an interface file";
      hint =
        "add a sibling .mli so the module's contract is explicit, or list \
         the file under an 'mli-exempt' directive in .lattol-lint stating \
         why it is a bare executable";
    };
    {
      id = "dom-shared-mutation";
      family = "domain-safety";
      summary =
        "module-level mutable state mutated from the parallel region \
         (transitively from a Pool/Domain.spawn closure) without \
         synchronization";
      hint =
        "wrap the access in Mutex.protect or Atomic, carry the state \
         per-worker via Pool.map_local, or have workers return values and \
         merge on the caller";
    };
    {
      id = "dom-unprotected-read-write";
      family = "domain-safety";
      summary =
        "module-level mutable state read in the parallel region while \
         also mutated elsewhere (torn-read race)";
      hint =
        "take the same lock on both sides (Mutex.protect), publish through \
         Atomic, or snapshot the state into an immutable value before the \
         fan-out";
    };
    {
      id = "det-prng-unsplit";
      family = "determinism";
      summary =
        "shared toplevel Prng stream advanced from the parallel region";
      hint =
        "derive one stream per task with Prng.split before the fan-out \
         (see Replicate.streams): draw order on a shared stream depends on \
         scheduling, so results stop being replayable from the seed";
    };
    {
      id = "hot-alloc";
      family = "hot-path";
      summary =
        "per-iteration heap allocation in a [@lattol.hot] region \
         (closure/tuple/record/list/array or partial application)";
      hint =
        "hoist the allocation out of the loop, reuse preallocated \
         Float.Array/Bigarray scratch, and apply functions fully: flat \
         inner loops are what unlock multicore scaling (ROADMAP item 3)";
    };
    {
      id = "obs-bare-printf";
      family = "observability";
      summary =
        "bare stderr print in library code (lib/obs/log.ml excepted)";
      hint =
        "emit through Lattol_obs.Log: freeform eprintf lines carry no \
         level and no source, so no script can filter them; only the \
         structured logger itself writes stderr directly";
    };
    {
      id = "dead-export";
      family = "hygiene";
      summary =
        "library interface value that no other unit references (tests, \
         benchmarks, examples and tools included)";
      hint =
        "delete the val from the .mli, and its definition too if its own \
         unit does not use it; code nothing runs is code nobody checks";
    };
    {
      id = "dead-option";
      family = "hygiene";
      summary =
        "optional parameter of a library interface value that no \
         application passes (its own unit, tests, benchmarks, examples and \
         tools included)";
      hint =
        "delete the parameter and its default plumbing, then rerun: a \
         forward of it may die next; a setting no run takes is a setting \
         nobody checks";
    };
  ]

let rule_ids = List.map (fun m -> m.id) metas

let meta_of_id id = List.find_opt (fun m -> m.id = id) metas

(* ------------------------------------------------------------------ *)
(* Path scoping *)

let segs path = String.split_on_char '/' (Lint_config.normalize path)

let rec is_prefix sub l =
  match (sub, l) with
  | [], _ -> true
  | _, [] -> false
  | x :: xs, y :: ys -> String.equal x y && is_prefix xs ys

let rec has_subseq sub l =
  is_prefix sub l || match l with [] -> false | _ :: tl -> has_subseq sub tl

let in_dir path sub = has_subseq sub (segs path)

(* ------------------------------------------------------------------ *)
(* Longident and syntactic helpers *)

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply _ -> []

let last_seg lid =
  match List.rev (flatten lid) with [] -> "" | x :: _ -> x

let fn_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (flatten txt)
  | _ -> None

(* All identifier / record-field last segments occurring in [e]; used to
   match divisors against enclosing guard conditions. *)
let idents_of e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } ->
            if last_seg txt <> "" then acc := last_seg txt :: !acc
          | Pexp_field (_, { txt; _ }) ->
            if last_seg txt <> "" then acc := last_seg txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !acc

(* ------------------------------------------------------------------ *)
(* Float-bearing heuristic (parsetree only, so syntactic by design) *)

let float_ops =
  [ "+."; "-."; "*."; "/."; "**"; "~-."; "abs_float"; "sqrt"; "exp"; "log";
    "log10"; "float_of_int"; "mod_float"; "ldexp" ]

let float_record_modules = [ "Params"; "Solution"; "Measures" ]
let float_record_idents = [ "params"; "solution"; "measures" ]

(* Float fields of the repo's known float-record types (Params.t,
   Measures.t, Solution-adjacent option records). *)
let float_fields =
  [ "runlength"; "context_switch"; "p_remote"; "l_mem"; "s_switch";
    "sync_unit"; "u_p"; "lambda"; "lambda_net"; "s_obs"; "l_obs";
    "cycle_time"; "util_memory"; "util_switch_in"; "util_switch_out";
    "util_sync"; "su_obs"; "queue_processor"; "queue_memory";
    "queue_network"; "tolerance"; "damping" ]

let rec core_type_is_floaty t =
  match t.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) -> (
    match flatten txt with
    | [ "float" ] | [ "Float"; "t" ] -> true
    | [ m; "t" ] -> List.mem m float_record_modules
    | _ -> false)
  | Ptyp_tuple ts -> List.exists core_type_is_floaty ts
  | _ -> false

let rec float_bearing e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply (fn, _) -> (
    match fn_path fn with
    | Some [ op ] when List.mem op float_ops -> true
    | Some [ "Float"; _ ] -> true
    | Some [ ("Stdlib" | "Pervasives"); op ] when List.mem op float_ops -> true
    | _ -> false)
  | Pexp_field (_, { txt; _ }) -> List.mem (last_seg txt) float_fields
  | Pexp_ident { txt; _ } -> (
    match flatten txt with
    | [ m; _ ] when List.mem m float_record_modules -> true
    | l -> (
      match List.rev l with
      | x :: _ -> List.mem (String.lowercase_ascii x) float_record_idents
      | [] -> false))
  | Pexp_record (fields, base) ->
    Option.fold ~none:false ~some:float_bearing base
    || List.exists
         (fun (({ Location.txt; _ } : Longident.t Location.loc), v) ->
           List.mem (last_seg txt) float_fields || float_bearing v)
         fields
  | Pexp_constraint (e, t) -> float_bearing e || core_type_is_floaty t
  | Pexp_tuple es -> List.exists float_bearing es
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Per-expression checks *)

type ctx = {
  path : string;
  enabled : string -> bool;
  report : rule:string -> loc:Location.t -> message:string -> unit;
  (* scope gates, precomputed once per file *)
  allow_random : bool;      (* true in lib/stats/prng.ml *)
  wallclock_scope : bool;   (* lib/ minus the layers allowed to read clocks *)
  lib_scope : bool;         (* any path with a lib/ segment *)
  serve_scope : bool;       (* lib/serve: the live exporter layer *)
  stderr_scope : bool;      (* lib/ minus the structured logger itself *)
  div_scope : bool;         (* lib/queueing, lib/core *)
  stats_scope : bool;       (* lib/stats *)
  (* traversal state *)
  mutable guards : string list list;
  mutable spawn_depth : int;
  mutable protect_depth : int;
}

let make_ctx ~path ~enabled ~report =
  (* Wall-clock allowance is scoped, not enumerated per consumer: every
     lib/ module is in det-wallclock scope except the layers whose job is
     observing real time — telemetry sinks (lib/obs), the live exporter
     and its progress heartbeat (lib/serve), and the supervisor's
     wall-time budgets (lib/robust). *)
  let clock_allowed =
    in_dir path [ "lib"; "obs" ]
    || in_dir path [ "lib"; "serve" ]
    || in_dir path [ "lib"; "robust" ]
    || in_dir path [ "lib"; "lint" ]
  in
  {
    path;
    enabled;
    report;
    allow_random = in_dir path [ "lib"; "stats"; "prng.ml" ];
    wallclock_scope = List.mem "lib" (segs path) && not clock_allowed;
    lib_scope = List.mem "lib" (segs path);
    serve_scope = in_dir path [ "lib"; "serve" ];
    stderr_scope =
      List.mem "lib" (segs path)
      && not (in_dir path [ "lib"; "obs"; "log.ml" ]);
    div_scope = in_dir path [ "lib"; "queueing" ] || in_dir path [ "lib"; "core" ];
    stats_scope = in_dir path [ "lib"; "stats" ];
    guards = [];
    spawn_depth = 0;
    protect_depth = 0;
  }

let fire ctx rule loc fmt =
  Printf.ksprintf
    (fun message -> if ctx.enabled rule then ctx.report ~rule ~loc ~message)
    fmt

let wallclock_idents =
  [ [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ]; [ "Sys"; "time" ] ]

let stdout_printers =
  [ [ "print_string" ]; [ "print_endline" ]; [ "print_newline" ];
    [ "print_char" ]; [ "print_int" ]; [ "print_float" ]; [ "print_bytes" ];
    [ "Printf"; "printf" ]; [ "Format"; "printf" ];
    [ "Format"; "print_string" ]; [ "Format"; "print_newline" ];
    [ "Format"; "open_box" ]; [ "stdout" ] ]

let stderr_printers =
  [ [ "prerr_string" ]; [ "prerr_endline" ]; [ "prerr_newline" ];
    [ "prerr_char" ]; [ "prerr_int" ]; [ "prerr_float" ]; [ "prerr_bytes" ];
    [ "Printf"; "eprintf" ]; [ "Format"; "eprintf" ]; [ "stderr" ] ]

let poly_compare_op = function
  | [ ("=" | "<>" | "compare") ] | [ ("Stdlib" | "Pervasives"); ("=" | "<>" | "compare") ]
    -> true
  | _ -> false

let mutators =
  [ [ ":=" ]; [ "incr" ]; [ "decr" ]; [ "Array"; "set" ]; [ "Array"; "fill" ];
    [ "Array"; "blit" ]; [ "Bytes"; "set" ]; [ "Hashtbl"; "replace" ];
    [ "Hashtbl"; "add" ]; [ "Hashtbl"; "remove" ]; [ "Hashtbl"; "reset" ];
    [ "Hashtbl"; "clear" ]; [ "Buffer"; "add_string" ];
    [ "Buffer"; "add_char" ]; [ "Buffer"; "add_substring" ];
    [ "Buffer"; "add_buffer" ]; [ "Buffer"; "clear" ]; [ "Buffer"; "reset" ];
    [ "Queue"; "add" ]; [ "Queue"; "push" ]; [ "Queue"; "pop" ];
    [ "Queue"; "take" ]; [ "Queue"; "clear" ]; [ "Queue"; "transfer" ];
    [ "Stack"; "push" ]; [ "Stack"; "pop" ]; [ "Stack"; "clear" ] ]

(* Divisors of the shape [a -. b] (or a product with such a factor) are
   the classic 1-rho blowups; everything else is left to the type
   checker and to review. *)
let rec dangerous_divisor e =
  match e.pexp_desc with
  | Pexp_apply (fn, [ (_, a); (_, b) ]) -> (
    match fn_path fn with
    | Some [ "-." ] -> true
    | Some [ "*." ] -> dangerous_divisor a || dangerous_divisor b
    | _ -> false)
  | Pexp_constraint (e, _) -> dangerous_divisor e
  | _ -> false

let divisor_guarded ctx den =
  let den_ids = idents_of den in
  den_ids = []
  || List.exists
       (fun guard_ids -> List.exists (fun i -> List.mem i guard_ids) den_ids)
       ctx.guards

let rec catch_all_pat p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_or (a, b) -> catch_all_pat a || catch_all_pat b
  | Ppat_alias (p, _) -> catch_all_pat p
  | _ -> false

let check_handler_cases ctx ~in_try cases =
  List.iter
    (fun c ->
      match c.pc_guard with
      | Some _ -> ()
      | None -> (
        if in_try then begin
          if catch_all_pat c.pc_lhs then
            fire ctx "hyg-catchall" c.pc_lhs.ppat_loc
              "try ... with _ -> swallows every exception"
        end
        else
          match c.pc_lhs.ppat_desc with
          | Ppat_exception p when catch_all_pat p ->
            fire ctx "hyg-catchall" p.ppat_loc
              "match ... with exception _ -> swallows every exception"
          | _ -> ()))
    cases

let is_fold_over_floats fn args =
  (match fn_path fn with
  | Some [ ("List" | "Array"); "fold_left" ] | Some [ "fold_left" ] -> true
  | _ -> false)
  && List.exists
       (fun (_, a) ->
         match a.pexp_desc with
         | Pexp_constant (Pconst_float _) -> true
         | Pexp_ident { txt = Longident.Lident "+."; _ } -> true
         | _ -> false)
       args

let check_expr ctx e =
  let loc = e.pexp_loc in
  (match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match flatten txt with
    | "Random" :: _ when not ctx.allow_random ->
      fire ctx "det-random" loc
        "Random.%s draws from the ambient global PRNG" (last_seg txt)
    | p when ctx.wallclock_scope && List.mem p wallclock_idents ->
      fire ctx "det-wallclock" loc "%s reads the wall clock"
        (String.concat "." p)
    | p when ctx.lib_scope && not ctx.serve_scope && List.mem p stdout_printers
      ->
      (* lib/serve is exempt: a serving layer reports operational state
         (bound address, shutdown) on process streams by design, and none
         of it lands in golden outputs. *)
      fire ctx "det-stdout" loc "%s writes directly to stdout"
        (String.concat "." p)
    | p when ctx.stderr_scope && List.mem p stderr_printers ->
      (* lib/obs/log.ml is the one exemption: the structured logger is
         the module whose job is writing the stderr stream everyone else
         must route through. *)
      fire ctx "obs-bare-printf" loc
        "%s writes to stderr outside the structured logger"
        (String.concat "." p)
    | [ "Obj"; "magic" ] ->
      fire ctx "hyg-obj-magic" loc "Obj.magic is never domain- or type-safe"
    | _ -> ())
  | Pexp_setfield (_, { txt; _ }, _) ->
    if ctx.spawn_depth > 0 && ctx.protect_depth = 0 then
      fire ctx "dom-unsync-mutation" loc
        "record field %s is mutated inside a Domain.spawn closure"
        (last_seg txt)
  | Pexp_try (_, cases) -> check_handler_cases ctx ~in_try:true cases
  | Pexp_match (_, cases) -> check_handler_cases ctx ~in_try:false cases
  | _ -> ());
  match e.pexp_desc with
  | Pexp_apply (fn, args) -> (
    let nolabel_args =
      List.filter_map
        (fun (l, a) -> match l with Asttypes.Nolabel -> Some a | _ -> None)
        args
    in
    (match fn_path fn with
    | Some p when poly_compare_op p ->
      if List.exists float_bearing nolabel_args then
        fire ctx "float-polycompare" loc
          "polymorphic %s applied to a float-bearing expression"
          (String.concat "." p)
    | Some [ "Hashtbl"; "hash" ] ->
      if List.exists float_bearing nolabel_args then
        fire ctx "float-polycompare" loc
          "Hashtbl.hash applied to a float-bearing expression"
    | Some p when ctx.spawn_depth > 0 && ctx.protect_depth = 0 && List.mem p mutators ->
      fire ctx "dom-unsync-mutation" loc
        "%s mutates shared state inside a Domain.spawn closure"
        (String.concat "." p)
    | _ -> ());
    if ctx.stats_scope && is_fold_over_floats fn args then
      fire ctx "float-sum-naive" loc
        "fold_left accumulates floats without compensation";
    match (fn_path fn, nolabel_args) with
    | Some [ "/." ], [ _num; den ] ->
      if
        ctx.div_scope && dangerous_divisor den
        && not (divisor_guarded ctx den)
      then
        fire ctx "float-div-unguarded" den.pexp_loc
          "divisor is a float difference with no dominating guard"
    | _ -> ())
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Traversal *)

let iterator ctx =
  let default = Ast_iterator.default_iterator in
  let case it c =
    it.Ast_iterator.pat it c.pc_lhs;
    match c.pc_guard with
    | None -> it.Ast_iterator.expr it c.pc_rhs
    | Some g ->
      it.Ast_iterator.expr it g;
      ctx.guards <- idents_of g :: ctx.guards;
      it.Ast_iterator.expr it c.pc_rhs;
      ctx.guards <- List.tl ctx.guards
  in
  let expr it e =
    check_expr ctx e;
    match e.pexp_desc with
    | Pexp_ifthenelse (c, yes, no) ->
      it.Ast_iterator.expr it c;
      ctx.guards <- idents_of c :: ctx.guards;
      it.Ast_iterator.expr it yes;
      Option.iter (it.Ast_iterator.expr it) no;
      ctx.guards <- List.tl ctx.guards
    | Pexp_while (c, body) ->
      it.Ast_iterator.expr it c;
      ctx.guards <- idents_of c :: ctx.guards;
      it.Ast_iterator.expr it body;
      ctx.guards <- List.tl ctx.guards
    | Pexp_match (scrut, cases) ->
      it.Ast_iterator.expr it scrut;
      ctx.guards <- idents_of scrut :: ctx.guards;
      List.iter (it.Ast_iterator.case it) cases;
      ctx.guards <- List.tl ctx.guards
    | Pexp_apply (fn, args) ->
      let bump =
        match fn_path fn with
        | Some [ "Domain"; "spawn" ] -> `Spawn
        | Some [ "Mutex"; "protect" ] | Some ("Atomic" :: _) -> `Protect
        | _ -> `None
      in
      it.Ast_iterator.expr it fn;
      (match bump with
      | `Spawn -> ctx.spawn_depth <- ctx.spawn_depth + 1
      | `Protect -> ctx.protect_depth <- ctx.protect_depth + 1
      | `None -> ());
      List.iter (fun (_, a) -> it.Ast_iterator.expr it a) args;
      (match bump with
      | `Spawn -> ctx.spawn_depth <- ctx.spawn_depth - 1
      | `Protect -> ctx.protect_depth <- ctx.protect_depth - 1
      | `None -> ())
    | _ -> default.expr it e
  in
  { default with expr; case }

let check_structure ~path ~enabled ~report str =
  let ctx = make_ctx ~path ~enabled ~report in
  let it = iterator ctx in
  it.structure it str

(* ------------------------------------------------------------------ *)
(* Suppression: [@lattol.allow "rule-id ..."] ranges *)

type allow = {
  rules : string list;  (** [] means every rule *)
  lo : int;
  hi : int;
}

let allow_payload (a : attribute) =
  if a.attr_name.txt <> "lattol.allow" then None
  else
    let strings =
      match a.attr_payload with
      | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] ->
        let rec go e =
          match e.pexp_desc with
          | Pexp_constant (Pconst_string (s, _, _)) -> [ s ]
          | Pexp_tuple es -> List.concat_map go es
          | _ -> []
        in
        go e
      | _ -> []
    in
    let split s =
      String.split_on_char ',' s
      |> List.concat_map (String.split_on_char ' ')
      |> List.map String.trim
      |> List.filter (( <> ) "")
    in
    Some (List.concat_map split strings)

let allows_in attrs (loc : Location.t) =
  List.filter_map
    (fun a ->
      match allow_payload a with
      | None -> None
      | Some rules ->
        Some
          {
            rules;
            lo = loc.loc_start.Lexing.pos_cnum;
            hi = loc.loc_end.Lexing.pos_cnum;
          })
    attrs

let whole_file rules = { rules; lo = 0; hi = max_int }

let collect_allows str =
  let acc = ref [] in
  let add l = acc := l @ !acc in
  let default = Ast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun it e ->
          add (allows_in e.pexp_attributes e.pexp_loc);
          default.expr it e);
      pat =
        (fun it p ->
          add (allows_in p.ppat_attributes p.ppat_loc);
          default.pat it p);
      value_binding =
        (fun it vb ->
          add (allows_in vb.pvb_attributes vb.pvb_loc);
          default.value_binding it vb);
      module_binding =
        (fun it mb ->
          add (allows_in mb.pmb_attributes mb.pmb_loc);
          default.module_binding it mb);
      structure_item =
        (fun it si ->
          (match si.pstr_desc with
          | Pstr_attribute a -> (
            match allow_payload a with
            | Some rules -> add [ whole_file rules ]
            | None -> ())
          | Pstr_eval (_, attrs) -> add (allows_in attrs si.pstr_loc)
          | _ -> ());
          default.structure_item it si);
    }
  in
  it.structure it str;
  !acc

let suppressed allows (f : Finding.t) =
  List.exists
    (fun a ->
      f.Finding.offset >= a.lo && f.Finding.offset <= a.hi
      && (a.rules = [] || List.mem f.Finding.rule a.rules))
    allows
