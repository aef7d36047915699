type stats = {
  files : int;
  findings : int;
  suppressed : int;
  baselined : int;
  by_rule : (string * int) list;
}

type result = {
  findings : Finding.t list;
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* File discovery *)

let is_source f =
  Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

let skip_dir name =
  name = "_build" || (String.length name > 0 && name.[0] = '.')

let walk config roots =
  let rec go acc p =
    if Lint_config.excluded config p then acc
    else if Sys.is_directory p then
      Array.fold_left
        (fun acc entry ->
          if skip_dir entry then acc else go acc (Filename.concat p entry))
        acc
        (let entries = Sys.readdir p in
         Array.sort String.compare entries;
         entries)
    else if is_source p then p :: acc
    else acc
  in
  List.sort_uniq String.compare (List.fold_left go [] roots)

(* ------------------------------------------------------------------ *)
(* Parsing *)

let squash_ws s =
  let b = Buffer.create (String.length s) in
  let last_blank = ref false in
  String.iter
    (fun c ->
      if c = '\n' || c = '\t' || c = ' ' then begin
        if not !last_blank then Buffer.add_char b ' ';
        last_blank := true
      end
      else begin
        Buffer.add_char b c;
        last_blank := false
      end)
    (String.trim s);
  Buffer.contents b

let parse_error_finding ~file exn =
  let message =
    match Location.error_of_exn exn with
    | Some (`Ok report) -> squash_ws (Format.asprintf "%a" Location.print_report report)
    | _ -> squash_ws (Printexc.to_string exn)
  in
  {
    Finding.file;
    line = 1;
    col = 0;
    offset = 0;
    rule = "parse-error";
    message;
    hint = "the file must parse for the rule pack to run";
  }

let hint_of rule =
  match Rules.meta_of_id rule with Some m -> m.Rules.hint | None -> ""

(* ------------------------------------------------------------------ *)
(* Baseline: a committed accept-list of grandfathered findings.  One
   entry per line, [rule path], '#' comments.  An entry silences every
   finding of that rule in that file; an entry that silences nothing is
   itself an error ("baseline-stale"), so a fixed finding cannot linger
   in the accept-list unnoticed. *)

type baseline_entry = {
  b_rule : string;
  b_path : string;
  b_line : int;
}

type baseline = {
  b_file : string;
  entries : baseline_entry list;
}

let load_baseline ~file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text ->
    let rec go acc lineno = function
      | [] -> Ok { b_file = Lint_config.normalize file; entries = List.rev acc }
      | line :: rest -> (
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc (lineno + 1) rest
        else
          match String.index_opt line ' ' with
          | None ->
            Error
              (Printf.sprintf "%s:%d: malformed baseline entry %S (want: rule path)"
                 file lineno line)
          | Some i ->
            let b_rule = String.sub line 0 i in
            let b_path =
              Lint_config.normalize
                (String.trim (String.sub line i (String.length line - i)))
            in
            go ({ b_rule; b_path; b_line = lineno } :: acc) (lineno + 1) rest)
    in
    go [] 1 (String.split_on_char '\n' text)

(* ------------------------------------------------------------------ *)
(* The hyg-mli-missing gate.

   Interface files are the contract of reusable modules: everything under
   lib/, plus the support-tool modules under tools/ and test/ (where dune's
   [test_*.ml] runner convention marks the alcotest executables).  A module
   that is deliberately a bare executable is exempted explicitly through an
   'mli-exempt' policy directive — by decision, not because a directory
   happened to fall outside the gate. *)

let mli_scope path =
  let base = Filename.basename path in
  let is_test_runner =
    String.length base >= 5 && String.sub base 0 5 = "test_"
  in
  Rules.in_dir path [ "lib" ]
  || Rules.in_dir path [ "tools" ]
  || (Rules.in_dir path [ "test" ] && not is_test_runner)

(* ------------------------------------------------------------------ *)
(* The two-phase run *)

type parsed_unit = {
  u_file : string;  (* as walked, for sibling-file checks *)
  u_path : string;  (* normalized, used in findings *)
  u_str : Parsetree.structure;
  u_allows : Rules.allow list;
}

let run ~config ?baseline ~roots () =
  let files = walk config roots in
  let enabled r = Lint_config.enabled config r in
  let naked = ref [] in  (* findings with no suppression context *)
  let units = ref [] in
  let exports = ref [] in
  List.iter
    (fun file ->
      let path = Lint_config.normalize file in
      if Filename.check_suffix file ".mli" then begin
        match Pparse.parse_interface ~tool_name:"lattol-lint" file with
        | sg ->
          (* a library's interface is its exports, which dead-export
             checks against every root's references *)
          if Rules.in_dir path [ "lib" ] then
            exports := Callgraph.exports ~file:path sg :: !exports
        | exception exn -> naked := parse_error_finding ~file:path exn :: !naked
      end
      else
        match Pparse.parse_implementation ~tool_name:"lattol-lint" file with
        | exception exn -> naked := parse_error_finding ~file:path exn :: !naked
        | str ->
          units :=
            { u_file = file; u_path = path; u_str = str;
              u_allows = Rules.collect_allows str }
            :: !units)
    files;
  let units = List.rev !units in
  (* raw findings per normalized path, phase 1 and phase 2 combined *)
  let raw : (string, Finding.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let add (f : Finding.t) =
    let cell =
      match Hashtbl.find_opt raw f.Finding.file with
      | Some c -> c
      | None ->
        let c = ref [] in
        Hashtbl.add raw f.Finding.file c;
        c
    in
    cell := f :: !cell
  in
  (* Phase 1: per-file syntactic rules *)
  List.iter
    (fun u ->
      let report ~rule ~loc ~message =
        let pos = loc.Location.loc_start in
        add
          {
            Finding.file = u.u_path;
            line = pos.Lexing.pos_lnum;
            col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
            offset = pos.Lexing.pos_cnum;
            rule;
            message;
            hint = hint_of rule;
          }
      in
      Rules.check_structure ~path:u.u_path ~enabled ~report u.u_str;
      if
        enabled "hyg-mli-missing" && mli_scope u.u_path
        && (not (Lint_config.mli_exempt config u.u_path))
        && not (Sys.file_exists (u.u_file ^ "i"))
      then
        add
          {
            Finding.file = u.u_path;
            line = 1;
            col = 0;
            offset = 0;
            rule = "hyg-mli-missing";
            message = "module has no interface file";
            hint = hint_of "hyg-mli-missing";
          })
    units;
  (* Phase 2: whole-program analysis over every parsed unit at once *)
  let summaries =
    List.map (fun u -> Callgraph.summarize ~file:u.u_path u.u_str) units
  in
  let globals =
    List.concat_map (fun u -> Mutstate.scan ~file:u.u_path u.u_str) units
  in
  let program =
    Reach.build ~exports:(List.concat (List.rev !exports)) summaries globals
  in
  Reach.analyze program ~enabled
    ~report:(fun ~rule ~file ~pos ~message ->
      add
        {
          Finding.file;
          line = pos.Callgraph.line;
          col = pos.Callgraph.col;
          offset = pos.Callgraph.offset;
          rule;
          message;
          hint = hint_of rule;
        });
  (* Suppression: [@lattol.allow] ranges of the carrying file apply to
     phase-1 and phase-2 findings alike.  Interfaces carry none. *)
  let allows = Hashtbl.create 64 in
  List.iter (fun u -> Hashtbl.replace allows u.u_path u.u_allows) units;
  let findings, suppressed =
    Hashtbl.fold
      (fun path cell (fs, n) ->
        let allows = Option.value ~default:[] (Hashtbl.find_opt allows path) in
        let kept, dropped =
          List.partition (fun f -> not (Rules.suppressed allows f)) !cell
        in
        (kept @ fs, n + List.length dropped))
      raw (!naked, 0)
  in
  (* Baseline: demote accepted findings, surface stale entries. *)
  let findings, baselined =
    match baseline with
    | None -> (findings, 0)
    | Some b ->
      let hit = Array.make (List.length b.entries) false in
      let kept =
        List.filter
          (fun (f : Finding.t) ->
            let matched = ref false in
            List.iteri
              (fun i e ->
                if e.b_rule = f.Finding.rule && e.b_path = f.Finding.file
                then begin
                  hit.(i) <- true;
                  matched := true
                end)
              b.entries;
            not !matched)
          findings
      in
      let stale =
        List.concat
          (List.mapi
             (fun i e ->
               if hit.(i) || not (enabled e.b_rule) then []
               else
                 [
                   {
                     Finding.file = b.b_file;
                     line = e.b_line;
                     col = 0;
                     offset = 0;
                     rule = "baseline-stale";
                     message =
                       Printf.sprintf
                         "baseline entry '%s %s' matched no finding"
                         e.b_rule e.b_path;
                     hint =
                       "the grandfathered finding is gone: delete this \
                        line so the fix is locked in";
                   };
                 ])
             b.entries)
      in
      (stale @ kept, List.length findings - List.length kept)
  in
  let findings = List.sort Finding.compare findings in
  let by_rule =
    List.sort_uniq compare (List.map (fun f -> f.Finding.rule) findings)
    |> List.map (fun r ->
           ( r,
             List.length
               (List.filter (fun f -> f.Finding.rule = r) findings) ))
  in
  {
    findings;
    stats =
      {
        files = List.length files;
        findings = List.length findings;
        suppressed;
        baselined;
        by_rule;
      };
  }

(* ------------------------------------------------------------------ *)
(* Rendering *)

let print_text ?(stats = false) ppf r =
  List.iter (fun f -> Format.fprintf ppf "%a@." Finding.pp_text f) r.findings;
  if stats then begin
    Format.fprintf ppf "files scanned: %d@." r.stats.files;
    Format.fprintf ppf "findings: %d (suppressed: %d)@." r.stats.findings
      r.stats.suppressed;
    if r.stats.baselined > 0 then
      Format.fprintf ppf "baselined: %d@." r.stats.baselined;
    List.iter
      (fun (rule, n) -> Format.fprintf ppf "  %s: %d@." rule n)
      r.stats.by_rule
  end

let print_json ppf r =
  Format.fprintf ppf {|{"tool":"lattol-lint","format_version":1,"findings":[|};
  List.iteri
    (fun i f ->
      if i > 0 then Format.pp_print_char ppf ',';
      Finding.pp_json ppf f)
    r.findings;
  Format.fprintf ppf {|],"stats":{"files":%d,"findings":%d,"suppressed":%d,|}
    r.stats.files r.stats.findings r.stats.suppressed;
  if r.stats.baselined > 0 then
    Format.fprintf ppf {|"baselined":%d,|} r.stats.baselined;
  Format.fprintf ppf {|"by_rule":{|};
  List.iteri
    (fun i (rule, n) ->
      if i > 0 then Format.pp_print_char ppf ',';
      Format.fprintf ppf {|"%s":%d|} (Finding.json_escape rule) n)
    r.stats.by_rule;
  Format.fprintf ppf "}}}@."

(* SARIF 2.1.0, the minimum GitHub code scanning accepts: one run, the
   full rule pack under tool.driver, one result per finding.  Output is
   deterministic (findings are sorted, the pack order is fixed). *)
let print_sarif ppf r =
  let e = Finding.json_escape in
  Format.fprintf ppf
    {|{"$schema":"https://json.schemastore.org/sarif-2.1.0.json","version":"2.1.0","runs":[{"tool":{"driver":{"name":"lattol-lint","informationUri":"https://github.com/lattol/lattol","rules":[|};
  List.iteri
    (fun i m ->
      if i > 0 then Format.pp_print_char ppf ',';
      Format.fprintf ppf
        {|{"id":"%s","shortDescription":{"text":"%s"},"help":{"text":"%s"},"properties":{"family":"%s"}}|}
        (e m.Rules.id) (e m.Rules.summary) (e m.Rules.hint) (e m.Rules.family))
    Rules.metas;
  Format.fprintf ppf {|]}},"results":[|};
  List.iteri
    (fun i (f : Finding.t) ->
      if i > 0 then Format.pp_print_char ppf ',';
      let text =
        if f.hint = "" then f.message else f.message ^ "; hint: " ^ f.hint
      in
      Format.fprintf ppf
        {|{"ruleId":"%s","level":"error","message":{"text":"%s"},"locations":[{"physicalLocation":{"artifactLocation":{"uri":"%s"},"region":{"startLine":%d,"startColumn":%d}}}]}|}
        (e f.rule) (e text) (e f.file) f.line (f.col + 1))
    r.findings;
  Format.fprintf ppf {|]}]}|};
  Format.pp_print_newline ppf ()
