(* lattol-lint: static-analysis driver enforcing the repo's determinism,
   float-safety, domain-safety, and hot-path invariants.  Phase 1 runs the
   per-file rule pack; phase 2 runs the whole-program analysis (call
   graph, mutable-state inventory, parallel/hot-region reachability) over
   every parsed unit in one invocation.  Exit 0 when clean, 1 on
   findings, 2 on usage or configuration errors. *)

open Lattol_lint

let usage =
  "lattol_lint [options] [paths...]\n\
   Walk OCaml sources (default roots: lib bin bench test tools examples\n\
   perfbench) and report rule violations.  Options:"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("lattol-lint: " ^ s); exit 2) fmt

let list_rules () =
  List.iter
    (fun m ->
      Printf.printf "%-26s %-13s %s\n" m.Rules.id m.Rules.family m.Rules.summary)
    Rules.metas;
  exit 0

let () =
  let format = ref `Text in
  let rules_spec = ref "" in
  let config_file = ref None in
  let no_config = ref false in
  let stats = ref false in
  let root = ref "" in
  let baseline_file = ref "" in
  let paths = ref [] in
  let spec =
    [
      ( "--format",
        Arg.Symbol
          ([ "text"; "json"; "sarif" ],
           fun s ->
             format :=
               match s with
               | "json" -> `Json
               | "sarif" -> `Sarif
               | _ -> `Text),
        " output format (default text)" );
      ( "--rules",
        Arg.Set_string rules_spec,
        "SPEC comma-separated selection: 'id' selects only named rules, \
         '+id'/'-id' enable/disable" );
      ( "--config",
        Arg.String (fun s -> config_file := Some s),
        "FILE read policy from FILE (default: ./.lattol-lint when present)" );
      ("--no-config", Arg.Set no_config, " ignore any .lattol-lint file");
      ( "--baseline",
        Arg.Set_string baseline_file,
        "FILE accept-list of grandfathered findings ('rule path' per \
         line); stale entries are themselves findings" );
      ("--stats", Arg.Set stats, " print file and per-rule counts");
      ("--root", Arg.Set_string root, "DIR change to DIR before walking");
      ("--list-rules", Arg.Unit list_rules, " print the rule pack and exit");
    ]
  in
  Arg.parse (Arg.align spec) (fun p -> paths := p :: !paths) usage;
  if !root <> "" then begin
    match Sys.chdir !root with
    | () -> ()
    | exception Sys_error msg -> die "--root: %s" msg
  end;
  let config =
    if !no_config then Lint_config.empty
    else
      match !config_file with
      | Some f -> (
        match Lint_config.load ~file:f with
        | Ok c -> c
        | Error msg -> die "config: %s" msg)
      | None ->
        if Sys.file_exists ".lattol-lint" then
          match Lint_config.load ~file:".lattol-lint" with
          | Ok c -> c
          | Error msg -> die "config: %s" msg
        else Lint_config.empty
  in
  let config =
    if !rules_spec = "" then config
    else
      match
        Lint_config.with_rules_spec ~known:Rules.rule_ids ~spec:!rules_spec
          config
      with
      | Ok c -> c
      | Error msg -> die "%s" msg
  in
  let baseline =
    if !baseline_file = "" then None
    else
      match Driver.load_baseline ~file:!baseline_file with
      | Ok b -> Some b
      | Error msg -> die "baseline: %s" msg
  in
  let roots =
    match List.rev !paths with
    | [] ->
      List.filter Sys.file_exists
        [ "lib"; "bin"; "bench"; "test"; "tools"; "examples"; "perfbench" ]
    | ps -> ps
  in
  if roots = [] then die "no source roots found (run from the repo root?)";
  let result =
    match Driver.run ~config ?baseline ~roots () with
    | r -> r
    | exception Sys_error msg -> die "%s" msg
  in
  (match !format with
  | `Text -> Driver.print_text ~stats:!stats Format.std_formatter result
  | `Json -> Driver.print_json Format.std_formatter result
  | `Sarif -> Driver.print_sarif Format.std_formatter result);
  exit (if result.Driver.findings = [] then 0 else 1)
