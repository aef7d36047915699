(** The standalone analysis driver, now two-phase.

    Phase 1 walks the source roots, parses every [.ml]/[.mli] with
    compiler-libs exactly once, and runs the per-file rule pack
    ({!Rules.check_structure}) plus the interface-file gate.  Phase 2
    feeds every parsed unit into the whole-program analysis — the
    {!Callgraph} summaries and the {!Mutstate} inventory are merged and
    {!Reach.analyze} evaluates the cross-module rules
    ([dom-shared-mutation], [dom-unprotected-read-write],
    [det-prng-unsplit], [hot-alloc]) over the parallel and hot regions,
    and [dead-export] and [dead-option] over every parsed [lib/]
    interface.
    [[@lattol.allow]] ranges suppress findings from either phase, and an
    optional {!baseline} accept-list demotes grandfathered findings
    while flagging stale entries. *)

type stats = {
  files : int;       (** source files parsed *)
  findings : int;    (** violations after suppression and baseline *)
  suppressed : int;  (** violations silenced by [[@lattol.allow]] *)
  baselined : int;   (** violations accepted by the baseline file *)
  by_rule : (string * int) list;  (** per-rule finding counts, sorted *)
}

type result = {
  findings : Finding.t list;  (** sorted by file, line, col, rule *)
  stats : stats;
}

(** {1 Baseline accept-list} *)

type baseline

val load_baseline : file:string -> (baseline, string) Stdlib.result
(** One entry per line — [rule path] — with ['#'] comments.  An entry
    silences every finding of that rule in that (normalized) file and is
    counted under {!stats.baselined}; an entry that silences nothing
    yields a ["baseline-stale"] finding (unless its rule is disabled),
    so a fixed finding must be deleted from the committed file. *)

val run :
  config:Lint_config.t -> ?baseline:baseline -> roots:string list -> unit ->
  result

val print_text : ?stats:bool -> Format.formatter -> result -> unit

val print_json : Format.formatter -> result -> unit

val print_sarif : Format.formatter -> result -> unit
(** SARIF 2.1.0 for code-scanning upload: the full rule pack under
    [tool.driver.rules], one [result] per finding, deterministic byte
    output. *)
