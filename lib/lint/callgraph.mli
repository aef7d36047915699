(** Phase 1 of the whole-program analysis: per-compilation-unit function
    summaries over the {!Parsetree}, keyed by resolved value paths.

    Every toplevel (and nested-module) value binding becomes a node
    ["Unit.path"].  References are resolved syntactically: [Stdlib.] and
    library-wrapper prefixes ([Lattol_*]) are stripped, and unit-level
    [module Alias = ...] aliases are applied, so [Des.run],
    [Lattol_sim.Mms_des.run] and (from inside the unit) [run] all name
    the node ["Mms_des.run"].  Resolution is an over-approximation: a
    path that names nothing simply produces no edge.

    Closures handed to a spawn point — [Domain.spawn], the
    [Pool.map]/[map_ctx]/[map_local]/[map_list]/[run] family, or
    [Journal.map], the checkpointed fan-out over [Pool.map_local] — are
    collected as synthetic {e parallel-root} nodes ([par_root = true])
    hanging off the enclosing function; phase 2 starts its reachability
    sweep there.  Function bodies also record the domain-safety and
    allocation {!event}s that the phase-2 rules consume. *)

type pos = { line : int; col : int; offset : int }

val pos_of : Location.t -> pos

type event =
  | Mutate of { target : string; under_lock : bool }
      (** mutation of the value at resolved path [target]
          ([x := ], [Hashtbl.replace x], [x.f <- ], ...); [under_lock]
          when syntactically inside [Mutex.protect] *)
  | Read of { target : string; under_lock : bool }
      (** read of the value at [target] ([!x], [Hashtbl.find x], field
          access, ...) *)
  | Prng_draw of { op : string; target : string option }
      (** [Prng.op target]: a draw that advances the stream *)
  | Alloc of { what : string; in_loop : bool }
      (** heap allocation ([what] names the shape); [in_loop] when inside
          a [for]/[while] body or a closure handed to an iterator *)
  | Partial of { callee : string; given : int }
      (** application of [callee] with [given] positional arguments,
          recorded inside loops; phase 2 compares against the callee's
          arity *)

type fn = {
  id : string;            (** ["Unit.path"], or ["Unit.!par.L.C"] roots *)
  unit_name : string;
  scopes : string list;
      (** enclosing nested modules as path prefixes (["A.B."]), innermost
          first; [[]] at top level *)
  file : string;
  pos : pos;
  arity : int;            (** leading [fun] parameters; 0 = not a function *)
  keyword_args : bool;    (** has labelled/optional params (arity unreliable) *)
  hot : bool;             (** carries [[@lattol.hot]] *)
  par_root : bool;        (** synthetic spawn-point closure *)
  calls : (string * pos) list;   (** resolved reference paths, in order *)
  events : (event * pos) list;
}

type pass = {
  callee : string;  (** a reading of the applied path, as {!fn.calls} *)
  labels : string list option;
      (** the labels passed, by [~l] or [?l]; [None] when any may be:
          the name is referenced as a value, or applied with labels but
          no positional argument *)
}

type t = {
  unit_name : string;
  file : string;
  fns : fn list;
  uses : string list;
      (** names the unit uses that are not call edges, sorted: the spawn
          points it calls, and the [M.]-qualified reading of every name
          under an [open M] ([open M], [M.( ... )], [let open M in]);
          [dead-export] counts them as uses *)
  passes : pass list;
      (** sorted; one per reading of each labelled application and value
          reference: the path as written, its enclosing nested modules'
          readings and its [M.]-qualified reading under each [open M];
          [dead-option] counts them as passes *)
}

type export = {
  e_id : string;
  e_file : string;
  e_pos : pos;
  e_opts : (string * pos) list;  (** optional parameters, at their [?l:] *)
}
(** One [val] (or [external]) of an interface, ["Unit.path"] as
    {!fn.id} names it. *)

val unit_name_of_file : string -> string
(** Capitalized basename without extension. *)

val summarize : file:string -> Parsetree.structure -> t
(** Deterministic: depends only on [file] and the structure. *)

val exports : file:string -> Parsetree.signature -> export list
(** The interface's values in source order, those of nested
    [module X : sig ... end] signatures included, each with the optional
    parameters its type spells out. *)
