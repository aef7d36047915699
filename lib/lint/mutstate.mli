(** Phase 1 inventory of module-level mutable state.

    A {e global} is a toplevel (or nested-module toplevel) binding whose
    right-hand side is a known mutable constructor: [ref], [Hashtbl.create],
    [Buffer]/[Queue]/[Stack.create], an array maker or literal, a record
    literal with a field the unit declares [mutable], a [Prng] stream, an
    [Atomic.make], a [Domain.DLS.new_key], or a [Mutex.create].

    [protected] classifies the def-site discipline: [Atomic] and [DLS]
    values synchronize themselves (and a [Mutex] is the lock, not the
    hazard); everything else is only safe when every parallel-region
    access is wrapped in [Mutex.protect] — a use-site property that
    phase 2 checks per {!Callgraph.event}. *)

type kind =
  | Ref
  | Table
  | Buffer
  | Queue
  | Stack
  | Array_
  | Mutable_record
  | Prng
  | Atomic
  | Dls
  | Lock

val kind_name : kind -> string

type global = {
  id : string;           (** ["Unit.path"], same key space as {!Callgraph} *)
  unit_name : string;
  name : string;
  kind : kind;
  protected : bool;
  file : string;
  pos : Callgraph.pos;
}

val scan : file:string -> Parsetree.structure -> global list
(** Deterministic; order follows the source. *)
