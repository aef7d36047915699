(** Append-only checkpoint journal (format ["lattol-journal 1"]).

    A journal records one line per completed unit of work (a sweep
    point, a replication) so an interrupted run can {!resume}: completed
    ids are skipped and the output is byte-identical to an uninterrupted
    run.  {!map} is the one checkpointed fan-out every journaled run
    goes through.  Its records share one envelope, and one file
    reader, with the {!Cache}'s log ({!Cache.record_line},
    {!Cache.parse_record}, {!Cache.read_file}):

    - every record carries an MD5 checksum over its id and payload;
    - appends are serialized and written in batches, one [fsync] per
      batch: {!map} commits one batch per pool chunk (one per unit at
      [jobs = 1]), so a crash loses at most the chunk in flight, and a
      SIGKILL leaves at most one torn trailing record;
    - {!resume} verifies every line, truncates the torn/corrupt tail
      (counted in {!discarded}) and replays the survivors;
    - the header binds the file to a [meta] digest of the run
      specification — resuming against a different specification is an
      [Error], never a silently wrong merge.

    Ids and meta are single-line and space-free; payloads single-line.
    Appends are domain-safe. *)

type t

val format_version : int

val create : ?on_record:(int -> unit) -> path:string -> meta:string ->
  unit -> t
(** Start a fresh journal (truncating any existing file), creating parent
    directories as needed.  [on_record n] fires after the [n]-th
    successful append of this process — the chaos harness uses it as a
    deterministic kill switch.  Raises [Invalid_argument] on a malformed
    [meta]; I/O errors propagate as [Unix.Unix_error]. *)

val resume : ?on_record:(int -> unit) -> path:string -> meta:string ->
  unit -> (t, string) result
(** Reopen [path] for appending, replaying its verified records.  A
    missing file starts fresh; a header whose meta differs from [meta]
    (or a non-journal or unreadable file) is an [Error].  A torn or corrupted tail is
    truncated away and counted in {!discarded}. *)

val find : t -> string -> string option
(** Payload recorded for this id, if any (later records win). *)

val entries : t -> (string * string) list
(** Replayed [(id, payload)] records in append order — appends made
    through this handle are not included. *)

val replayed : t -> int

val discarded : t -> int
(** Records dropped by {!resume}'s tail truncation. *)

val appended : t -> int
(** Appends made through this handle. *)

val append : t -> id:string -> payload:string -> unit
(** [append_batch t [ (id, payload) ]]: write and fsync one record, then
    fire [on_record]. *)

val append_batch : t -> (string * string) list -> unit
(** Write a list of [(id, payload)] records under one lock acquisition
    and a {e single} [fsync], then fire [on_record] once per record.
    All records are validated before anything is written, so a malformed
    entry raises [Invalid_argument] without touching the file.  A crash
    mid-batch leaves at most one torn record (the batch is one
    contiguous write; complete leading records within it survive
    {!resume}'s verification). *)

val map :
  t option ->
  causal:Lattol_obs.Trace_ctx.ctx ->
  jobs:int ->
  chunk:int option ->
  oversubscribe:bool option ->
  monitor:Pool.monitor option ->
  retry:Lattol_robust.Retry.policy option ->
  deadline:float option ->
  on_poison:(Pool.poisoned -> 'b) option ->
  id:(int -> string) ->
  point:(int -> string * string) ->
  encode:('b -> string) ->
  decode:(int -> string -> 'b option) ->
  (Pool.ctx -> int -> 'b) ->
  int ->
  'b array
(** [map journal ... f n]: the results of units [0 .. n-1], in order.
    Unit [i] whose record [id i] {!find}s and [decode]s is replayed; the
    others run [f] on {!Pool.map_local} with the given knobs, and each
    claimed chunk's [encode]d results are committed with one
    {!append_batch} (one per unit on the serial path).  [on_poison] sees
    the {e unit} index in {!Pool.poisoned}[.index]; its substitute is
    journaled like any result.  With an enabled [causal] context each
    missing unit opens a ["point"] span at submission ([point i] gives
    its point id and name) and each commit records a run-level
    ["journal"] span.  Results are identical either way. *)

val close : t -> unit
