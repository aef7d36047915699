(** Content-addressed result cache for analytical solves.

    A solve is identified by a canonical hash of the full {!Params.t}
    record plus the resolved solver id ({!key}); the value is the
    {!Measures.t} it produced.  Two layers back the lookup:

    - an in-run memo shared by all of a {!Pool}'s workers, which also
      deduplicates concurrent requests — a key is computed once and every
      other requester blocks until it lands;
    - an optional on-disk store, so repeated experiment runs — a re-run
      of [mms figures], say — perform zero new solves.

    Keys use exact hexadecimal floats, so a cache entry is only ever
    reused for a bit-identical configuration — except that the two
    bit-level float pathologies are canonicalized first: [-0.0] keys the
    same solve as [0.0], and every nan (any sign or payload) the same
    solve as every other, since those parameterize identical models.  The
    encoding carries a format version: entries written by an older layout
    simply miss.

    {b Layout.}  The store is one append-only file,
    [DIR/lattol-cache-3.log] (the format version is part of the name).
    Each line is a record in the {!Journal}'s envelope,
    ["<md5-hex> <key> <payload>"], where the digest covers
    ["<key> <payload>"] and the payload is {!encode_measures_line}.

    {b Open.}  {!create} reads the log once into a read-only key →
    payload index, so a handle sees the store as it was when it opened:
    it may re-solve (and append again) what another process stored
    later.  A later record for a key wins.  A complete line that fails
    verification is never served; it is counted once in
    {!stats}[.corrupt] and its key re-solves.  An unterminated tail is
    skipped and not counted, since it may be another process's append
    still in flight; a store appended behind a tail that was really torn
    joins it in one corrupt line, and that key re-solves once more.  The
    index holds every record, so memory grows with the store, as a
    journal's does.

    {b Store.}  Each store is one [O_APPEND] write of one record, with no
    fsync and no descriptor held between stores.  Processes that share a
    directory can store concurrently: on a local Linux filesystem
    [O_APPEND] writes do not interleave, and where they do (NFS) the
    checksum rejects the result.  A store that fails — an unwritable or
    non-directory location, a full disk — only leaves the key unstored.

    {b Scrub.}  {!scrub} compacts the log: one intact record per key.
    Run it while no other process writes to the store: a store that
    lands between its read and its rename is lost, and that key
    re-solves later. *)

open Lattol_core

type t

val create : ?dir:string -> unit -> t
(** [create ~dir ()] backs the cache with directory [dir] (created on
    first store) and replays its log; without [dir] the cache is
    in-memory only and still deduplicates within the run.  Never
    raises on a missing or unreadable log: it simply misses. *)

val key : solver_id:string -> Params.t -> string
(** Canonical content hash (hex) of the configuration under [solver_id]
    (use {!Mms.solver_label} of the {e resolved} solver, so an explicit
    ["symmetric"] and a defaulted one share entries). *)

val find_or_compute :
  ?trace:Lattol_obs.Trace_ctx.ctx ->
  t -> key:string -> (unit -> Measures.t) -> Measures.t
(** Memo hit, else disk hit, else run the thunk, store, and wake any
    concurrent requesters of the same key.  Safe to call from multiple
    domains.  If the thunk raises, the claim is released (parked
    requesters retry) and the exception propagates.  The first lookup of
    a key in the replayed log is a disk hit, later ones memo hits.

    With an enabled [trace] context, the lookup records "cache-wait"
    spans under it: [memo-hit], [park] (time parked on another
    requester's in-flight solve of the same key), [disk-read] (the index
    lookup and decode, with a hit/miss outcome) and [store].  Disabled
    (the default) records nothing and reads no clock. *)

type stats = {
  memo_hits : int;  (** served by the in-run memo (shared configurations) *)
  disk_hits : int;  (** served by the on-disk store *)
  misses : int;     (** keys that had to be computed *)
  solves : int;     (** thunk executions — 0 on a fully warm re-run *)
  stores : int;     (** records appended to the log *)
  corrupt : int;
      (** complete log lines that failed verification at open, plus
          verified payloads that failed to decode at lookup — nonzero
          turns the exporter's [/healthz] degraded until a {!scrub}
          removes them *)
  tmp_reclaimed : int;
      (** retired: always 0 since the store stopped writing temp
          files; kept so existing record literals still build *)
}

val stats : t -> stats

val inflight : t -> int
(** Keys currently being computed (claimed but not yet landed).  Like
    {!stats}, safe to poll from any domain — the live-metrics exporter
    samples it on every scrape. *)

val pp_stats : Format.formatter -> stats -> unit
(** Historical format, extended with [", N corrupt"] only when that
    counter is nonzero. *)

type scrub_report = {
  scanned : int;  (** log lines examined, an unterminated tail included *)
  intact : int;  (** lines that verify and decode *)
  quarantined : int;  (** the others, moved to the quarantine file *)
}

val scrub : dir:string -> scrub_report
(** Compact the log under [dir]: verify every line, write the latest
    intact record of each key to a sibling temp file (fsync'd, in key
    digest order), and rename it over the log.  Every bad line — an
    unterminated tail included — is first appended to
    [DIR/lattol-cache-3.quarantine], so its bytes stay as evidence, and
    its key re-solves on next use.  A missing log scrubs to zeros and
    writes nothing.  I/O errors propagate as [Unix.Unix_error]. *)

val pp_scrub : Format.formatter -> scrub_report -> unit
(** ["N records scanned, N intact, N quarantined"]. *)

val canonical : Lattol_core.Params.t -> string
(** The canonical parameter encoding behind {!key} (exact hex floats,
    [-0.0]/nan canonicalized) — exposed so run journals can fingerprint
    their configuration the same way cache keys do. *)

val encode_measures_line : Measures.t -> string
(** Single-line [name=value;...] encoding of a measure in exact hex
    floats — the payload of a cache record and of a {!Journal} record.
    Round-trips bit-identically through {!decode_measures_line}. *)

val decode_measures_line : string -> Measures.t option

(** {2 The record envelope, shared with {!Journal}} *)

val record_line : id:string -> payload:string -> string
(** ["<md5-hex> <id> <payload>\n"], the digest covering
    ["<id> <payload>"].  The caller guarantees a non-empty, space-free
    [id] and that neither contains a newline. *)

val parse_record : string -> (string * string) option
(** One complete line (without its newline) back into [(id, payload)];
    [None] for anything {!record_line} did not produce — a torn prefix
    or a flipped byte fails the digest. *)

val fold_lines :
  string -> pos:int -> ('a -> string -> 'a) -> 'a -> 'a * string
(** [fold_lines text ~pos f acc] folds [f] over the ['\n']-terminated
    lines of [text] from offset [pos] on, each without its newline, and
    also returns the unterminated tail ([""] when there is none). *)

val read_file : string -> string option
(** The whole file, read through a raw descriptor (no 64 KB channel
    buffer left for the GC to finalize); [None] when it cannot be
    opened or read. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; an existing directory
    (or a concurrent creator winning the race) is not an error. *)
