(** Content-addressed result cache for analytical solves.

    A solve is identified by a canonical hash of the full {!Params.t}
    record plus the resolved solver id ({!key}); the value is the
    {!Measures.t} it produced.  Two layers back the lookup:

    - an in-run memo shared by all of a {!Pool}'s workers, which also
      deduplicates concurrent requests — a key is computed once and every
      other requester blocks until it lands;
    - an optional on-disk store (one file per key, hex floats, written
      atomically via rename), so repeated experiment runs — a re-run of
      [mms figures], say — perform zero new solves.

    Keys use exact hexadecimal floats, so a cache entry is only ever
    reused for a bit-identical configuration — except that the two
    bit-level float pathologies are canonicalized first: [-0.0] keys the
    same solve as [0.0], and every nan (any sign or payload) the same
    solve as every other, since those parameterize identical models.  The
    encoding carries a format version: entries written by an older layout
    simply miss.

    The store is {e verified}: every entry ends with a checksum line over
    its preceding bytes.  A truncated or bit-flipped entry is never
    served — it is moved to a [quarantine/] subdirectory, counted in
    {!stats}[.corrupt], and transparently re-solved.  {!scrub} runs that
    verification over the whole store eagerly.  Opening a store also
    reclaims orphaned [*.tmp] files left by writers that died between
    create and rename ({!stats}[.tmp_reclaimed]). *)

open Lattol_core

type t

val create : ?dir:string -> unit -> t
(** [create ~dir ()] backs the cache with directory [dir] (created on
    first store); without [dir] the cache is in-memory only and still
    deduplicates within the run. *)

val directory : t -> string option

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
    requesters retry) and the exception propagates.

    With an enabled [trace] context, the lookup records "cache-wait"
    spans under it: [memo-hit], [park] (time parked on another
    requester's in-flight solve of the same key), [disk-read] (with a
    hit/miss outcome) and [store].  Disabled (the default) records
    nothing and reads no clock. *)

type stats = {
  memo_hits : int;  (** served by the in-run memo (shared configurations) *)
  disk_hits : int;  (** served by the on-disk store *)
  misses : int;     (** keys that had to be computed *)
  solves : int;     (** thunk executions — 0 on a fully warm re-run *)
  stores : int;     (** entries written to disk *)
  corrupt : int;
      (** entries that failed checksum/parse verification and were
          quarantined (lookups and {!scrub} both count here) — nonzero
          turns the exporter's [/healthz] degraded *)
  tmp_reclaimed : int;
      (** orphaned temp files swept on open (writers that died between
          create and rename) *)
}

val stats : t -> stats

val inflight : t -> int
(** Keys currently being computed (claimed but not yet landed).  Like
    {!stats}, safe to poll from any domain — the live-metrics exporter
    samples it on every scrape. *)

val pp_stats : Format.formatter -> stats -> unit
(** Historical format, extended with [", N corrupt"] /
    [", N tmp reclaimed"] only when those counters are nonzero. *)

type scrub_report = {
  scanned : int;  (** entries examined (temp files excluded) *)
  intact : int;  (** verified clean *)
  quarantined : int;  (** failed verification, moved to [quarantine/] *)
  stale : int;  (** intact but older-format entries, dropped *)
}

val scrub : t -> scrub_report
(** Verify every entry of the on-disk store (no-op without a directory).
    Corrupt entries are quarantined and counted in {!stats}[.corrupt]
    exactly as a lookup would; subsequent lookups of those keys re-solve
    and re-store.  Deterministic scan order. *)

val pp_scrub : Format.formatter -> scrub_report -> unit

val canonical : Lattol_core.Params.t -> string
(** The canonical parameter encoding behind {!key} (exact hex floats,
    [-0.0]/nan canonicalized) — exposed so run journals can fingerprint
    their configuration the same way cache keys do. *)

val encode_measures_line : Measures.t -> string
(** Single-line [name=value;...] encoding of a measure in exact hex
    floats — the {!Journal} payload codec.  Round-trips bit-identically
    through {!decode_measures_line}. *)

val decode_measures_line : string -> Measures.t option

val mkdir_p : string -> unit
(** Create a directory and any missing parents; an existing directory
    (or a concurrent creator winning the race) is not an error. *)
