(** Causal tracing: per-request trace/span contexts threaded through the
    execution layers.

    A {!recorder} owns one trace — identified by a root id derived from
    the experiment command — and collects {!span}s into a bounded,
    mutex-protected buffer.  A {!ctx} is a lightweight capability that
    names "where we are" in the trace: which recorder, which parent span,
    which sweep point.  Layers that accept a [ctx] record child spans
    under it; the {!disabled} context makes every operation a no-op, so
    instrumented code pays (close to) nothing when tracing is off and —
    critically — never reads the clock, preserving the pool's
    byte-identical [--jobs N] guarantee.

    Timestamps are wall-clock nanoseconds clamped to be monotonically
    non-decreasing process-wide, so durations never go negative even if
    the system clock steps backwards.  Span ids are allocated from an
    atomic counter (domain-safe); id [1] is the root span, [0] means "no
    parent" and appears only on the root itself. *)

type span = {
  id : int;          (** unique within the trace; root is 1 *)
  parent : int;      (** parent span id; 0 only on the root span *)
  point : string;    (** owning sweep point id; [""] for run-level spans *)
  name : string;
  cat : string;      (** one of "queue", "cache-wait", "solve", "journal",
                         "point", "run", or "" *)
  t0_ns : int64;     (** start, clamped wall-clock nanoseconds *)
  dur_ns : int64;
  meta : (string * string) list;
}

type recorder

type ctx
(** A position in a trace (recorder + parent span + point), or disabled. *)

type handle
(** An open span: created by {!start}, closed by {!finish} (idempotent). *)

val create : ?capacity:int -> root:string -> unit -> recorder
(** A fresh trace named [root] (the experiment command).  Buffers up to
    [capacity] spans (default 1_000_000); later spans are dropped and
    counted in {!dropped}. *)

val root_name : recorder -> string

val trace_id : recorder -> string
(** Stable id for this trace: the sanitized root name plus the start
    timestamp, e.g. ["sweep-184f3c..."]. *)

val started_ns : recorder -> int64

val now_ns : unit -> int64
(** Clamped monotonic wall clock, nanoseconds since the epoch. *)

val root_ctx : recorder -> ctx
(** Context whose parent is the root span. *)

val disabled : ctx
(** The no-op context: every record/start/finish under it does nothing
    and reads no clock. *)

val enabled : ctx -> bool

val point : ctx -> string
(** The sweep-point id this context is scoped to ([""] if none or
    disabled). *)

val point_trace_id : ctx -> string
(** [trace_id ^ "/" ^ point] — the exemplar id for metrics ([""] when
    disabled). *)

val opened_ns : ctx -> int64
(** When this context's parent span was opened ([0L] when disabled).
    The queue-wait primitive: [record_since] measures from here. *)

val no_handle : handle

val start : ?point:string -> ?cat:string -> name:string -> ctx -> handle
(** Open a span under [ctx]'s parent.  [point] rescopes the subtree (a
    sweep names each point span); it defaults to [ctx]'s point.  The span
    is buffered at {!finish} time.  On a disabled context this returns
    {!no_handle} without reading the clock. *)

val ctx_of : handle -> ctx
(** Context for recording children of the open span. *)

val finish : ?meta:(string * string) list -> handle -> unit
(** Close the span and buffer it.  Idempotent: second and later calls are
    no-ops, so error-path cleanup can finish handles unconditionally. *)

val with_span : ?cat:string -> name:string -> ctx -> (ctx -> 'a) -> 'a
(** [with_span ~name ctx f] opens a span, runs [f child_ctx], and
    finishes the span even on exceptions. *)

val record_interval :
  ?cat:string -> ?meta:(string * string) list -> name:string ->
  t0_ns:int64 -> ctx -> unit
(** Record a leaf span from [t0_ns] to now under [ctx]'s parent. *)

val record_since : ?cat:string -> name:string -> ctx -> unit
(** Record a leaf span from [opened_ns ctx] to now — e.g. the queue wait
    between a point's submission and its first execution. *)

val seal : recorder -> unit
(** Record the root span itself (id 1, parent 0), covering recorder
    creation to now.  Idempotent. *)

val spans : recorder -> span list
(** Buffered spans in recording (finish) order. *)

val count : recorder -> int

val dropped : recorder -> int
(** Spans discarded after the buffer filled. *)
