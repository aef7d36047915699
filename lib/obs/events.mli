(** Structured event tracing: per-thread spans from the simulators.

    A span is one contiguous activity of a logical thread — a compute
    burst, a wait in a switch queue, a memory service — identified by a
    process id (the node), a track id (the thread within the node), a name
    and a category, with a start time and duration in simulation time
    units.

    Spans are buffered in memory (bounded; excess is counted, not stored)
    and exported either as JSONL (one span per line, for ad-hoc analysis)
    or in the Chrome trace-event format, so a run opens directly in
    Perfetto / [chrome://tracing] with one lane per thread. *)

type span = {
  pid : int;     (** process id — the node in the MMS machine *)
  track : int;   (** track/thread id within [pid] *)
  name : string;
  cat : string;
  t0 : float;    (** start, simulation time units *)
  dur : float;
}

type t

val create : ?capacity:int -> unit -> t
(** Buffer up to [capacity] spans (default 1_000_000); later spans are
    dropped and counted in {!dropped}. *)

val emit :
  t -> ?pid:int -> ?cat:string -> track:int -> name:string -> t0:float ->
  float -> unit
(** [emit t ~track ~name ~t0 dur] records one span of length [dur]
    starting at [t0].  [pid] defaults to 0, [cat] to [""]. *)

val name_process : t -> int -> string -> unit
(** Attach a display name to a process id (Chrome metadata). *)

val name_track : t -> ?pid:int -> int -> string -> unit
(** Attach a display name to a track (Chrome metadata). *)

val count : t -> int
(** Spans currently buffered. *)

val dropped : t -> int
(** Spans discarded after the buffer filled. *)

val iter : t -> (span -> unit) -> unit
(** In emission order. *)

val write_chrome : t -> out_channel -> unit
(** Chrome trace-event JSON: [{"traceEvents":[...]}] with one complete
    ("ph":"X") event per span and metadata events for the process/track
    names.  One event per line, so the file is both a valid JSON document
    and line-greppable. *)
