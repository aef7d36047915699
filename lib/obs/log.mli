(** Leveled structured logging: one JSON object per line, so the [-v]
    diagnostics stream is machine-readable instead of being freeform
    [Printf] noise.

    Lines look like
    [{"ts":1754640000.123456,"level":"debug","src":"lattol.supervisor",
      "msg":"rung 1 accepted: symmetric converged","iterations":"57"}]
    and go to [stderr] (never [stdout] — experiment output stays
    byte-identical).  Logging is off by default; {!set_level} gates it.
    Emission is mutex-serialized, so lines from parallel domains never
    interleave. *)

type level = Debug | Info | Warn | Error

val set_level : level option -> unit
(** [Some l] enables records at [l] and above; [None] (the default)
    disables all output. *)

val level : unit -> level option

val enabled : level -> bool
(** Would a record at this level be emitted?  Use to skip expensive
    argument construction. *)

val set_channel : out_channel -> unit
(** Redirect output (default [stderr]).  Tests point this at a buffer
    file. *)

val debugf :
  ?fields:(string * string) list -> src:string ->
  ('a, unit, string, unit) format4 -> 'a

val infof :
  ?fields:(string * string) list -> src:string ->
  ('a, unit, string, unit) format4 -> 'a

val warnf : src:string -> ('a, unit, string, unit) format4 -> 'a

val errorf : src:string -> ('a, unit, string, unit) format4 -> 'a
