val from_test : int -> int

val through_alias : int -> int

val under_local_open : int -> int

val under_let_open : int -> int

val under_open : int -> int

val at_init : unit -> unit

val from_bench : int -> int

val unused : int -> int

module Nested : sig
  val from_bench : int -> int

  val unused : int -> int

  val knob : ?unused:int -> int -> int
end

val knobs :
  ?from_test:int -> ?forwarded:int -> ?from_bench:int -> ?unused:int ->
  int -> int

val wrap : ?forwarded:int -> int -> int

val as_value : ?handed:int -> int -> int
