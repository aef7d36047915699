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
end
