(* Fixture: a library whose interface dead-export judges against every
   other unit of the run. *)
let from_test x = x + 1
let through_alias x = x + 2
let under_local_open x = x + 3
let under_let_open x = x + 4
let under_open x = x + 5
let at_init () = ()
let from_bench x = x + 6
let unused x = x + 7

module Nested = struct
  let from_bench x = x + 8
  let unused x = x + 9
end
