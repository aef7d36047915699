(* Fixture: a library whose interface dead-export judges against every
   other unit of the run, and whose optional parameters dead-option
   judges against every application, this unit's own included. *)
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
  let knob ?(unused = 0) x = x + unused
end

let knobs ?(from_test = 0) ?(forwarded = 0) ?(from_bench = 0) ?(unused = 0)
    x =
  x + from_test + forwarded + from_bench + unused

(* The only application passing [knobs ?forwarded]. *)
let wrap ?forwarded x = knobs ?forwarded x

let as_value ?(handed = 0) x = x + handed
