(* Fixture: a test is a use, and a label only a test passes is passed. *)
let () = assert (Widget.from_test 1 = 2)

let () = assert (Widget.knobs ~from_test:1 0 = 1)

let () = assert (Widget.wrap ~forwarded:1 0 = 1)
