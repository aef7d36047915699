(* Fixture: a test is a use. *)
let () = assert (Widget.from_test 1 = 2)
