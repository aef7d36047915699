(* Fixture: a benchmark root outside lib/, bin/ and test/ is a use. *)
let run x = Widget.from_bench x + Widget.Nested.from_bench x
