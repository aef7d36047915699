(* Fixture: a benchmark root outside lib/, bin/ and test/ is a use, and
   passes labels. *)
let run x = Widget.from_bench x + Widget.Nested.from_bench x

let knob x = Widget.knobs ~from_bench:1 x
