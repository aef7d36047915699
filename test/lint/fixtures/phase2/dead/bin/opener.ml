(* Fixture: a use under a top-level [open]. *)
open Widget

let f x = under_open x
