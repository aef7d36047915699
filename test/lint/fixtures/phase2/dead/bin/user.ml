(* Fixture: uses through a module alias, under [M.( ... )], under
   [let open M in], and from module-init code; a value handed around
   as a function, which may pass any label; and an application that
   passes none. *)
module W = Lattol_widget.Widget

let alias x = W.through_alias x

let local x = Widget.(under_local_open x)

let let_open x =
  let open Widget in
  under_let_open x

let () = Widget.at_init ()

let handed xs = List.map Widget.as_value xs

let nested x = Widget.Nested.knob x
