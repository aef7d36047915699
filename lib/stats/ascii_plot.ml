type series = {
  label : string;
  points : (float * float) list;
}

let glyphs = [| '*'; '+'; 'o'; 'x'; '#'; '@'; '%'; '&' |]

let finite_points s =
  List.filter
    (fun (x, y) -> Float.is_finite x && Float.is_finite y)
    s.points

let render ?(width = 64) ?(height = 16) ?y_min ?y_max
    ?(x_label = "") ?(y_label = "") series =
  let all = List.concat_map finite_points series in
  if all = [] then "(no finite data points)"
  else begin
    let xs = List.map fst all and ys = List.map snd all in
    let min_l = List.fold_left Float.min infinity in
    let max_l = List.fold_left Float.max neg_infinity in
    let x0 = min_l xs and x1 = max_l xs in
    let y0 = Option.value y_min ~default:(min_l ys) in
    let y1 = Option.value y_max ~default:(max_l ys) in
    (* Pad a degenerate axis so single values still render mid-scale. *)
    let x0, x1 = if x1 > x0 then (x0, x1) else (x0 -. 1., x1 +. 1.) in
    let y0, y1 = if y1 > y0 then (y0, y1) else (y0 -. 1., y1 +. 1.) in
    let canvas = Array.make_matrix height width ' ' in
    let col x =
      let c =
        int_of_float
          (Float.round ((x -. x0) /. (x1 -. x0) *. float_of_int (width - 1)))
      in
      max 0 (min (width - 1) c)
    in
    let row y =
      let r =
        int_of_float
          (Float.round ((y -. y0) /. (y1 -. y0) *. float_of_int (height - 1)))
      in
      (height - 1) - max 0 (min (height - 1) r)
    in
    List.iteri
      (fun i s ->
        let glyph = glyphs.(i mod Array.length glyphs) in
        List.iter
          (fun (x, y) -> canvas.(row y).(col x) <- glyph)
          (finite_points s))
      series;
    let buf = Buffer.create ((height + 4) * (width + 12)) in
    if y_label <> "" then Buffer.add_string buf (y_label ^ "\n");
    for r = 0 to height - 1 do
      (* Tick label on the top, middle and bottom rows. *)
      let y_of_row =
        y1 -. (float_of_int r /. float_of_int (height - 1) *. (y1 -. y0))
      in
      let tick =
        if r = 0 || r = height - 1 || r = height / 2 then
          Printf.sprintf "%8.3g" y_of_row
        else String.make 8 ' '
      in
      Buffer.add_string buf tick;
      Buffer.add_string buf " |";
      Buffer.add_string buf (String.init width (fun c -> canvas.(r).(c)));
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf (String.make 9 ' ');
    Buffer.add_char buf '+';
    Buffer.add_string buf (String.make width '-');
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf "%9s %-8.3g%s%8.3g" "" x0
         (String.make (max 1 (width - 16)) ' ')
         x1);
    if x_label <> "" then Buffer.add_string buf ("  " ^ x_label);
    Buffer.add_char buf '\n';
    List.iteri
      (fun i s ->
        Buffer.add_string buf
          (Printf.sprintf "%9s%c %s\n" "" glyphs.(i mod Array.length glyphs) s.label))
      series;
    Buffer.contents buf
  end
