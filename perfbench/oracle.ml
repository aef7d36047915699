(* The bands test_conformance.ml applies to one simulation run around
   Linearizer's U_p: a DES run within max(3 of its own batch-means CI
   half-widths, 0.02), an STPN run within 0.03. *)
let des_within ~linearizer ~u_p ~half =
  abs_float (u_p -. linearizer) <= Float.max (3. *. half) 0.02

let stpn_within ~linearizer ~u_p = abs_float (u_p -. linearizer) <= 0.03

(* The numeric CSV comparison of test/numdiff.ml, as a function.

   Lines must match one-to-one.  Fields are compared as floats when both
   sides parse ([|a - b| <= atol + rtol * |golden|], nan equal to nan) and
   as exact strings otherwise.  Returns the first few mismatches. *)

let lines s = String.split_on_char '\n' (String.trim s)

let csv_close ~rtol ~atol ~golden actual =
  let gl = lines golden and al = lines actual in
  if List.length gl <> List.length al then
    Error
      [ Printf.sprintf "line count differs: %d (golden) vs %d (actual)"
          (List.length gl) (List.length al) ]
  else begin
    let errors = ref [] in
    let complain fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
    List.iteri
      (fun i (g, a) ->
        if g <> a then begin
          let gf = String.split_on_char ',' g and af = String.split_on_char ',' a in
          if List.length gf <> List.length af then
            complain "line %d: field count differs" (i + 1)
          else
            List.iteri
              (fun j (gv, av) ->
                match (float_of_string_opt gv, float_of_string_opt av) with
                | Some x, Some y ->
                  if
                    not
                      ((Float.is_nan x && Float.is_nan y)
                      || abs_float (x -. y) <= atol +. (rtol *. abs_float x))
                  then complain "line %d field %d: %s vs %s" (i + 1) (j + 1) gv av
                | _ ->
                  if gv <> av then
                    complain "line %d field %d: %S vs %S" (i + 1) (j + 1) gv av)
              (List.combine gf af)
        end)
      (List.combine gl al);
    match !errors with [] -> Ok () | es -> Error (List.rev es)
  end
