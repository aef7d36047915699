(* bad_hot.ml's per-call tuple, one module down: a call made inside a
   nested module resolves to its sibling there, so the sibling's
   allocation is in the hot region too. *)

module Inner = struct
  let weight w x = (w, x)

  let[@lattol.hot] solve n =
    let acc = ref 0. in
    for _ = 1 to n do
      acc := !acc +. snd (weight 1. 0.)
    done;
    !acc
end
