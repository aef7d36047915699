(* The 64-bit state lives unboxed in 8 bytes, read and written in
   place: a mutable [int64] field would box a fresh value on every
   draw, and the simulators draw once per service. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let default_seed = 0x1997_0415 (* IPPS'97 *)

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create ?(seed = default_seed) () = of_state (mix64 (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] next t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let bits64 t = next t

let split t =
  (* Derive the child state from the next output so parent and child
     sequences are decorrelated even for adjacent seeds. *)
  let s = next t in
  of_state (mix64 (Int64.logxor s 0x5851F42D4C957F2DL))

let[@inline] float t =
  (* 53 high bits -> [0, 1). *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. 0x1.0p-53

(* Top-level recursion: a local loop closure would be allocated per
   draw, and the simulators draw once per service. *)
let rec float_pos t =
  let u = float t in
  if u > 0. then u else float_pos t

let int t n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let rec go () =
    let raw = Int64.shift_right_logical (next t) 1 in
    let v = Int64.rem raw n64 in
    if Int64.sub raw v > Int64.sub Int64.max_int (Int64.sub n64 1L) then go ()
    else Int64.to_int v
  in
  go ()
