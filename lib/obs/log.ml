(* Structured JSONL logger.

   The level gate is an Atomic int (0 = off) so the fast path — logging
   disabled — is one atomic load and no allocation.  The channel is only
   touched under the emission mutex, which also keeps lines from
   parallel domains whole. *)

type level = Debug | Info | Warn | Error

let rank = function Debug -> 1 | Info -> 2 | Warn -> 3 | Error -> 4
let name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

(* 0 = disabled; otherwise the minimum rank that gets emitted. *)
let gate = Atomic.make 0

let set_level = function
  | None -> Atomic.set gate 0
  | Some l -> Atomic.set gate (rank l)

let level () =
  match Atomic.get gate with
  | 1 -> Some Debug
  | 2 -> Some Info
  | 3 -> Some Warn
  | 4 -> Some Error
  | _ -> None

let enabled l =
  let g = Atomic.get gate in
  g > 0 && rank l >= g

let lock = Mutex.create ()
let channel = ref stderr
let set_channel oc = Mutex.protect lock (fun () -> channel := oc)

let emit ?(fields = []) l ~src msg =
  let b = Buffer.create 160 in
  Buffer.add_string b
    (Printf.sprintf "{\"ts\":%.6f,\"level\":\"%s\",\"src\":\"%s\""
       (Unix.gettimeofday ()) (name l) (Jsonu.escape src));
  Buffer.add_string b (Printf.sprintf ",\"msg\":\"%s\"" (Jsonu.escape msg));
  List.iter
    (fun (k, v) ->
      Buffer.add_string b
        (Printf.sprintf ",\"%s\":\"%s\"" (Jsonu.escape k) (Jsonu.escape v)))
    fields;
  Buffer.add_string b "}\n";
  Mutex.protect lock (fun () ->
      output_string !channel (Buffer.contents b);
      flush !channel)

let logf ?fields l ~src fmt =
  Printf.ksprintf (fun msg -> if enabled l then emit ?fields l ~src msg) fmt

let debugf ?fields ~src fmt = logf ?fields Debug ~src fmt
let infof ?fields ~src fmt = logf ?fields Info ~src fmt
let warnf ~src fmt = logf Warn ~src fmt
let errorf ~src fmt = logf Error ~src fmt
