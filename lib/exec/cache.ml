open Lattol_core
open Lattol_topology

(* Bump when the key derivation or the value encoding changes: stale
   entries from older layouts then simply miss.  Version 3 moved the
   store into one append-only log of journal records; the version is
   part of the log's file name, so an older layout is never read. *)
let format_version = 3

let log_name = Printf.sprintf "lattol-cache-%d.log" format_version

let quarantine_name = Printf.sprintf "lattol-cache-%d.quarantine" format_version

type stats = {
  memo_hits : int;
  disk_hits : int;
  misses : int;
  solves : int;
  stores : int;
  corrupt : int;
  tmp_reclaimed : int;
}

(* In-run memo entry: [Running] parks later requesters of the same key on
   the condition variable until the first one finishes, so a shared
   configuration (every p_remote sweep point has the same ideal network)
   is solved exactly once no matter how many workers ask for it. *)
type entry = Running | Done of Measures.t

type t = {
  dir : string option; (* None = in-memory only *)
  index : (string, string) Hashtbl.t;
      (* key -> payload, replayed from the log at open and never mutated
         afterwards: workers read it without the lock *)
  memo : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  cond : Condition.t;
  mutable memo_hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable solves : int;
  mutable stores : int;
  mutable corrupt : int;
}

(* ------------------------------------------------------------------ *)
(* The record envelope and file reader, shared with Journal *)

let record_line ~id ~payload =
  Printf.sprintf "%s %s %s\n"
    (Digest.to_hex (Digest.string (id ^ " " ^ payload)))
    id payload

(* The digest covers everything after "<md5-hex> ", so it is checked on
   the line in place. *)
let parse_record line =
  let n = String.length line in
  if n < 35 || line.[32] <> ' ' then None
  else
    match String.index_from_opt line 33 ' ' with
    | Some sp
      when sp > 33
           && String.equal
                (Digest.to_hex (Digest.substring line 33 (n - 33)))
                (String.sub line 0 32) ->
      Some (String.sub line 33 (sp - 33), String.sub line (sp + 1) (n - sp - 1))
    | _ -> None

let rec fold_lines text ~pos f acc =
  match String.index_from_opt text pos '\n' with
  | Some nl ->
    fold_lines text ~pos:(nl + 1) f (f acc (String.sub text pos (nl - pos)))
  | None -> (acc, String.sub text pos (String.length text - pos))

(* Files are read through a raw descriptor: an in_channel mallocs a 64 KB
   buffer that lives until the GC finalizes the channel.  [None] when
   unreadable. *)
let read_file path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error _ -> None
  | fd ->
    let rec fill b off =
      match Unix.read fd b off (Bytes.length b - off) with
      | 0 -> Some (Bytes.sub_string b 0 off)
      | k -> fill b (off + k)
    in
    let text =
      try fill (Bytes.create (Unix.fstat fd).Unix.st_size) 0
      with Unix.Unix_error _ -> None
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    text

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

(* ------------------------------------------------------------------ *)

(* Replay the log once, before any worker can run.  A complete line that
   fails verification is counted; an unterminated tail may be another
   process's append still in flight, so it is skipped uncounted.  A
   later record for a key wins. *)
let create ?dir () =
  let index = Hashtbl.create 64 in
  let corrupt =
    match Option.bind dir (fun d -> read_file (Filename.concat d log_name)) with
    | None -> 0
    | Some text ->
      fst
        (fold_lines text ~pos:0
           (fun bad line ->
             match parse_record line with
             | Some (k, payload) ->
               Hashtbl.replace index k payload;
               bad
             | None -> bad + 1)
           0)
  in
  {
    dir;
    index;
    memo = Hashtbl.create 64;
    lock = Mutex.create ();
    cond = Condition.create ();
    memo_hits = 0;
    disk_hits = 0;
    misses = 0;
    solves = 0;
    stores = 0;
    corrupt;
  }

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      memo_hits = t.memo_hits;
      disk_hits = t.disk_hits;
      misses = t.misses;
      solves = t.solves;
      stores = t.stores;
      corrupt = t.corrupt;
      tmp_reclaimed = 0;
    }
  in
  Mutex.unlock t.lock;
  s

let note_corrupt t =
  Mutex.lock t.lock;
  t.corrupt <- t.corrupt + 1;
  Mutex.unlock t.lock

let inflight t =
  Mutex.lock t.lock;
  let n =
    Hashtbl.fold
      (fun _ entry acc -> match entry with Running -> acc + 1 | Done _ -> acc)
      t.memo 0
  in
  Mutex.unlock t.lock;
  n

(* The historical prefix is load-bearing (golden cram output and the CI
   warm-cache grep both match on it); the corrupt count only appears when
   it is nonzero. *)
let pp_stats ppf (s : stats) =
  Format.fprintf ppf "%d hits (%d disk, %d shared), %d misses, %d solves"
    (s.disk_hits + s.memo_hits)
    s.disk_hits s.memo_hits s.misses s.solves;
  if s.corrupt > 0 then Format.fprintf ppf ", %d corrupt" s.corrupt

(* ------------------------------------------------------------------ *)
(* Canonical key *)

(* Exact hexadecimal floats: used for the on-disk value encoding, where a
   stored measure must round-trip bit-identically. *)
let hfloat b v = Printf.bprintf b "%h" v

(* Key encoding additionally canonicalizes the two bit-level float
   pathologies: -0.0 parameterizes the same solve as 0.0, and every nan
   payload/sign the same solve as every other, so they must share a cache
   key ("%h" would render "-0x0p+0" vs "0x0p+0" and "-nan" vs "nan"). *)
let kfloat b v =
  if Float.is_nan v then Buffer.add_string b "nan"
  else if Float.equal v 0. then Buffer.add_string b "0x0p+0"
  else Printf.bprintf b "%h" v

let canonical_of_params b (p : Params.t) =
  Printf.bprintf b "topology=%s;"
    (match p.Params.topology with
    | Lattol_topology.Topology.Torus -> "torus"
    | Lattol_topology.Topology.Mesh -> "mesh");
  Printf.bprintf b "k=%d;dimensions=%d;n_t=%d;" p.Params.k p.Params.dimensions
    p.Params.n_t;
  Printf.bprintf b "runlength=";
  kfloat b p.Params.runlength;
  Printf.bprintf b ";context_switch=";
  kfloat b p.Params.context_switch;
  Printf.bprintf b ";p_remote=";
  kfloat b p.Params.p_remote;
  Printf.bprintf b ";pattern=";
  (match p.Params.pattern with
  | Access.Uniform -> Printf.bprintf b "uniform"
  | Access.Geometric p_sw ->
    Printf.bprintf b "geometric:";
    kfloat b p_sw
  | Access.Explicit m ->
    Printf.bprintf b "explicit:";
    Array.iter
      (fun row ->
        Array.iter
          (fun v ->
            kfloat b v;
            Buffer.add_char b ',')
          row;
        Buffer.add_char b '/')
      m);
  Printf.bprintf b ";l_mem=";
  kfloat b p.Params.l_mem;
  Printf.bprintf b ";mem_ports=%d;s_switch=" p.Params.mem_ports;
  kfloat b p.Params.s_switch;
  Printf.bprintf b ";switch_pipeline=%d;sync_unit=" p.Params.switch_pipeline;
  kfloat b p.Params.sync_unit

let canonical p =
  let b = Buffer.create 256 in
  canonical_of_params b p;
  Buffer.contents b

let key ~solver_id p =
  let b = Buffer.create 256 in
  Printf.bprintf b "lattol/%d;solver=%s;" format_version solver_id;
  canonical_of_params b p;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Single-line measures codec: the payload of a cache record and of a
   journal record.  Exact hex floats, so a stored measure round-trips
   bit-identically. *)

let fields (m : Measures.t) =
  [
    ("u_p", m.Measures.u_p);
    ("lambda", m.Measures.lambda);
    ("lambda_net", m.Measures.lambda_net);
    ("s_obs", m.Measures.s_obs);
    ("l_obs", m.Measures.l_obs);
    ("cycle_time", m.Measures.cycle_time);
    ("util_memory", m.Measures.util_memory);
    ("util_switch_in", m.Measures.util_switch_in);
    ("util_switch_out", m.Measures.util_switch_out);
    ("util_sync", m.Measures.util_sync);
    ("su_obs", m.Measures.su_obs);
    ("queue_processor", m.Measures.queue_processor);
    ("queue_memory", m.Measures.queue_memory);
    ("queue_network", m.Measures.queue_network);
  ]

let encode_measures_line (m : Measures.t) =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, v) ->
      Printf.bprintf b "%s=" name;
      hfloat b v;
      Buffer.add_char b ';')
    (fields m);
  Printf.bprintf b "iterations=%d;converged=%b" m.Measures.iterations
    m.Measures.converged;
  Buffer.contents b

let decode_measures_line s =
  let tbl = Hashtbl.create 17 in
  try
    List.iter
      (fun item ->
        if item <> "" then
          match String.index_opt item '=' with
          | None -> raise Exit
          | Some i ->
            Hashtbl.replace tbl (String.sub item 0 i)
              (String.sub item (i + 1) (String.length item - i - 1)))
      (String.split_on_char ';' s);
    let f name = float_of_string (Hashtbl.find tbl name) in
    Some
      {
        Measures.u_p = f "u_p";
        lambda = f "lambda";
        lambda_net = f "lambda_net";
        s_obs = f "s_obs";
        l_obs = f "l_obs";
        cycle_time = f "cycle_time";
        util_memory = f "util_memory";
        util_switch_in = f "util_switch_in";
        util_switch_out = f "util_switch_out";
        util_sync = f "util_sync";
        su_obs = f "su_obs";
        queue_processor = f "queue_processor";
        queue_memory = f "queue_memory";
        queue_network = f "queue_network";
        iterations = int_of_string (Hashtbl.find tbl "iterations");
        converged = bool_of_string (Hashtbl.find tbl "converged");
      }
  with Exit | Not_found | Failure _ | Invalid_argument _ -> None

(* ------------------------------------------------------------------ *)
(* The on-disk store *)

let disk_find t k =
  match Hashtbl.find_opt t.index k with
  | None -> None
  | Some payload -> (
    match decode_measures_line payload with
    | Some _ as m -> m
    | None ->
      note_corrupt t;
      None)

(* One open, one write, one close.  [Ok false] = a short write. *)
let append path text =
  match
    Unix.openfile path
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
      0o644
  with
  | exception Unix.Unix_error (e, _, _) -> Error e
  | fd ->
    let n = String.length text in
    let written =
      try Unix.single_write_substring fd text 0 n with Unix.Unix_error _ -> 0
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Ok (written = n)

(* Each record is one O_APPEND write, so appends from processes sharing
   the directory never interleave on a local filesystem (and fail
   verification where they do).  No fsync: a lost record only re-solves.
   The directory is created on the first store; an unwritable location
   makes the store fail, never the run. *)
let disk_store t k m =
  match t.dir with
  | None -> false
  | Some dir -> (
    let path = Filename.concat dir log_name in
    let line = record_line ~id:k ~payload:(encode_measures_line m) in
    match append path line with
    | Error Unix.ENOENT ->
      mkdir_p dir;
      append path line = Ok true
    | r -> r = Ok true)

(* ------------------------------------------------------------------ *)

module Tc = Lattol_obs.Trace_ctx

let find_or_compute ?(trace = Tc.disabled) t ~key:k f =
  (* Trace spans (all cat "cache-wait"): "memo-hit" an in-run hit,
     "park" the time spent parked on another requester's in-flight solve
     of the same key, "disk-read" the store probe, "store" the
     write-back.  The recorder lock is a leaf lock, so recording while
     holding [t.lock] is ordering-safe. *)
  let rec claim () =
    match Hashtbl.find_opt t.memo k with
    | Some (Done m) ->
      t.memo_hits <- t.memo_hits + 1;
      Mutex.unlock t.lock;
      if Tc.enabled trace then
        Tc.record_interval ~cat:"cache-wait" ~name:"memo-hit"
          ~t0_ns:(Tc.now_ns ()) trace;
      `Hit m
    | Some Running ->
      if Tc.enabled trace then begin
        let t0 = Tc.now_ns () in
        let rec wait () =
          Condition.wait t.cond t.lock;
          match Hashtbl.find_opt t.memo k with
          | Some Running -> wait ()
          | _ -> ()
        in
        wait ();
        Tc.record_interval ~cat:"cache-wait" ~name:"park" ~t0_ns:t0 trace;
        claim ()
      end
      else begin
        Condition.wait t.cond t.lock;
        claim ()
      end
    | None ->
      Hashtbl.replace t.memo k Running;
      Mutex.unlock t.lock;
      `Claimed
  in
  Mutex.lock t.lock;
  match claim () with
  | `Hit m -> m
  | `Claimed -> (
    let finish update m =
      Mutex.lock t.lock;
      Hashtbl.replace t.memo k (Done m);
      update ();
      Condition.broadcast t.cond;
      Mutex.unlock t.lock;
      m
    in
    let probe_t0 = if Tc.enabled trace then Tc.now_ns () else 0L in
    match disk_find t k with
    | Some m ->
      if Tc.enabled trace then
        Tc.record_interval ~cat:"cache-wait" ~name:"disk-read"
          ~meta:[ ("outcome", "hit") ]
          ~t0_ns:probe_t0 trace;
      finish (fun () -> t.disk_hits <- t.disk_hits + 1) m
    | None -> (
      if Tc.enabled trace && t.dir <> None then
        Tc.record_interval ~cat:"cache-wait" ~name:"disk-read"
          ~meta:[ ("outcome", "miss") ]
          ~t0_ns:probe_t0 trace;
      match f () with
      | m ->
        let store_t0 = if Tc.enabled trace then Tc.now_ns () else 0L in
        let stored = disk_store t k m in
        if Tc.enabled trace && stored then
          Tc.record_interval ~cat:"cache-wait" ~name:"store" ~t0_ns:store_t0
            trace;
        finish
          (fun () ->
            t.misses <- t.misses + 1;
            t.solves <- t.solves + 1;
            if stored then t.stores <- t.stores + 1)
          m
      | exception e ->
        (* Release the claim so parked requesters retry (and fail on
           their own terms) instead of waiting forever. *)
        Mutex.lock t.lock;
        Hashtbl.remove t.memo k;
        t.misses <- t.misses + 1;
        Condition.broadcast t.cond;
        Mutex.unlock t.lock;
        raise e))

(* ------------------------------------------------------------------ *)
(* Scrub: compaction *)

type scrub_report = { scanned : int; intact : int; quarantined : int }

let unlines ls = String.concat "" (List.concat_map (fun l -> [ l; "\n" ]) ls)

let write_file flags path text =
  let fd =
    Unix.openfile path
      (Unix.O_WRONLY :: Unix.O_CREAT :: Unix.O_CLOEXEC :: flags)
      0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.write_substring fd text 0 (String.length text));
      Unix.fsync fd)

(* The bad lines reach the quarantine file before the compacted log
   replaces the old one, so no byte is lost to a failed scrub. *)
let scrub ~dir =
  let log = Filename.concat dir log_name in
  match read_file log with
  | None -> { scanned = 0; intact = 0; quarantined = 0 }
  | Some text ->
    let live = Hashtbl.create 64 in
    let (intact, bad), tail =
      fold_lines text ~pos:0
        (fun (intact, bad) line ->
          match parse_record line with
          | Some (k, payload)
            when Option.is_some (decode_measures_line payload) ->
            Hashtbl.replace live k line;
            (intact + 1, bad)
          | _ -> (intact, line :: bad))
        (0, [])
    in
    (* No other process writes during a scrub, so a tail is a torn
       append. *)
    let bad = List.rev (if tail = "" then bad else tail :: bad) in
    let quarantined = List.length bad in
    if quarantined > 0 then
      write_file [ Unix.O_APPEND ] (Filename.concat dir quarantine_name)
        (unlines bad);
    let tmp = log ^ ".tmp" in
    write_file [ Unix.O_TRUNC ] tmp
      (unlines
         (List.sort String.compare
            (Hashtbl.fold (fun _ line acc -> line :: acc) live [])));
    Unix.rename tmp log;
    { scanned = intact + quarantined; intact; quarantined }

let pp_scrub ppf r =
  Format.fprintf ppf "%d records scanned, %d intact, %d quarantined" r.scanned
    r.intact r.quarantined
