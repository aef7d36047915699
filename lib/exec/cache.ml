open Lattol_core
open Lattol_topology

(* Bump when the key derivation or the value encoding changes: stale
   entries from older layouts then simply miss.  Version 2 added the
   per-entry trailing checksum line. *)
let format_version = 2

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
  memo : (string, entry) Hashtbl.t;
  lock : Mutex.t;
  cond : Condition.t;
  mutable memo_hits : int;
  mutable disk_hits : int;
  mutable misses : int;
  mutable solves : int;
  mutable stores : int;
  mutable corrupt : int;
  mutable tmp_reclaimed : int;
}

(* A process that died between [Filename.temp_file] and [Sys.rename]
   leaves its temp file behind forever.  Reclaim them on open: anything
   matching the store's temp pattern and older than the open itself is an
   orphan (an in-flight writer's temp is younger; losing a race against
   one only makes that store fail atomically and re-solve later). *)
let reclaim_orphan_tmps dir ~before =
  let dir_exists d =
    match Sys.is_directory d with
    | b -> b
    | exception Sys_error _ -> false
  in
  if not (dir_exists dir) then 0
  else
    Array.fold_left
      (fun acc sub ->
        let subdir = Filename.concat dir sub in
        if String.length sub = 2 && dir_exists subdir then
          Array.fold_left
            (fun acc name ->
              if
                String.starts_with ~prefix:"lattol" name
                && Filename.check_suffix name ".tmp"
              then begin
                let p = Filename.concat subdir name in
                match Unix.stat p with
                | st when st.Unix.st_mtime < before -> (
                  match Sys.remove p with
                  | () -> acc + 1
                  | exception Sys_error _ -> acc)
                | _ -> acc
                | exception Unix.Unix_error (_, _, _) -> acc
              end
              else acc)
            acc (Sys.readdir subdir)
        else acc)
      0 (Sys.readdir dir)

let create ?dir () =
  let tmp_reclaimed =
    match dir with
    | None -> 0
    | Some d -> reclaim_orphan_tmps d ~before:(Lattol_robust.Retry.now ())
  in
  {
    dir;
    memo = Hashtbl.create 64;
    lock = Mutex.create ();
    cond = Condition.create ();
    memo_hits = 0;
    disk_hits = 0;
    misses = 0;
    solves = 0;
    stores = 0;
    corrupt = 0;
    tmp_reclaimed;
  }

let directory t = t.dir

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
      tmp_reclaimed = t.tmp_reclaimed;
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
   warm-cache grep both match on it); the robustness counters only appear
   when they are nonzero. *)
let pp_stats ppf (s : stats) =
  Format.fprintf ppf "%d hits (%d disk, %d shared), %d misses, %d solves"
    (s.disk_hits + s.memo_hits)
    s.disk_hits s.memo_hits s.misses s.solves;
  if s.corrupt > 0 then Format.fprintf ppf ", %d corrupt" s.corrupt;
  if s.tmp_reclaimed > 0 then
    Format.fprintf ppf ", %d tmp reclaimed" s.tmp_reclaimed

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
(* On-disk value encoding *)

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

let measures_of_table tbl =
  try
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
  with Not_found | Failure _ -> None

let table_of_pairs split s =
  let tbl = Hashtbl.create 17 in
  match
    List.iter
      (fun item ->
        if item <> "" then
          match String.index_opt item split with
          | None -> raise Exit
          | Some i ->
            Hashtbl.replace tbl (String.sub item 0 i)
              (String.sub item (i + 1) (String.length item - i - 1)))
      s
  with
  | () -> Some tbl
  | exception Exit -> None

let encode (m : Measures.t) =
  let b = Buffer.create 512 in
  Printf.bprintf b "lattol-cache %d\n" format_version;
  List.iter
    (fun (name, v) ->
      Printf.bprintf b "%s " name;
      hfloat b v;
      Buffer.add_char b '\n')
    (fields m);
  Printf.bprintf b "iterations %d\n" m.Measures.iterations;
  Printf.bprintf b "converged %b\n" m.Measures.converged;
  (* The trailing checksum line covers every preceding byte: truncation
     and bit flips alike fail verification. *)
  Printf.bprintf b "checksum %s"
    (Digest.to_hex (Digest.string (Buffer.contents b)));
  Buffer.add_char b '\n';
  Buffer.contents b

(* Split off the trailing "checksum <hex>" line; [None] if the entry does
   not end with one (truncated, or torn mid-line). *)
let checksum_split text =
  let n = String.length text in
  if n = 0 || text.[n - 1] <> '\n' then None
  else
    let start =
      match String.rindex_from_opt text (n - 2) '\n' with
      | Some i -> i + 1
      | None -> 0
    in
    let line = String.sub text start (n - 1 - start) in
    if String.starts_with ~prefix:"checksum " line then
      Some
        ( String.sub text 0 start,
          String.sub line 9 (String.length line - 9) )
    else None

type decoded = Value of Measures.t | Corrupt | Stale

(* Decode one on-disk entry.  [Stale] = an intact header from an older
   format version (a plain miss: the store overwrites it); [Corrupt] = an
   entry claiming the current format that fails verification or parsing
   (quarantined, counted, re-solved). *)
let decode_entry text =
  match String.index_opt text '\n' with
  | None -> Corrupt
  | Some i ->
    let header = String.sub text 0 i in
    if not (String.equal header (Printf.sprintf "lattol-cache %d" format_version))
    then
      if String.starts_with ~prefix:"lattol-cache " header then Stale
      else Corrupt
    else begin
      match checksum_split text with
      | None -> Corrupt
      | Some (body, hex) ->
        if not (String.equal (Digest.to_hex (Digest.string body)) hex) then
          Corrupt
        else begin
          match
            String.split_on_char '\n' (String.trim body) |> List.tl
            |> table_of_pairs ' '
          with
          | None -> Corrupt
          | Some tbl -> (
            match measures_of_table tbl with
            | Some m -> Value m
            | None -> Corrupt)
        end
    end

(* ------------------------------------------------------------------ *)
(* Single-line measures codec (the checkpoint Journal's payload format;
   same exact hex floats, so a journaled measure round-trips
   bit-identically just like a cached one). *)

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
  match table_of_pairs '=' (String.split_on_char ';' s) with
  | None -> None
  | Some tbl -> measures_of_table tbl

let path_of_key dir k = Filename.concat (Filename.concat dir (String.sub k 0 2)) k

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

(* A corrupted entry is moved aside (never deleted: the bytes are
   evidence) so the key misses and re-solves; the fresh store then
   overwrites the now-vacant slot. *)
let quarantine dir k =
  let qdir = Filename.concat dir "quarantine" in
  mkdir_p qdir;
  try Sys.rename (path_of_key dir k) (Filename.concat qdir k)
  with Sys_error _ -> ()

(* Entries are read through a raw descriptor: an in_channel mallocs a
   64 KB buffer that lives until the GC finalizes the channel, and a warm
   sweep reads hundreds of entries per run.  [None] when unreadable. *)
let read_entry path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
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

let disk_find t k =
  match t.dir with
  | None -> None
  | Some dir -> (
    match read_entry (path_of_key dir k) with
    | Some text -> (
      match decode_entry text with
      | Value m -> Some m
      | Stale -> None
      | Corrupt ->
        quarantine dir k;
        note_corrupt t;
        None)
    | None -> None)

let disk_store t k m =
  match t.dir with
  | None -> false
  | Some dir -> (
    let path = path_of_key dir k in
    mkdir_p (Filename.dirname path);
    (* Write-then-rename so concurrent writers of the same key (two runs
       sharing a cache directory) never expose a torn entry. *)
    let tmp =
      Filename.temp_file ~temp_dir:(Filename.dirname path) "lattol" ".tmp"
    in
    match
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc (encode m));
      Sys.rename tmp path
    with
    | () -> true
    | exception Sys_error _ ->
      (try Sys.remove tmp with Sys_error _ -> ());
      false)

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
(* Scrub: full verification pass over the on-disk store *)

type scrub_report = {
  scanned : int;
  intact : int;
  quarantined : int;
  stale : int;
}

let empty_scrub = { scanned = 0; intact = 0; quarantined = 0; stale = 0 }

let scrub t =
  match t.dir with
  | None -> empty_scrub
  | Some dir ->
    let dir_exists d =
      match Sys.is_directory d with
      | b -> b
      | exception Sys_error _ -> false
    in
    if not (dir_exists dir) then empty_scrub
    else begin
      let subdirs = Sys.readdir dir in
      Array.sort String.compare subdirs;
      Array.fold_left
        (fun acc sub ->
          let subdir = Filename.concat dir sub in
          if String.length sub = 2 && dir_exists subdir then begin
            let names = Sys.readdir subdir in
            Array.sort String.compare names;
            Array.fold_left
              (fun acc name ->
                if Filename.check_suffix name ".tmp" then acc
                else begin
                  let acc = { acc with scanned = acc.scanned + 1 } in
                  match read_entry (Filename.concat subdir name) with
                  | Some text -> (
                    match decode_entry text with
                    | Value _ -> { acc with intact = acc.intact + 1 }
                    | Stale ->
                      (* An older format never gets served; dropping it
                         here reclaims the space a store would otherwise
                         only reuse on the same key. *)
                      (try Sys.remove (Filename.concat subdir name)
                       with Sys_error _ -> ());
                      { acc with stale = acc.stale + 1 }
                    | Corrupt ->
                      quarantine dir name;
                      note_corrupt t;
                      { acc with quarantined = acc.quarantined + 1 })
                  | None -> acc
                end)
              acc names
          end
          else acc)
        empty_scrub subdirs
    end

let pp_scrub ppf r =
  Format.fprintf ppf "%d entries scanned, %d intact, %d quarantined, %d stale"
    r.scanned r.intact r.quarantined r.stale
