(* Append-only, checksummed run journal ("lattol-journal" format 1).

   One header line binds the file to a run specification:

     lattol-journal 1 <meta>

   then one record per completed unit of work:

     <md5-hex> <id> <payload>

   where the digest covers "<id> <payload>" (the envelope the solve
   cache's log shares: {!Cache.record_line}).  Appends are serialized
   under a mutex and written in batches, one fsync each, so after a
   SIGKILL the file is a valid journal plus at most one torn trailing
   record — {!resume} verifies every line, truncates the bad tail, and
   replays the survivors.  [meta] is the caller's digest of everything that
   shapes the results (parameters, axes, solver, format versions): a
   mismatch on resume is an error, never a silent wrong answer. *)

let format_version = 1

type t = {
  path : string;
  fd : Unix.file_descr;
  lock : Mutex.t;
  entries : (string * string) list;
  index : (string, string) Hashtbl.t;
  discarded : int;
  mutable appended : int;
  on_record : int -> unit;
}

let entries t = t.entries

let replayed t = List.length t.entries

let discarded t = t.discarded

let appended t = t.appended

let find t id = Hashtbl.find_opt t.index id

let header meta = Printf.sprintf "lattol-journal %d %s\n" format_version meta

let single_line what s =
  if String.exists (fun c -> c = '\n' || c = '\r') s then
    invalid_arg (Printf.sprintf "Journal: %s must be a single line" what)

let check_meta meta =
  single_line "meta" meta;
  if String.contains meta ' ' then
    invalid_arg "Journal: meta must not contain spaces"

let check_id id =
  single_line "id" id;
  if id = "" || String.contains id ' ' then
    invalid_arg "Journal: id must be non-empty and space-free"

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      let k = Unix.write_substring fd s off (n - off) in
      go (off + k)
  in
  go 0

let make ~path ~fd ~entries ~discarded on_record =
  let index = Hashtbl.create 64 in
  List.iter (fun (id, payload) -> Hashtbl.replace index id payload) entries;
  {
    path;
    fd;
    lock = Mutex.create ();
    entries;
    index;
    discarded;
    appended = 0;
    on_record;
  }

let create ?(on_record = fun _ -> ()) ~path ~meta () =
  check_meta meta;
  Cache.mkdir_p (Filename.dirname path);
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  write_all fd (header meta);
  Unix.fsync fd;
  make ~path ~fd ~entries:[] ~discarded:0 on_record

let resume ?(on_record = fun _ -> ()) ~path ~meta () =
  check_meta meta;
  if not (Sys.file_exists path) then Ok (create ~on_record ~path ~meta ())
  else
    match Cache.read_file path with
    | None -> Error (Printf.sprintf "cannot read journal %s" path)
    | Some text when not (String.starts_with ~prefix:(header meta) text) ->
      if String.starts_with ~prefix:"lattol-journal " text then
        Error
          (Printf.sprintf
             "journal %s was written for a different run configuration \
              (start fresh without --resume, or delete it)"
             path)
      else Error (Printf.sprintf "%s is not a lattol-journal file" path)
    | Some text ->
      (* [good] = offset just past the last verified record; the first
         torn or corrupt line and everything after it are truncated
         away. *)
      let hlen = String.length (header meta) in
      let (entries, good, discarded), tail =
        Cache.fold_lines text ~pos:hlen
          (fun (entries, good, discarded) line ->
            match if discarded = 0 then Cache.parse_record line else None with
            | Some entry -> (entry :: entries, good + String.length line + 1, 0)
            | None -> (entries, good, discarded + 1))
          ([], hlen, 0)
      in
      let discarded = if tail = "" then discarded else discarded + 1 in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      if discarded > 0 then begin
        Unix.ftruncate fd good;
        Unix.fsync fd
      end;
      ignore (Unix.lseek fd good Unix.SEEK_SET);
      Ok (make ~path ~fd ~entries:(List.rev entries) ~discarded on_record)

let append_batch t records =
  match records with
  | [] -> ()
  | _ ->
    (* Validate and render everything before taking the lock, so a
       malformed record cannot leave a half-written batch behind. *)
    let lines =
      List.map
        (fun (id, payload) ->
          check_id id;
          single_line "payload" payload;
          Cache.record_line ~id ~payload)
        records
    in
    let text = String.concat "" lines in
    let last =
      Mutex.protect t.lock (fun () ->
          write_all t.fd text;
          Unix.fsync t.fd;
          List.iter
            (fun (id, payload) -> Hashtbl.replace t.index id payload)
            records;
          t.appended <- t.appended + List.length records;
          t.appended)
    in
    (* Fire the hook once per record (the chaos kill switch counts
       records, not batches), outside the lock. *)
    let first = last - List.length records + 1 in
    List.iteri (fun i _ -> t.on_record (first + i)) records

let append t ~id ~payload = append_batch t [ (id, payload) ]

let close t = try Unix.close t.fd with Unix.Unix_error (_, _, _) -> ()

(* Replay is id-keyed, so the order batches land in never affects a
   resumed run.  A point span opens at submission, so its wall includes
   queue wait; the batch commit runs between units, under no one point,
   so its span hangs off the run.  The [finally] closes whatever an
   exception left open (finish is idempotent). *)
module Tc = Lattol_obs.Trace_ctx

let map journal ~causal ~jobs ~chunk ~oversubscribe ~monitor ~retry ~deadline
    ~on_poison ~id ~point ~encode ~decode f n =
  let results =
    Array.init n (fun i ->
        Option.bind journal (fun j -> Option.bind (find j (id i)) (decode i)))
  in
  let missing =
    Array.of_list
      (List.filter (fun i -> Option.is_none results.(i)) (List.init n Fun.id))
  in
  let handles = Array.make n Tc.no_handle in
  if Tc.enabled causal then
    Array.iter
      (fun i ->
        let point, name = point i in
        handles.(i) <- Tc.start ~point ~cat:"point" ~name causal)
      missing;
  let trace =
    if Tc.enabled causal then
      Some (fun slot -> Tc.ctx_of handles.(missing.(slot)))
    else None
  in
  let finished pending i y =
    if Option.is_some journal then pending := (id i, encode y) :: !pending;
    Tc.finish handles.(i);
    y
  in
  let flush pending =
    match journal with
    | Some j when !pending <> [] ->
      let t0 = if Tc.enabled causal then Tc.now_ns () else 0L in
      append_batch j (List.rev !pending);
      if Tc.enabled causal then
        Tc.record_interval ~cat:"journal" ~name:"append-batch"
          ~meta:[ ("records", string_of_int (List.length !pending)) ]
          ~t0_ns:t0 causal;
      pending := []
    | _ -> ()
  in
  (* The pool reports a poisoned item by its slot in [missing]; the
     caller's substitute and its record belong to the unit. *)
  let on_poison =
    Option.map
      (fun g pending (p : Pool.poisoned) ->
        let i = missing.(p.Pool.index) in
        finished pending i (g { p with Pool.index = i }))
      on_poison
  in
  let computed, _ =
    Fun.protect
      ~finally:(fun () -> Array.iter Tc.finish handles)
      (fun () ->
        Pool.map_local ?chunk ?oversubscribe ?monitor ?retry ?deadline
          ?on_poison ?trace ~jobs
          ~local:(fun _ -> ref [])
          ~flush
          (fun pending ctx i -> finished pending i (f ctx i))
          missing)
  in
  Array.iteri (fun slot i -> results.(i) <- Some computed.(slot)) missing;
  Array.map
    (function Some y -> y | None -> invalid_arg "Journal.map: missing unit")
    results
