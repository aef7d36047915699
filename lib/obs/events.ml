type span = {
  pid : int;
  track : int;
  name : string;
  cat : string;
  t0 : float;
  dur : float;
}

let dummy = { pid = 0; track = 0; name = ""; cat = ""; t0 = 0.; dur = 0. }

type t = {
  capacity : int;
  mutable spans : span array; (* doubling buffer, [0, len) live *)
  mutable len : int;
  mutable dropped : int;
  process_names : (int, string) Hashtbl.t;
  track_names : (int * int, string) Hashtbl.t;
}

let create ?(capacity = 1_000_000) () =
  if capacity < 1 then invalid_arg "Events.create: capacity >= 1";
  {
    capacity;
    spans = Array.make (Int.min capacity 1024) dummy;
    len = 0;
    dropped = 0;
    process_names = Hashtbl.create 16;
    track_names = Hashtbl.create 64;
  }

let emit t ?(pid = 0) ?(cat = "") ~track ~name ~t0 dur =
  if t.len >= t.capacity then t.dropped <- t.dropped + 1
  else begin
    if t.len = Array.length t.spans then begin
      let bigger =
        Array.make (Int.min t.capacity (2 * Array.length t.spans)) dummy
      in
      Array.blit t.spans 0 bigger 0 t.len;
      t.spans <- bigger
    end;
    t.spans.(t.len) <- { pid; track; name; cat; t0; dur };
    t.len <- t.len + 1
  end

let name_process t pid name = Hashtbl.replace t.process_names pid name

let name_track t ?(pid = 0) track name =
  Hashtbl.replace t.track_names (pid, track) name

let count t = t.len

let dropped t = t.dropped

let iter t f =
  for i = 0 to t.len - 1 do
    f t.spans.(i)
  done

(* ------------------------------------------------------------------ *)
(* Sinks.  Simulation time units are exported as trace microseconds so
   viewers show sensible magnitudes. *)

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let write_chrome t oc =
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  let event line =
    if not !first then output_string oc ",\n";
    first := false;
    output_string oc line
  in
  List.iter
    (fun (pid, name) ->
      event
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"%s\"}}"
           pid (Jsonu.escape name)))
    (sorted_bindings t.process_names);
  List.iter
    (fun ((pid, track), name) ->
      event
        (Printf.sprintf
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
           pid track (Jsonu.escape name)))
    (sorted_bindings t.track_names);
  iter t (fun s ->
      event
        (Printf.sprintf
           "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d}"
           (Jsonu.escape s.name) (Jsonu.escape s.cat) (Jsonu.number s.t0)
           (Jsonu.number s.dur) s.pid s.track));
  output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n"
