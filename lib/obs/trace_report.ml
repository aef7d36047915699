(* Critical-path analysis.  See the .mli for the attribution model.

   Determinism: spans arrive in finish order, which depends on domain
   scheduling, so everything here is re-sorted — points into natural id
   order, critical-path ties onto the smallest span id — before any
   output is produced.  The same workload at any --jobs renders the same
   report (modulo the measured times themselves). *)

module Tc = Trace_ctx

type step = { s_name : string; s_cat : string; s_ms : float }

type point_report = {
  point : string;
  label : string;
  p_trace_id : string;
  wall_ms : float;
  queue_ms : float;
  cache_ms : float;
  solve_ms : float;
  journal_ms : float;
  other_ms : float;
  verdict : string;
  critical_path : step list;
  span_count : int;
}

type t = {
  r_root : string;
  r_trace_id : string;
  r_wall_ms : float;
  r_points : point_report list;
  r_verdict : string;
  r_queue_ms : float;
  r_cache_ms : float;
  r_solve_ms : float;
  r_journal_ms : float;
  r_other_ms : float;
  r_run_journal_ms : float;
  r_run_journal_spans : int;
  r_span_count : int;
  r_dropped : int;
}

let ms ns = Int64.to_float ns /. 1e6

(* Digit-aware ordering, so "grid/10" sorts after "grid/9". *)
let natural_compare a b =
  let la = String.length a and lb = String.length b in
  let is_digit c = c >= '0' && c <= '9' in
  let rec go i j =
    if i >= la then if j >= lb then 0 else -1
    else if j >= lb then 1
    else if is_digit a.[i] && is_digit b.[j] then begin
      let ia = ref i and ib = ref j in
      while !ia < la && is_digit a.[!ia] do incr ia done;
      while !ib < lb && is_digit b.[!ib] do incr ib done;
      let sa = ref i and sb = ref j in
      while !sa < !ia - 1 && a.[!sa] = '0' do incr sa done;
      while !sb < !ib - 1 && b.[!sb] = '0' do incr sb done;
      let na = !ia - !sa and nb = !ib - !sb in
      if na <> nb then compare na nb
      else
        let c = compare (String.sub a !sa na) (String.sub b !sb nb) in
        if c <> 0 then c else go !ia !ib
    end
    else
      let c = Char.compare a.[i] b.[j] in
      if c <> 0 then c else go (i + 1) (j + 1)
  in
  go 0 0

let verdict_of ~queue ~cache ~solve ~journal =
  (* Ties break in the listed order; all-zero means no category span was
     ever recorded under the point. *)
  let cands =
    [
      ("solve", solve);
      ("cache-wait", cache);
      ("queue", queue);
      ("journal", journal);
    ]
  in
  let name, best =
    List.fold_left
      (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv))
      (List.hd cands) (List.tl cands)
  in
  if best <= 0. then "untracked" else name

let add_child tbl parent s =
  Hashtbl.replace tbl parent
    (s :: (match Hashtbl.find_opt tbl parent with Some l -> l | None -> []))

let analyze_point ~trace_id point ss =
  let ids = Hashtbl.create 32 in
  List.iter (fun (s : Tc.span) -> Hashtbl.replace ids s.id s) ss;
  let children = Hashtbl.create 32 in
  List.iter
    (fun (s : Tc.span) ->
      if Hashtbl.mem ids s.parent then add_child children s.parent s)
    ss;
  let tops =
    List.filter (fun (s : Tc.span) -> not (Hashtbl.mem ids s.parent)) ss
  in
  let top =
    match tops with
    | [] -> None
    | t :: ts ->
      Some
        (List.fold_left
           (fun (b : Tc.span) (s : Tc.span) ->
             if s.dur_ns > b.dur_ns then s else b)
           t ts)
  in
  let wall_ns =
    List.fold_left (fun a (s : Tc.span) -> Int64.add a s.dur_ns) 0L tops
  in
  let excl (s : Tc.span) =
    let kids =
      match Hashtbl.find_opt children s.id with Some l -> l | None -> []
    in
    let kid_ns =
      List.fold_left (fun a (k : Tc.span) -> Int64.add a k.dur_ns) 0L kids
    in
    max 0. (ms (Int64.sub s.dur_ns kid_ns))
  in
  (* Same-category siblings can nest: the pool hangs a chunk's claim
     span beside its first point's queue-wait, inside the wait's
     interval.  A span inside a same-category sibling is already counted
     there (of two equal intervals, the one with the smaller id). *)
  let counted_in (o : Tc.span) (s : Tc.span) =
    o.id <> s.id && o.parent = s.parent && String.equal o.cat s.cat
    && o.t0_ns <= s.t0_ns
    && Int64.add s.t0_ns s.dur_ns <= Int64.add o.t0_ns o.dur_ns
    && (o.dur_ns > s.dur_ns || o.id < s.id)
  in
  let nested (s : Tc.span) =
    match Hashtbl.find_opt children s.parent with
    | Some siblings -> List.exists (fun o -> counted_in o s) siblings
    | None -> false
  in
  let queue = ref 0. and cache = ref 0. and solve = ref 0. in
  let journal = ref 0. in
  List.iter
    (fun (s : Tc.span) ->
      if not (nested s) then
        let e = excl s in
        match s.cat with
        | "queue" -> queue := !queue +. e
        | "cache-wait" -> cache := !cache +. e
        | "solve" -> solve := !solve +. e
        | "journal" -> journal := !journal +. e
        | _ -> ())
    ss;
  let wall_ms = ms wall_ns in
  let attributed = !queue +. !cache +. !solve +. !journal in
  let other_ms = Float.max 0. (wall_ms -. attributed) in
  let rec path (s : Tc.span) acc =
    let acc = { s_name = s.name; s_cat = s.cat; s_ms = ms s.dur_ns } :: acc in
    match Hashtbl.find_opt children s.id with
    | None | Some [] -> List.rev acc
    | Some (c :: cs) ->
      path
        (List.fold_left
           (fun (b : Tc.span) (k : Tc.span) ->
             if k.dur_ns > b.dur_ns || (k.dur_ns = b.dur_ns && k.id < b.id)
             then k
             else b)
           c cs)
        acc
  in
  {
    point;
    label = (match top with Some s -> s.name | None -> point);
    p_trace_id = (if trace_id = "" then "" else trace_id ^ "/" ^ point);
    wall_ms;
    queue_ms = !queue;
    cache_ms = !cache;
    solve_ms = !solve;
    journal_ms = !journal;
    other_ms;
    verdict = verdict_of ~queue:!queue ~cache:!cache ~solve:!solve
                ~journal:!journal;
    critical_path = (match top with Some s -> path s [] | None -> []);
    span_count = List.length ss;
  }

(* Deliberately does NOT seal: the live /trace.json probe analyzes a
   running trace, and sealing would freeze the root span's duration at
   the first scrape.  An unsealed trace reports wall time as "so far";
   end-of-run callers seal first (Trace_ctx.seal is idempotent). *)
let analyze r =
  let spans = Tc.spans r in
  let by_point = Hashtbl.create 128 in
  let root_dur = ref (Int64.sub (Tc.now_ns ()) (Tc.started_ns r)) in
  List.iter
    (fun (s : Tc.span) ->
      if s.id = 1 then root_dur := s.dur_ns;
      if s.point <> "" then add_child by_point s.point s)
    spans;
  let run_journal =
    List.filter (fun (s : Tc.span) -> s.point = "" && s.cat = "journal") spans
  in
  let points =
    Hashtbl.fold (fun p ss acc -> (p, ss) :: acc) by_point []
    |> List.sort (fun (a, _) (b, _) -> natural_compare a b)
    |> List.map (fun (p, ss) ->
           analyze_point ~trace_id:(Tc.trace_id r) p ss)
  in
  let sum f = List.fold_left (fun a p -> a +. f p) 0. points in
  let queue = sum (fun p -> p.queue_ms)
  and cache = sum (fun p -> p.cache_ms)
  and solve = sum (fun p -> p.solve_ms)
  and journal = sum (fun p -> p.journal_ms) in
  {
    r_root = Tc.root_name r;
    r_trace_id = Tc.trace_id r;
    r_wall_ms = ms !root_dur;
    r_points = points;
    r_verdict = verdict_of ~queue ~cache ~solve ~journal;
    r_queue_ms = queue;
    r_cache_ms = cache;
    r_solve_ms = solve;
    r_journal_ms = journal;
    r_other_ms = sum (fun p -> p.other_ms);
    r_run_journal_ms =
      ms (List.fold_left (fun a (s : Tc.span) -> Int64.add a s.dur_ns) 0L
            run_journal);
    r_run_journal_spans = List.length run_journal;
    r_span_count = Tc.count r;
    r_dropped = Tc.dropped r;
  }

let slowest k t =
  List.stable_sort
    (fun a b ->
      let c = compare b.wall_ms a.wall_ms in
      if c <> 0 then c else natural_compare a.point b.point)
    t.r_points
  |> List.filteri (fun i _ -> i < k)

(* ---- rendering ---- *)

let pp_table b t =
  let w_point =
    List.fold_left (fun w p -> max w (String.length p.point)) 5 t.r_points
  in
  let w_label =
    List.fold_left (fun w p -> max w (String.length p.label)) 5 t.r_points
  in
  Buffer.add_string b
    (Printf.sprintf "%-*s  %-*s  %9s %9s %9s %9s %9s %9s  %s\n" w_point
       "point" w_label "label" "wall ms" "queue" "cache" "solve" "journal"
       "other" "verdict");
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "%-*s  %-*s  %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f  %s\n"
           w_point p.point w_label p.label p.wall_ms p.queue_ms p.cache_ms
           p.solve_ms p.journal_ms p.other_ms p.verdict))
    t.r_points;
  let wall = List.fold_left (fun a p -> a +. p.wall_ms) 0. t.r_points in
  Buffer.add_string b
    (Printf.sprintf "%-*s  %-*s  %9.3f %9.3f %9.3f %9.3f %9.3f %9.3f  %s\n"
       w_point "TOTAL" w_label "" wall t.r_queue_ms t.r_cache_ms t.r_solve_ms
       t.r_journal_ms t.r_other_ms t.r_verdict);
  Buffer.add_string b
    (Printf.sprintf "run-level journal: %.3f ms in %d spans\n"
       t.r_run_journal_ms t.r_run_journal_spans);
  Buffer.add_string b
    (Printf.sprintf
       "trace %s: %d points, %d spans, run wall %.3f ms, verdict %s\n"
       t.r_trace_id
       (List.length t.r_points)
       t.r_span_count t.r_wall_ms t.r_verdict);
  if t.r_dropped > 0 then
    Buffer.add_string b
      (Printf.sprintf "warning: %d spans dropped (buffer full)\n" t.r_dropped)

let pp_digest b ~k t =
  let sel = slowest k t in
  List.iteri
    (fun i p ->
      Buffer.add_string b
        (Printf.sprintf "#%d %s (%s): %.3f ms, verdict %s\n" (i + 1) p.point
           p.label p.wall_ms p.verdict);
      (match p.critical_path with
      | [] -> ()
      | path ->
        Buffer.add_string b "    critical path: ";
        List.iteri
          (fun j s ->
            if j > 0 then Buffer.add_string b " > ";
            Buffer.add_string b
              (Printf.sprintf "%s (%.3f ms)" s.s_name s.s_ms))
          path;
        Buffer.add_char b '\n');
      Buffer.add_string b (Printf.sprintf "    trace: %s\n" p.p_trace_id))
    sel

let to_json b t =
  let str k v = Printf.sprintf "\"%s\":\"%s\"" k (Jsonu.escape v) in
  let num k v = Printf.sprintf "\"%s\":%s" k (Jsonu.number v) in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":\"lattol-trace/1\",%s,%s,%s,%s,%s,%s"
       (str "root" t.r_root)
       (str "trace_id" t.r_trace_id)
       (num "wall_ms" t.r_wall_ms)
       (Printf.sprintf "\"span_count\":%d,\"dropped\":%d" t.r_span_count
          t.r_dropped)
       (str "verdict" t.r_verdict)
       (Printf.sprintf "%s,\"run_journal_spans\":%d"
          (num "run_journal_ms" t.r_run_journal_ms)
          t.r_run_journal_spans));
  Buffer.add_string b
    (Printf.sprintf ",\"totals\":{%s,%s,%s,%s,%s}"
       (num "queue_ms" t.r_queue_ms)
       (num "cache_wait_ms" t.r_cache_ms)
       (num "solve_ms" t.r_solve_ms)
       (num "journal_ms" t.r_journal_ms)
       (num "other_ms" t.r_other_ms));
  Buffer.add_string b ",\"points\":[";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "{%s,%s,%s,%s,%s,%s,%s,%s,%s,%s,\"span_count\":%d"
           (str "point" p.point) (str "label" p.label)
           (str "trace_id" p.p_trace_id)
           (num "wall_ms" p.wall_ms)
           (num "queue_ms" p.queue_ms)
           (num "cache_wait_ms" p.cache_ms)
           (num "solve_ms" p.solve_ms)
           (num "journal_ms" p.journal_ms)
           (num "other_ms" p.other_ms)
           (str "verdict" p.verdict) p.span_count);
      Buffer.add_string b ",\"critical_path\":[";
      List.iteri
        (fun j s ->
          if j > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf "{%s,%s,%s}" (str "name" s.s_name)
               (str "cat" s.s_cat) (num "ms" s.s_ms)))
        p.critical_path;
      Buffer.add_string b "]}")
    t.r_points;
  Buffer.add_string b "]}"

let to_events r =
  Tc.seal r;
  let spans = Tc.spans r in
  let t0 = Tc.started_ns r in
  let points =
    List.sort_uniq natural_compare
      (List.filter_map
         (fun (s : Tc.span) -> if s.point = "" then None else Some s.point)
         spans)
  in
  let track_of = Hashtbl.create 64 in
  List.iteri (fun i p -> Hashtbl.replace track_of p (i + 1)) points;
  let ev = Events.create () in
  Events.name_process ev 0 (Tc.root_name r);
  Events.name_track ev 0 "run";
  List.iteri (fun i p -> Events.name_track ev (i + 1) p) points;
  List.iter
    (fun (s : Tc.span) ->
      let track =
        if s.point = "" then 0
        else match Hashtbl.find_opt track_of s.point with
          | Some t -> t
          | None -> 0
      in
      Events.emit ev ~pid:0 ~cat:s.cat ~track ~name:s.name
        ~t0:(Int64.to_float (Int64.sub s.t0_ns t0) /. 1e3)
        (Int64.to_float s.dur_ns /. 1e3))
    spans;
  ev
