module Metrics = Lattol_obs.Metrics
module Histogram = Lattol_stats.Histogram

let content_type = "text/plain; version=0.0.4; charset=utf-8"

let name_char ~first c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
  | '0' .. '9' when not first -> c
  | _ -> '_'

let sanitize name =
  String.init (String.length name) (fun i ->
      name_char ~first:(i = 0) name.[i])

let escape_label v =
  let b = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

(* Shortest decimal that round-trips, in the style of the JSON sink; the
   exposition format also admits the spelled-out specials. *)
let number v =
  if Float.is_nan v then "NaN"
  else if Float.equal v infinity then "+Inf"
  else if Float.equal v neg_infinity then "-Inf"
  else
    let s = Printf.sprintf "%.15g" v in
    if Float.equal (float_of_string s) v then s
    else
      let s = Printf.sprintf "%.16g" v in
      if Float.equal (float_of_string s) v then s
      else Printf.sprintf "%.17g" v

let label_block = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "%s=\"%s\"" (sanitize k) (escape_label v))
           labels)
    ^ "}"

let prom_type = function
  | Metrics.Counter_v _ -> "counter"
  | Metrics.Gauge_v _ -> "gauge"
  | Metrics.Hist_v _ -> "histogram"

(* Group series into name families, preserving first-appearance order:
   Prometheus requires all samples of one metric to sit under a single
   TYPE header. *)
let families snap =
  List.fold_left
    (fun acc s ->
      let name = s.Metrics.s_name in
      match List.assoc_opt name acc with
      | Some members ->
        members := s :: !members;
        acc
      | None -> acc @ [ (name, ref [ s ]) ])
    [] snap
  |> List.map (fun (name, members) -> (name, List.rev !members))

(* OpenMetrics-style exemplar suffix on a bucket line:
   [... # {trace_id="sweep-x/12"} 3.4].  Strict 0.0.4 parsers that stop
   at the sample value ignore the suffix; OpenMetrics-aware ones link the
   bucket to the exemplified trace. *)
let exemplar_suffix (cell : Metrics.exemplar option) =
  match cell with
  | None -> ""
  | Some e ->
    Printf.sprintf " # {trace_id=\"%s\"} %s" (escape_label e.e_trace)
      (number e.e_value)

let render_histogram b fname labels h ex =
  let extra_label l =
    match labels with
    | [] -> "{" ^ l ^ "}"
    | _ ->
      let base = label_block labels in
      String.sub base 0 (String.length base - 1) ^ "," ^ l ^ "}"
  in
  (* Cumulative counts: underflow sits below every upper bound, overflow
     only below +Inf. *)
  let bins = Histogram.bins h in
  let cell i = if i < Array.length ex then ex.(i) else None in
  let acc = ref (Histogram.underflow h) in
  for i = 0 to bins - 1 do
    acc := !acc + Histogram.bin_count h i;
    let _, upper = Histogram.bin_bounds h i in
    Printf.bprintf b "%s_bucket%s %d%s\n" fname
      (extra_label (Printf.sprintf "le=\"%s\"" (number upper)))
      !acc
      (exemplar_suffix (cell i))
  done;
  Printf.bprintf b "%s_bucket%s %d%s\n" fname
    (extra_label "le=\"+Inf\"")
    (Histogram.count h)
    (exemplar_suffix (cell (bins + 1)));
  Printf.bprintf b "%s_count%s %d\n" fname (label_block labels)
    (Histogram.count h);
  Printf.bprintf b "%s_sum%s %s\n" fname (label_block labels)
    (number (Histogram.sum h))

let render snap =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, members) ->
      let fname = "lattol_" ^ sanitize name in
      let first = List.hd members in
      let help =
        match
          List.find_opt (fun s -> s.Metrics.s_help <> "") members
        with
        | Some s -> s.Metrics.s_help
        | None -> ""
      in
      if help <> "" then begin
        (* HELP lines escape only backslash and newline. *)
        let escaped =
          String.concat "\\n" (String.split_on_char '\n' help)
        in
        Printf.bprintf b "# HELP %s %s\n" fname escaped
      end;
      Printf.bprintf b "# TYPE %s %s\n" fname
        (prom_type first.Metrics.s_value);
      List.iter
        (fun s ->
          let labels = label_block s.Metrics.s_labels in
          match s.Metrics.s_value with
          | Metrics.Counter_v c -> Printf.bprintf b "%s%s %d\n" fname labels c
          | Metrics.Gauge_v v ->
            Printf.bprintf b "%s%s %s\n" fname labels (number v)
          | Metrics.Hist_v (h, ex) ->
            render_histogram b fname s.Metrics.s_labels h ex)
        members)
    (families snap);
  Buffer.contents b
