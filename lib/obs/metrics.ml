open Lattol_stats

type labels = (string * string) list

type counter = int ref

type gauge = float ref

type exemplar = { e_trace : string; e_value : float }

(* Exemplar cells: one per bin plus [bins] (underflow) and [bins + 1]
   (overflow).  Last write wins — the point of an exemplar is "a recent
   trace id that landed in this bucket", not an exhaustive record. *)
type histogram = { h : Histogram.t; ex : exemplar option array }

type value =
  | Counter of counter
  | Gauge of gauge
  | Hist of histogram

type entry = { name : string; labels : labels; help : string; value : value }

type t = {
  mutable entries : entry list; (* reverse registration order *)
  index : (string * labels, unit) Hashtbl.t;
}

let create () = { entries = []; index = Hashtbl.create 64 }

let register t ~name ~labels ~help value =
  if name = "" then invalid_arg "Metrics: empty metric name";
  let key = (name, labels) in
  if Hashtbl.mem t.index key then
    Format.kasprintf invalid_arg "Metrics: duplicate series %s" name;
  Hashtbl.add t.index key ();
  t.entries <- { name; labels; help; value } :: t.entries

let counter t ?(labels = []) ?(help = "") name =
  let c = ref 0 in
  register t ~name ~labels ~help (Counter c);
  c

let incr ?(by = 1) c = c := !c + by

let counter_value c = !c

let gauge t ?(labels = []) ?(help = "") name =
  let g = ref nan in
  register t ~name ~labels ~help (Gauge g);
  g

let set_gauge g v = g := v

let gauge_value g = !g

let histogram t ?(help = "") ?(lo = 0.) ~hi ~bins name =
  let h =
    { h = Histogram.create ~lo ~hi ~bins (); ex = Array.make (bins + 2) None }
  in
  register t ~name ~labels:[] ~help (Hist h);
  h

(* Mirrors Histogram.add's binning so the exemplar lands in the same
   bucket as the observation. *)
let bucket_index h v =
  let lo = Histogram.lo h and hi = Histogram.hi h in
  let bins = Histogram.bins h in
  if v < lo then bins
  else if v >= hi then bins + 1
  else
    let w = (hi -. lo) /. float_of_int bins in
    min (bins - 1) (int_of_float ((v -. lo) /. w))

let record ?exemplar hist v =
  Histogram.add hist.h v;
  match exemplar with
  | Some trace when trace <> "" ->
    hist.ex.(bucket_index hist.h v) <- Some { e_trace = trace; e_value = v }
  | _ -> ()

let histogram_data hist = hist.h

let size t = List.length t.entries

let entries t = List.rev t.entries

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type snap_value =
  | Counter_v of int
  | Gauge_v of float
  | Hist_v of Histogram.t * exemplar option array

type series = {
  s_name : string;
  s_labels : labels;
  s_help : string;
  s_value : snap_value;
}

type snapshot = series list

let snap_value = function
  | Counter c -> Counter_v !c
  | Gauge g -> Gauge_v !g
  | Hist hist -> Hist_v (Histogram.copy hist.h, Array.copy hist.ex)

(* Reading [t.entries] is a single pointer load and the cells behind it
   are immutable, so a snapshot taken while another domain registers new
   series just sees a consistent prefix.  The instruments themselves are
   read without synchronization: fine for monitoring, not for accounting
   across racing writers. *)
let snapshot t =
  List.map
    (fun e ->
      { s_name = e.name; s_labels = e.labels; s_help = e.help;
        s_value = snap_value e.value })
    (entries t)

(* ------------------------------------------------------------------ *)
(* Sinks *)

let snap_kind_string = function
  | Counter_v _ -> "counter"
  | Gauge_v _ -> "gauge"
  | Hist_v _ -> "histogram"

let json_labels labels =
  String.concat ","
    (List.map
       (fun (k, v) ->
         Printf.sprintf "\"%s\":\"%s\"" (Jsonu.escape k) (Jsonu.escape v))
       labels)

let hist_quantile h q =
  if Histogram.count h = 0 then nan else Histogram.quantile h q

let buf_json_snapshot b snap =
  Buffer.add_string b "{\"metrics\":[\n";
  let first = ref true in
  List.iter
    (fun s ->
      if not !first then Buffer.add_string b ",\n";
      first := false;
      Printf.bprintf b "{\"name\":\"%s\",\"type\":\"%s\",\"labels\":{%s}"
        (Jsonu.escape s.s_name) (snap_kind_string s.s_value)
        (json_labels s.s_labels);
      if s.s_help <> "" then
        Printf.bprintf b ",\"help\":\"%s\"" (Jsonu.escape s.s_help);
      (match s.s_value with
      | Counter_v c -> Printf.bprintf b ",\"value\":%d" c
      | Gauge_v g -> Printf.bprintf b ",\"value\":%s" (Jsonu.number g)
      | Hist_v (h, ex) ->
        Printf.bprintf b
          ",\"count\":%d,\"underflow\":%d,\"overflow\":%d,\"p50\":%s,\"p90\":%s,\"p99\":%s,\"counts\":["
          (Histogram.count h) (Histogram.underflow h) (Histogram.overflow h)
          (Jsonu.number (hist_quantile h 0.5))
          (Jsonu.number (hist_quantile h 0.9))
          (Jsonu.number (hist_quantile h 0.99));
        for i = 0 to Histogram.bins h - 1 do
          if i > 0 then Buffer.add_string b ",";
          Printf.bprintf b "%d" (Histogram.bin_count h i)
        done;
        Buffer.add_string b "]";
        if Array.exists Option.is_some ex then begin
          let bins = Histogram.bins h in
          let bucket_name i =
            if i = bins then "underflow"
            else if i = bins + 1 then "overflow"
            else string_of_int i
          in
          Buffer.add_string b ",\"exemplars\":{";
          let first_ex = ref true in
          Array.iteri
            (fun i cell ->
              match cell with
              | None -> ()
              | Some e ->
                if not !first_ex then Buffer.add_char b ',';
                first_ex := false;
                Printf.bprintf b "\"%s\":{\"trace_id\":\"%s\",\"value\":%s}"
                  (bucket_name i) (Jsonu.escape e.e_trace)
                  (Jsonu.number e.e_value))
            ex;
          Buffer.add_char b '}'
        end);
      Buffer.add_string b "}")
    snap;
  Buffer.add_string b "\n]}\n"

let json_of_snapshot snap =
  let b = Buffer.create 4096 in
  buf_json_snapshot b snap;
  Buffer.contents b

let write_json_snapshot snap oc = output_string oc (json_of_snapshot snap)

let write_json t oc = write_json_snapshot (snapshot t) oc

let csv_labels labels =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let csv_number v = if Float.is_nan v then "nan" else Printf.sprintf "%.12g" v

let write_csv_snapshot snap oc =
  output_string oc "name,labels,type,field,value\n";
  List.iter
    (fun s ->
      let row field value =
        Printf.fprintf oc "%s,%s,%s,%s,%s\n" s.s_name (csv_labels s.s_labels)
          (snap_kind_string s.s_value) field value
      in
      match s.s_value with
      | Counter_v c -> row "value" (string_of_int c)
      | Gauge_v g -> row "value" (csv_number g)
      | Hist_v (h, _) ->
        row "count" (string_of_int (Histogram.count h));
        row "underflow" (string_of_int (Histogram.underflow h));
        row "overflow" (string_of_int (Histogram.overflow h));
        row "p50" (csv_number (hist_quantile h 0.5));
        row "p90" (csv_number (hist_quantile h 0.9));
        row "p99" (csv_number (hist_quantile h 0.99)))
    snap

let write_csv t oc = write_csv_snapshot (snapshot t) oc
