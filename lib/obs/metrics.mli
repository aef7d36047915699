(** Metrics registry: named, optionally labeled instruments shared by the
    analytical and simulation stacks.

    Three instrument kinds cover everything the solvers and simulators
    measure: monotone {e counters} (events processed, accesses issued),
    point-in-time {e gauges} (utilizations, measures of a finished run)
    and {!Lattol_stats.Histogram}-backed {e distributions} (latency
    spreads).

    A metric is identified by its name plus a label set, so one registry
    holds whole families of series ([station_util{station="mem3"}], one
    sweep point per label value).  Registration order is preserved by the
    sinks, which makes the JSON/CSV output deterministic and diffable. *)

type t

val create : unit -> t

type labels = (string * string) list
(** Label pairs; order is preserved as given. *)

(** {1 Instruments}

    Registering the same (name, labels) pair twice raises
    [Invalid_argument]: each series has exactly one owner. *)

type counter

val counter : t -> ?labels:labels -> ?help:string -> string -> counter
val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

type gauge

val gauge : t -> ?labels:labels -> ?help:string -> string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

type histogram

type exemplar = { e_trace : string; e_value : float }
(** OpenMetrics-style exemplar: the last trace id (and its observed
    value) that landed in a bucket, linking an aggregate distribution
    back to one concrete traced request. *)

val histogram :
  t -> ?help:string -> ?lo:float -> hi:float -> bins:int -> string ->
  histogram

val record : ?exemplar:string -> histogram -> float -> unit
(** Record an observation; with [?exemplar] (a non-empty trace id, e.g.
    {!Trace_ctx.point_trace_id}) the bucket the value lands in also
    remembers that id, last write wins. *)

val histogram_data : histogram -> Lattol_stats.Histogram.t

(** {1 Snapshots}

    A snapshot is a pure point-in-time copy of every registered series —
    plain data, safe to render from another domain while the live
    instruments keep moving.  The series order is registration order,
    exactly what the sinks emit. *)

type snap_value =
  | Counter_v of int
  | Gauge_v of float
  | Hist_v of Lattol_stats.Histogram.t * exemplar option array
      (** a private copy of the bins, plus the exemplar cells (one per
          bin, then underflow at index [bins], overflow at [bins + 1]) *)

type series = {
  s_name : string;
  s_labels : labels;
  s_help : string;
  s_value : snap_value;
}

type snapshot = series list

val snapshot : t -> snapshot
(** Safe to call concurrently with instrument updates (monitoring-grade
    consistency: each series is copied atomically enough for scrapes, not
    for audits); registrations racing with the snapshot may or may not be
    included. *)

(** {1 Sinks} *)

val size : t -> int
(** Number of registered series. *)

val write_json : t -> out_channel -> unit
(** One JSON object, one series per line inside a ["metrics"] array —
    line-greppable yet a single valid document.  Histograms carry their
    bin counts and the 0.5/0.9/0.99 quantiles. *)

val json_of_snapshot : snapshot -> string
(** The exact bytes {!write_json} would emit for this snapshot — shared by
    the [--metrics-out] sink and the live [/metrics.json] endpoint so a
    final scrape equals the flushed file. *)

val write_json_snapshot : snapshot -> out_channel -> unit

val write_csv : t -> out_channel -> unit
(** Long-form CSV: [name,labels,type,field,value]; scalar instruments emit
    one row, histograms one row per exported field. *)

val write_csv_snapshot : snapshot -> out_channel -> unit
