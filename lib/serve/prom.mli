(** Prometheus text exposition (format 0.0.4) of a metrics snapshot.

    Series names are sanitized to the Prometheus charset and prefixed
    [lattol_]; families sharing a name are grouped under one
    [# HELP] / [# TYPE] header in first-appearance order.  Counters and
    gauges map directly, and {!Lattol_stats.Histogram} series expand to
    the conventional [_bucket{le="..."}] / [_count] / [_sum] triplet
    (cumulative buckets, underflow attributed to every bucket, overflow
    to [+Inf] only). *)

val content_type : string
(** The [Content-Type] value scrapers expect:
    [text/plain; version=0.0.4; charset=utf-8]. *)

val render : Lattol_obs.Metrics.snapshot -> string
(** The full exposition, newline-terminated. *)
