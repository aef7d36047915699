(** Plain-text line charts.

    The benchmark harness regenerates the paper's *figures*; this module
    lets it draw them as terminal charts rather than bare tables.  Several
    series share one canvas; each gets a distinct glyph and a legend
    entry.  Axes are linear, ranges taken from the data (the y range can
    be overridden). *)

type series = {
  label : string;
  points : (float * float) list;  (** (x, y), any order *)
}

val render :
  ?width:int -> ?height:int -> ?y_min:float -> ?y_max:float ->
  ?x_label:string -> ?y_label:string -> series list -> string
(** A [width x height] (default 64 x 16) canvas with y-axis tick labels,
    an x-axis range line and a legend.  Non-finite points are skipped;
    an empty or degenerate range yields a message instead of a chart. *)
