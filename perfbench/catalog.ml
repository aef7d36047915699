(* Every metric the benchmark reports, with its unit, in report order.
   BENCHMARK.json lists the same names; the tests keep the two in step. *)

type metric = { name : string; unit : string }

let m name unit = { name; unit }

(* Untraced runs. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "points_per_s" "1/s";
    m "batch_s.p50" "s";
    m "batch_s.p90" "s";
    m "cpu_ms_per_point" "ms";
    m "pass_ratio" "ratio";
    m "peak_rss_mb" "MB";
  ]

(* The traced run: one group per layer of the repository. *)
let per_layer =
  [
    (* core/mms + queueing/amva *)
    m "mms.solves" "count";
    m "mms.solve_ms.p50" "ms";
    m "mms.solve_ms.p90" "ms";
    m "mms.iterations_per_solve" "count";
    m "mms.minor_words_per_solve" "words";
    m "mms.busy_ms" "ms";
    (* exec/cache *)
    m "cache.memo_hits" "count";
    m "cache.disk_hits" "count";
    m "cache.misses" "count";
    m "cache.stores" "count";
    m "cache.hit_ratio" "ratio";
    m "cache.wait_ms" "ms";
    m "cache.disk_hit_us" "us";
    m "cache.store_us" "us";
    (* exec/journal *)
    m "journal.appends" "count";
    m "journal.append_us.p50" "us";
    m "journal.append_us.p90" "us";
    m "journal.batch_us" "us";
    m "journal.ms" "ms";
    (* exec/pool *)
    m "pool.effective_jobs" "count";
    m "pool.claims" "count";
    m "pool.busy_ratio" "ratio";
    m "pool.queue_wait_ms" "ms";
    (* sim/mms_des and petrinet/mms_stpn *)
    m "des.events" "count";
    m "des.events_per_s" "1/s";
    m "des.minor_words_per_event" "words";
    m "des.warmup_share" "ratio";
    m "stpn.events" "count";
    m "stpn.events_per_s" "1/s";
    m "stpn.minor_words_per_event" "words";
    m "stpn.warmup_share" "ratio";
    (* the OCaml GC *)
    m "gc.minor_collections" "count";
    m "gc.major_collections" "count";
    m "gc.promoted_words" "words";
    (* obs/trace_ctx: guards on the traced run itself *)
    m "trace.overhead_ratio" "ratio";
    m "trace.reconcile_err_ms" "ms";
    m "trace.little_err" "ratio";
    m "trace.dropped" "count";
  ]

let valid_char = function
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all valid_char s

let unit_of name =
  match List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer) with
  | Some x -> x.unit
  | None -> invalid_arg ("Catalog.unit_of: unknown metric " ^ name)
