(* Causal tracing contexts.  See the .mli for the model.

   Concurrency: span ids come from an Atomic counter; the span buffer is
   a mutex-protected list (prepend on record, reversed on read).  The
   recorder mutex is a leaf lock — recording never takes any other lock —
   so instrumented code may record while holding its own locks (the cache
   does, around its park wait) without ordering hazards.

   The clock is wall time clamped through a process-global Atomic to be
   monotonically non-decreasing, so a backwards step of the system clock
   can never produce a negative duration or un-nest a child span. *)

type span = {
  id : int;
  parent : int;
  point : string;
  name : string;
  cat : string;
  t0_ns : int64;
  dur_ns : int64;
  meta : (string * string) list;
}

type recorder = {
  root : string;
  trace_id : string;
  t0_ns : int64;
  next_id : int Atomic.t;
  lock : Mutex.t;
  mutable buf : span list; (* newest first *)
  mutable count : int;
  mutable dropped : int;
  mutable sealed : bool;
  capacity : int;
}

type ctx =
  | Off
  | On of { rc : recorder; parent : int; pt : string; opened : int64 }

type handle =
  | H_off
  | H_on of {
      h_rc : recorder;
      h_id : int;
      h_parent : int;
      h_pt : string;
      h_name : string;
      h_cat : string;
      h_t0 : int64;
      mutable closed : bool;
    }

(* ---- clock ---- *)

let last_ns = Atomic.make 0L

let rec clamp t =
  let prev = Atomic.get last_ns in
  if Int64.compare t prev <= 0 then prev
  else if Atomic.compare_and_set last_ns prev t then t
  else clamp t

let now_ns () = clamp (Int64.of_float (Unix.gettimeofday () *. 1e9))

(* ---- recorder ---- *)

let sanitize s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '-')
    s

let create ?(capacity = 1_000_000) ~root () =
  let t0 = now_ns () in
  {
    root;
    trace_id = Printf.sprintf "%s-%Lx" (sanitize root) t0;
    t0_ns = t0;
    next_id = Atomic.make 2 (* 1 is the root span *);
    lock = Mutex.create ();
    buf = [];
    count = 0;
    dropped = 0;
    sealed = false;
    capacity;
  }

let root_name r = r.root
let trace_id r = r.trace_id
let started_ns r = r.t0_ns

(* One cons cell + closure per *recorded span*, amortized over the whole
   traced interval (a solve, a queue wait); nothing at all when tracing
   is off, which is what the hot path sees. *)
let[@lattol.allow "hot-alloc"] push r s =
  Mutex.protect r.lock (fun () ->
      if r.count >= r.capacity then r.dropped <- r.dropped + 1
      else begin
        r.buf <- s :: r.buf;
        r.count <- r.count + 1
      end)

let spans r = Mutex.protect r.lock (fun () -> List.rev r.buf)
let count r = Mutex.protect r.lock (fun () -> r.count)
let dropped r = Mutex.protect r.lock (fun () -> r.dropped)

let seal r =
  let t = now_ns () in
  let fresh =
    Mutex.protect r.lock (fun () ->
        if r.sealed then false
        else begin
          r.sealed <- true;
          true
        end)
  in
  if fresh then
    push r
      {
        id = 1;
        parent = 0;
        point = "";
        name = r.root;
        cat = "run";
        t0_ns = r.t0_ns;
        dur_ns = Int64.sub t r.t0_ns;
        meta = [];
      }

(* ---- contexts ---- *)

let disabled = Off
let root_ctx r = On { rc = r; parent = 1; pt = ""; opened = r.t0_ns }
let enabled = function Off -> false | On _ -> true
let point = function Off -> "" | On c -> c.pt
let opened_ns = function Off -> 0L | On c -> c.opened

let point_trace_id = function
  | Off -> ""
  | On c -> if c.pt = "" then c.rc.trace_id else c.rc.trace_id ^ "/" ^ c.pt

(* ---- spans ---- *)

let no_handle = H_off

let start ?point ?(cat = "") ~name ctx =
  match ctx with
  | Off -> H_off
  | On c ->
    let pt = match point with Some p -> p | None -> c.pt in
    H_on
      {
        h_rc = c.rc;
        h_id = Atomic.fetch_and_add c.rc.next_id 1;
        h_parent = c.parent;
        h_pt = pt;
        h_name = name;
        h_cat = cat;
        h_t0 = now_ns ();
        closed = false;
      }

let ctx_of = function
  | H_off -> Off
  | H_on h -> On { rc = h.h_rc; parent = h.h_id; pt = h.h_pt; opened = h.h_t0 }

let finish ?(meta = []) h =
  match h with
  | H_off -> ()
  | H_on h ->
    (* Benign race: two domains finishing the same handle could both
       record; by construction a handle is finished by its submitting
       task and (idempotently) by the owner's cleanup after the join, so
       the accesses are ordered by the pool's own synchronization. *)
    if not h.closed then begin
      h.closed <- true;
      push h.h_rc
        {
          id = h.h_id;
          parent = h.h_parent;
          point = h.h_pt;
          name = h.h_name;
          cat = h.h_cat;
          t0_ns = h.h_t0;
          dur_ns = Int64.sub (now_ns ()) h.h_t0;
          meta;
        }
    end

let with_span ?cat ~name ctx f =
  match ctx with
  | Off -> f Off
  | On _ ->
    let h = start ?cat ~name ctx in
    Fun.protect ~finally:(fun () -> finish h) (fun () -> f (ctx_of h))

(* The span record is the datum being collected — one per traced
   interval, Off costs a tag check only. *)
let[@lattol.allow "hot-alloc"] record_interval ?(cat = "") ?(meta = [])
    ~name ~t0_ns ctx =
  match ctx with
  | Off -> ()
  | On c ->
    push c.rc
      {
        id = Atomic.fetch_and_add c.rc.next_id 1;
        parent = c.parent;
        point = c.pt;
        name;
        cat;
        t0_ns;
        dur_ns = Int64.sub (now_ns ()) t0_ns;
        meta;
      }

let record_since ?cat ~name ctx =
  match ctx with
  | Off -> ()
  | On c -> record_interval ?cat ~name ~t0_ns:c.opened ctx
