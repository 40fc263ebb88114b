(* Lightweight span tracing. A span is opened into a preallocated frame
   of the tracer's nesting stack and, when it ends, copied into a
   preallocated slot of a fixed-capacity ring, overwriting the oldest;
   recording allocates nothing. Callers that already time a phase for a
   latency histogram pass that reading in ([begin_at] / [end_at]), so a
   span costs no clock reads of its own. Each span carries at most
   tag_budget numeric tags — tag keys come from the closed Name.tag enum
   and values are floats, so a span can never smuggle a query argument
   or a released string out. *)

let default_capacity = 256
let tag_budget = 4

(* one open frame or one finished ring slot *)
type cell = {
  mutable c_name : Name.span;
  mutable c_dataset : string;
  mutable c_start : int;
  mutable c_dur : int;
  mutable c_depth : int;
  c_keys : Name.tag array;
  c_vals : float array;
  mutable c_tags : int;
}

(* the frame index of an open span, which is its nesting depth; -1 on a
   disabled tracer *)
type handle = int

type span = {
  name : Name.span;
  dataset : string;
  start_ns : int;
  dur_ns : int;
  depth : int;
  tags : (Name.tag * float) list;
}

type t = {
  enabled : bool;
  capacity : int;
  ring : cell array;
  mutable frames : cell array;
  mutable next : int; (* next write slot *)
  mutable total : int; (* spans ever finished *)
  mutable depth : int; (* current nesting depth = next free frame *)
  mutable dropped_tags : int;
}

let cell () =
  {
    c_name = Name.Sp_submit;
    c_dataset = "";
    c_start = 0;
    c_dur = 0;
    c_depth = 0;
    c_keys = Array.make tag_budget Name.T_eps_face;
    c_vals = Array.make tag_budget 0.;
    c_tags = 0;
  }

let create ?(capacity = default_capacity) ?(enabled = true) () =
  let capacity = if capacity < 1 then 1 else capacity in
  {
    enabled;
    capacity;
    ring = (if enabled then Array.init capacity (fun _ -> cell ()) else [||]);
    frames = (if enabled then Array.init 8 (fun _ -> cell ()) else [||]);
    next = 0;
    total = 0;
    depth = 0;
    dropped_tags = 0;
  }

(* Storing a pointer into a preallocated (major-heap) cell costs a
   write barrier; the dataset label rarely changes between spans, so
   skip the store when it is already there. *)
let set_dataset c dataset = if c.c_dataset != dataset then c.c_dataset <- dataset

let begin_at t ~dataset name start_ns =
  if not t.enabled then -1
  else begin
    let d = t.depth in
    if d = Array.length t.frames then
      t.frames <-
        Array.append t.frames (Array.init (Array.length t.frames) (fun _ -> cell ()));
    let f = t.frames.(d) in
    f.c_name <- name;
    set_dataset f dataset;
    f.c_start <- start_ns;
    f.c_depth <- d;
    f.c_tags <- 0;
    t.depth <- d + 1;
    d
  end

let begin_ t ?(dataset = "") name =
  if not t.enabled then -1 else begin_at t ~dataset name (Clock.now_ns ())

let tag t h key value =
  if h >= 0 then begin
    let f = t.frames.(h) in
    if f.c_tags < tag_budget then begin
      f.c_keys.(f.c_tags) <- key;
      f.c_vals.(f.c_tags) <- value;
      f.c_tags <- f.c_tags + 1
    end
    else t.dropped_tags <- t.dropped_tags + 1
  end

(* Ending a span also closes any span opened inside it and left open by
   an exception, so the nesting depth can never leak. *)
let end_at t h ~dur_ns =
  if h >= 0 then begin
    let f = t.frames.(h) and s = t.ring.(t.next) in
    s.c_name <- f.c_name;
    set_dataset s f.c_dataset;
    s.c_start <- f.c_start;
    s.c_dur <- dur_ns;
    s.c_depth <- f.c_depth;
    for i = 0 to f.c_tags - 1 do
      s.c_keys.(i) <- f.c_keys.(i);
      s.c_vals.(i) <- f.c_vals.(i)
    done;
    s.c_tags <- f.c_tags;
    t.depth <- h;
    t.next <- (if t.next + 1 = t.capacity then 0 else t.next + 1);
    t.total <- t.total + 1
  end

let end_ t h =
  if h >= 0 then end_at t h ~dur_ns:(Clock.elapsed_ns t.frames.(h).c_start)

let with_ t ?dataset name f =
  let h = begin_ t ?dataset name in
  Fun.protect ~finally:(fun () -> end_ t h) f

let spans t =
  (* oldest first: slots [next .. cap-1] then [0 .. next-1], of which
     only the last [min total capacity] were ever written *)
  let n = min t.total t.capacity in
  List.init n (fun i ->
      let s = t.ring.((t.next - n + i + t.capacity) mod t.capacity) in
      {
        name = s.c_name;
        dataset = s.c_dataset;
        start_ns = s.c_start;
        dur_ns = s.c_dur;
        depth = s.c_depth;
        tags = List.init s.c_tags (fun j -> (s.c_keys.(j), s.c_vals.(j)));
      })

let total t = t.total
let dropped t = if t.total > t.capacity then t.total - t.capacity else 0
let dropped_tags t = t.dropped_tags
let capacity t = t.capacity
let current_depth t = t.depth

let reset t =
  t.next <- 0;
  t.total <- 0;
  t.depth <- 0;
  t.dropped_tags <- 0
