(** Lightweight span tracing with a ring-buffer trace store.

    [begin_] starts a span at the current nesting depth; [end_] stamps
    its duration ({!Clock} nanoseconds) and pushes it into a fixed-size
    ring, overwriting the oldest finished span. Frames and ring slots
    are preallocated, so recording a span allocates nothing, and
    {!begin_at}/{!end_at} take timestamps the caller already read for a
    latency histogram, so such a span reads no clock either. Tags are
    [Name.tag -> float] pairs, at most {!tag_budget} per span — keys are
    a closed enum and values are numeric, so spans cannot carry query
    payloads or released values. The [dataset] label must be a dataset
    id (lint rule R7). *)

type t
type handle

type span = {
  name : Name.span;
  dataset : string;
  start_ns : int;
  dur_ns : int;
  depth : int; (* nesting depth at begin_ time; 0 = top level *)
  tags : (Name.tag * float) list;
}

val default_capacity : int
val tag_budget : int

val create : ?capacity:int -> ?enabled:bool -> unit -> t

val begin_ : t -> ?dataset:string -> Name.span -> handle
(** Start a span. On a disabled tracer returns a dead handle; [tag] and
    [end_] on it are no-ops. *)

val begin_at : t -> dataset:string -> Name.span -> int -> handle
(** [begin_at t ~dataset name start_ns]: {!begin_} with the start time
    supplied (a {!Clock.now_ns} reading). *)

val tag : t -> handle -> Name.tag -> float -> unit
(** Attach a numeric tag to an open span; beyond the per-span budget
    the tag is dropped and counted in [dropped_tags]. *)

val end_ : t -> handle -> unit
(** Finish the span and store it in the ring. Spans nest: ending one
    also closes any span begun inside it that is still open (one
    abandoned by an exception), and the handles of those spans must not
    be used again. Calling [end_] twice on the same handle stores the
    span twice — don't. *)

val end_at : t -> handle -> dur_ns:int -> unit
(** {!end_} with the duration supplied. *)

val with_ : t -> ?dataset:string -> Name.span -> (unit -> 'a) -> 'a
(** [with_ t name f] wraps [f] in a span; the span is ended even if [f]
    raises. *)

val spans : t -> span list
(** Finished spans still in the ring, oldest first. *)

val total : t -> int
(** Spans ever finished (including overwritten ones). *)

val dropped : t -> int
(** Finished spans evicted by ring overwrite. *)

val dropped_tags : t -> int
val capacity : t -> int
val current_depth : t -> int
val reset : t -> unit
