(** Checksummed record framing: the wire format and file discipline
    shared by the budget journal ({!Journal}) and the worker pool's
    grant WAL ([Dp_pool.Grant_wal]).

    A log is a sequence of frames:
    {v
    4-byte big-endian payload length
    4-byte big-endian Adler-32 of the payload
    payload
    v}
    A payload is a one-character record tag, then the record's fields.
    An int is its decimal digits then [;]. A float is its [%h] hex form
    then [;], exact for every float, so replayed values are
    bit-identical. A bool is [1] or [0]. A string is its length as an
    int, then its bytes. An option is a bool, then the value when [1].
    A float array is its length as an int, then each float.

    A frame is valid when its payload is at most {!max_payload} bytes,
    lies wholly inside the file, matches its checksum, and decodes with
    nothing left over. A log's records are its longest valid prefix;
    the bytes after it are a torn tail (a crash mid-write), which
    {!load} skips and {!open_} truncates. *)

(** {2 Payload fields} *)

val put_int : Buffer.t -> int -> unit
val put_float : Buffer.t -> float -> unit
val put_bool : Buffer.t -> bool -> unit
val put_str : Buffer.t -> string -> unit
val put_opt : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
val put_farr : Buffer.t -> float array -> unit

exception Corrupt
(** Raised by the readers below on a malformed payload. *)

type cursor
(** Read position in one payload. *)

val get_char : cursor -> char
val get_int : cursor -> int
val get_float : cursor -> float
val get_bool : cursor -> bool
val get_str : cursor -> string
val get_opt : (cursor -> 'a) -> cursor -> 'a option

val get_farr : cursor -> float array
(** At most 1 000 000 elements. *)

(** {2 Log files}

    [decode] reads one record from a payload's cursor. [Error] carries
    the I/O error without the path; callers name their log. *)

val max_payload : int
(** 16 MiB. *)

val frame : string -> string
(** Header and payload, ready for {!write}; frames written back to back
    form a log. *)

val load : (cursor -> 'a) -> string -> ('a list * int, string) result
(** [load decode path]: the records of the longest valid prefix and the
    torn-tail byte count, from one read of the file, which is never
    opened for writing. A missing file is an empty log. *)

type t
(** A log open for appending, with the offset where its clean prefix
    ends. *)

val open_ : (cursor -> 'a) -> string -> (t * 'a list * int, string) result
(** {!load}, then open (or create) the file for appending and truncate
    the torn tail, so the next frame starts at a clean boundary.
    Creating the file also fsyncs its parent directory: a missing log
    reads as an empty one, so a crash that lost a new log's directory
    entry would silently forget its records. *)

val write : t -> string -> unit
(** Write framed bytes at the end of the file. Raises
    [Unix.Unix_error]; a failed write can leave part of them behind.
    The clean offset does not move. *)

val commit : t -> string -> unit
(** Extend the clean prefix over bytes that {!write} wrote whole. *)

val cut : t -> unit
(** Truncate the file back to the clean offset. Raises
    [Unix.Unix_error]. *)

val fsync : t -> unit
val path : t -> string
val close : t -> unit
