(** Incremental bounded line reassembly for non-blocking sockets.

    The stdio server's bounded reader ({!Dp_engine.Protocol.serve})
    pulls one character at a time from an [in_channel]; an event loop
    ({!Server}) gets whole TCP segments instead, and a request line may arrive
    split across many of them. This buffer reassembles newline-
    terminated lines across segment boundaries while keeping the same
    memory bound as the stdio reader: at most
    [max + 1] bytes are ever buffered for the current line, however the
    peer fragments it, while the true byte count is still tracked so an
    over-limit line gets the exact same
    [err bad-argument line exceeds ...] reply on both transports. *)

type line = {
  text : string;  (** line content, truncated to [max + 1] bytes *)
  bytes : int;  (** true length — compare against the cap, not [text] *)
}

type t

val create : ?max:int -> unit -> t
(** [max] defaults to {!Dp_engine.Protocol.max_line_bytes}. *)

val feed : t -> Bytes.t -> int -> int -> line list
(** [feed t chunk off len] consumes [len] bytes at [off] and returns
    the lines completed by this segment, in arrival order. Bytes after
    the last newline stay buffered (bounded) for the next segment. *)

val pending_bytes : t -> int
(** True length of the buffered partial line (0 if none). A peer that
    dribbles a never-terminated line grows this count, not memory. *)
