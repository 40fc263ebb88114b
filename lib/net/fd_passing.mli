(** SCM_RIGHTS descriptor passing for the worker pool's control
    channel.

    The pool coordinator owns the TCP listener and hands each accepted
    connection to a worker over a Unix-domain {e datagram} socketpair
    ({!channel}): datagrams keep message boundaries, so every receive
    yields exactly one control message plus at most one attached
    descriptor — no framing layer needed on top. The same channel
    carries the lease/registration RPCs as plain text messages with no
    descriptor attached. *)

val channel : unit -> Unix.file_descr * Unix.file_descr
(** A connected [PF_UNIX SOCK_DGRAM] socketpair (reliable, ordered,
    boundary-preserving on every platform dpkit serves from). *)

val send : Unix.file_descr -> ?fd:Unix.file_descr -> string -> unit
(** [send sock ?fd msg] sends [msg] as one datagram, attaching [fd] as
    SCM_RIGHTS ancillary data when given. The receiver gets its own
    duplicate of the descriptor; the sender still owns (and should
    close) its copy. Blocks if the channel is full — that is the
    pool's natural backpressure. Messages are capped at 64 KiB.
    @raise Unix.Unix_error on a dead peer (e.g. [EPIPE], [ECONNRESET]).
    @raise Invalid_argument on an oversized message. *)

type received = {
  msg : string;  (** the datagram payload *)
  fd : Unix.file_descr option;  (** the passed descriptor, if any *)
}

val recv : Unix.file_descr -> received option
(** Receive one datagram; [None] means the peer closed the channel (a
    zero-length read with no descriptor — empty datagrams are never
    sent). Blocks until a message arrives; wait on the channel fd with
    {!Poll} first to avoid blocking. *)
