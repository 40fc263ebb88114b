(** Multi-client TCP frontend for the line protocol — [dpkit serve --tcp].

    A single-threaded loop over one {!Poll} wait serves as many
    connections as the descriptor limit allows, executing requests
    through {!Dp_engine.Protocol.exec} verbatim — the wire dialect,
    error taxonomy, and privacy behaviour are byte-identical to the
    stdio server; only the transport differs.
    On the wire each request line is answered by one {e reply frame}:
    the reply lines followed by a blank line, so a client can delimit
    multi-line replies without knowing the command grammar.

    {2 Robustness properties}

    - {b Bounded memory per connection}: request lines are reassembled
      by {!Linebuf}, which holds at most [max_line_bytes + 1] bytes per
      connection however a peer fragments an oversized line.
    - {b Slow-loris defense}: the idle clock advances only on
      {e completed} request lines, never raw bytes, so dribbling a
      never-terminated line is indistinguishable from silence and the
      connection is closed at the idle timeout. Replies that the client
      will not drain are bounded by the per-request reply deadline.
    - {b Admission control}: past [max_conns] connections or
      [max_inflight] queued work items, new arrivals are shed with
      [err overloaded retry-after=MS]. At the process's descriptor
      limit ([EMFILE]/[ENFILE]) {!accept} sheds the same way instead
      of failing. The shed decision and the hint
      are computed from queue depth {e only} — never ledger or budget
      state — so being shed reveals nothing about spent ε. A shed
      line's reply waits behind the replies to that connection's
      earlier requests, so a pipelining client reads every reply in
      request order.
    - {b Graceful drain}: {!request_stop} (called from SIGTERM/SIGINT
      handlers) makes {!run} stop accepting and reading, finish every
      queued request, flush every reply, close all connections, and
      return — after which the caller snapshots metrics and closes the
      engine (fsyncing the journal).
    - {b Fault points}: [accept-fail], [read-stall], [write-drop] and
      [conn-reset] ({!Dp_engine.Faults}) are honoured at the matching
      spots, so the chaos harness can tear connections mid-reply and
      assert that clients retry to a consistent, never-double-released
      outcome. *)

type config = {
  port : int;  (** 0 picks an ephemeral port; see {!port} *)
  max_conns : int;  (** accept-time admission bound *)
  max_inflight : int;
      (** queued requests + unflushed replies bound. [append] lines
          shed at [min 32 max_inflight]: a journal-fsync-heavy append
          flood is shed before it can starve interactive queries
          (decision is first-token syntax + queue depth, never budget) *)
  idle_timeout_s : float;
  reply_deadline_s : float;  (** request queued to reply flushed *)
}

val default_config : config
(** Ephemeral port, 64 conns, 128 inflight, 30s idle, 10s deadline.
    Fixed for every server: a listen backlog of 64 and a retry-after
    hint of 50 ms × (1 + queue depth). *)

(** {2 The one listen/accept path, shared with the pool coordinator} *)

type listener

val listen : port:int -> (listener * int, string) result
(** A non-blocking loopback listener and its bound port (resolved when
    [port = 0]), holding one spare descriptor for {!accept}. *)

val accept : listener -> [ `Conn of Unix.file_descr | `Shed | `Again ]
(** Accept one waiting connection. At the descriptor limit
    ([EMFILE]/[ENFILE]): release the spare, accept, send
    [err overloaded retry-after=50] and the frame terminator, close
    ([`Shed]), and reopen the spare. [`Again]: nothing accepted (none
    waiting, or accept failed otherwise). *)

val listener_fd : listener -> Unix.file_descr
val close_listener : listener -> unit

(** {2 Serving} *)

type t

val create : ?config:config -> Dp_engine.Engine.t -> (t, string) result
(** Bind and listen on loopback. The engine's fault plan and metric
    registry are picked up from the engine itself. *)

val detached : ?config:config -> Dp_engine.Engine.t -> t
(** A server without a listener (port 0): it serves what {!adopt}
    hands it. *)

val receive : t -> Unix.file_descr -> Fd_passing.received option
(** {!Fd_passing.recv} on a control channel that passes this server its
    connections. The kernel installs a passed descriptor during the
    receive itself, so the server's spare descriptor is closed just
    before it and reopened just after, as {!accept} does. If the spare
    cannot be reopened, the passed connection is sent {!accept}'s
    [err overloaded retry-after=50] frame, closed, and returned as
    [fd = None]; the spare is then reopened. *)

val adopt : t -> Unix.file_descr option -> unit
(** Serve a passed connection under the same [max_conns] admission as
    an accepted one. [None], a connection passed without its descriptor
    (shed by {!receive}, or dropped by the kernel), is counted in
    [net_conns_shed]. Safe to call from [run]'s callbacks. *)

val port : t -> int
(** The bound port (resolved when [config.port = 0]). *)

val run :
  ?exec:(string -> string list) ->
  ?control:Unix.file_descr * (bool -> unit) ->
  t -> unit
(** Serve until {!request_stop} and the subsequent drain complete.
    [exec] answers a request line (default {!Dp_engine.Protocol.exec}).
    With [control = (fd, service)], [service readable] runs between
    requests once per loop turn, turns at most 0.25 s apart, with
    [readable] true when [fd] is. Only an injected
    {!Dp_engine.Faults.Crash} escapes — everything else is a typed
    reply line to the client. *)

val request_stop : t -> unit
(** Begin graceful drain; safe to call from a signal handler (it only
    sets a flag — the signal ends the loop's {!Poll.wait}, and the loop
    notices the flag on that turn). *)

val conn_count : t -> int
