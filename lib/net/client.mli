(** Retrying line-protocol client — [dpkit client].

    Reads request lines from an input channel, sends each to the TCP
    frontend, and prints the reply lines (without the blank frame
    terminator, so the output matches the stdio server's byte-for-
    byte). Each request is retried to a final reply through capped
    exponential backoff with full jitter ({!Dp_engine.Faults.backoff_delay}):

    - retried: [err transient], [err overloaded] (sleeping at least the
      server's [retry-after=MS] hint), and wire failures — connection
      refused, reset, torn reply frame, reply timeout. Retrying these
      is safe by the engine's charge-before-answer discipline: a torn
      connection may cost budget (the charge was durable even if the
      answer never arrived), but re-asking an answered query is a cache
      hit, so no noise value is ever released twice.
    - final: every other reply ([ok ...], [err bad-*], [err
      budget-exceeded], [err degraded], [err fatal]) — the server's
      word, printed as-is.

    Blank and [#]-comment input lines are skipped locally (never sent),
    keeping the request/frame pairing trivially in sync. *)

type config = {
  host : string;
  port : int;
  attempts : int;  (** per request *)
  backoff_s : float;  (** backoff base *)
  cap_s : float;  (** backoff cap *)
  reply_timeout_s : float;  (** deadline for one whole reply frame *)
  jitter : Dp_rng.Prng.t option;
      (** full-jitter stream; [None] = deterministic un-jittered
          backoff (tests). Never a privacy stream. *)
}

val default_config : port:int -> config
(** 127.0.0.1, 8 attempts, 50ms base, 2s cap, 10s reply timeout. *)

(** {2 Sessions}

    The same retrying request loop, exposed programmatically over a
    persistent connection. The statistical certification harness
    ([dpkit certify --via tcp]) uses sessions to drive a live server
    through the exact code path analysts use — including transparent
    reconnection after a connection reset, which is what lets the
    fault-armed soak legs keep measuring across injected resets. *)

type session

val open_session : config -> session
(** Lazy: no connection is made until the first {!request}. *)

val request : session -> string -> (string list, string) result
(** One request line, retried to a final reply frame (returned without
    the blank terminator). [Error] only after [attempts] give-ups. *)

val close_session : session -> unit
(** Close the underlying connection, if any. The session may be reused
    (the next {!request} reconnects). *)

val run : config -> in_channel -> out_channel -> int
(** Drive requests from the channel until EOF; returns the exit code —
    0 when every request reached a final reply, 1 when any gave up. *)
