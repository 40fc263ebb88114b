(** Fault injection for the durability layer.

    Production serving means surviving the failures the OS actually
    delivers: failed writes, failed fsyncs, kills between a budget
    charge and the answer it paid for, exhausted entropy, oversized
    garbage on the wire. Each of those is a named {!point}; a fault
    spec (from [--faults] or the [DPKIT_FAULTS] environment variable)
    arms a subset of them, and the engine, journal and protocol call
    {!check} at the matching points. Tests and CI run the whole suite
    with [DPKIT_FAULTS=all-transient] so every transient injection
    point fires on every operation's first attempt and the
    retry-with-backoff path is exercised continuously.

    Spec grammar (comma-separated):
    {v
    all-transient            every transient point fails each first attempt
    POINT                    fire on the 1st opportunity, once
    POINT=N                  fire on the Nth opportunity, once
    POINT=always             fire on every opportunity, retries included
                             (bounded retry loops exhaust)
    off | (empty)            nothing armed
    v}
    Points: [journal-write], [journal-fsync], [rng],
    [crash-after-charge], [garbage-line], the network frontend's
    [accept-fail], [read-stall], [write-drop], [conn-reset] (all but
    [accept-fail] fire in pool workers too), and the worker pool's
    [lease-expiry], [grant-drop], [worker-crash]. The network and pool
    points are not in the all-transient set: the recovering party is the
    remote client or the pool supervisor, not an in-process retry loop,
    so they are armed explicitly (see {!is_transient}). *)

type point =
  | Journal_write  (** transient: a journal batch's write fails *)
  | Journal_fsync  (** transient: a journal batch's fsync fails *)
  | Rng  (** transient: the entropy source is exhausted mid-release *)
  | Crash_after_charge
      (** fatal: the process dies after a release's batch (its charge
          and the records its result needs: a query's cache record, a
          train's model, a stream's open frame) is journaled but before
          the result is released — the crash that charge-before-answer
          ordering makes safe *)
  | Garbage_line
      (** protocol: the next input line is replaced by an oversized
          garbage blob before parsing *)
  | Accept_fail
      (** network: the frontend skips a ready accept — the connection
          stays in the kernel backlog until a later loop turn *)
  | Read_stall
      (** network: a read-ready connection is not read this loop turn
          (models a stalled peer or dropped readiness) *)
  | Write_drop
      (** network: a computed reply is dropped before any byte is
          written and the connection closed — the client must retry *)
  | Conn_reset
      (** network: the connection is closed after the first reply line,
          mid-reply — the client sees a torn frame and must retry *)
  | Lease_expiry
      (** pool: the coordinator treats the next lease request as coming
          from a superseded incarnation — the worker is told its lease
          is lost, answers [err degraded reason=lease-lost], and exits
          for the supervisor to restart with a fresh fencing token *)
  | Grant_drop
      (** pool: the coordinator journals a lease grant but the ack to
          the worker is dropped — the worker times out, the client
          retries, and the re-requested grant resyncs from the WAL'd
          absolute lease state *)
  | Worker_crash
      (** fatal: a pool worker dies (as by kill -9) right before
          executing a request — the supervisor must replay its shard
          journal, reclaim the unspent lease, and restart it *)

val point_name : point -> string
val is_transient : point -> bool

exception Injected of point
(** A transient injected failure; {!with_retries} absorbs it. *)

exception Crash of point
(** An injected crash. Never caught by the retry loop; the CLI turns
    it into a nonzero exit so a harness can kill-and-restart. *)

type t

val none : t
val armed : t -> bool

val parse : string -> (t, string) result
(** Parse a fault spec. [""] and ["off"] yield {!none}. *)

val of_env : unit -> t
(** [parse] of [$DPKIT_FAULTS]; unset, empty or malformed specs arm
    nothing (a typo in CI must not silently disable the suite — a
    malformed spec prints one warning on stderr). *)

val fire : t -> ?attempt:int -> point -> bool
(** Should this opportunity fail? Stateful: one-shot points consume
    their trigger. [attempt] (default 1) is the retry attempt number;
    under [all-transient] only first attempts fire, so retried
    operations succeed. *)

val check : t -> ?attempt:int -> point -> unit
(** {!fire}, raising {!Injected} (transient points) or {!Crash}
    ([Crash_after_charge], [Worker_crash]). [Garbage_line] never raises
    — callers use {!fire} to substitute the line. *)

val backoff_delay :
  ?cap_s:float ->
  ?jitter:Dp_rng.Prng.t ->
  backoff_s:float ->
  attempt:int ->
  unit ->
  float
(** The sleep before retrying [attempt]: [base * 2^(attempt-1)] capped
    at [cap_s] (default 30s), then — when [jitter] is given — scaled by
    a uniform draw in [0, 1) (full jitter, so concurrent retriers
    decorrelate). [jitter] must be a non-privacy stream: the engine
    passes a dedicated retry stream seeded independently of the noise
    stream, because retry timing is externally observable and must not
    reveal noise-stream position. Deterministic given the stream's
    seed. *)

val with_retries :
  ?attempts:int ->
  ?backoff_s:float ->
  ?jitter:Dp_rng.Prng.t ->
  (attempt:int -> 'a) ->
  ('a, string) result
(** Run an operation with bounded retries and exponential backoff
    (default 3 attempts, 1ms base), sleeping {!backoff_delay} between
    attempts (full jitter when [jitter] is given). Retries on
    {!Injected}, [Sys_error] and [Unix.Unix_error]; anything else
    propagates. [Error] carries the last failure after the attempts are
    spent — the caller decides whether that is transient (state
    unchanged, client may retry) or fatal. *)

val pp : Format.formatter -> t -> unit
(** The armed points, for [status] lines; ["off"] when nothing is. *)
