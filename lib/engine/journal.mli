(** The write-ahead budget journal.

    The one invariant a DP server must never lose is the spent budget:
    a crash that forgets charged ε hands an adversary fresh budget
    (exactly the attack that makes the mutual-information reading of DP
    vacuous). The journal makes the ledger durable with the classic WAL
    discipline, specialised to the charge-before-answer ordering:

    - every state change (dataset registration, budget charge, cache
      insert, model, stream) is a checksummed {!Frame}. A release — a
      query, a train, a stream open — appends its charge and the
      records its result needs as one batch (one write, one fsync)
      after its draw is made in memory and {e before} anything it drew
      is released;
    - recovery replays the journal into a fresh engine, truncating a
      torn tail record (a crash mid-write) at the last valid frame;
    - because the charge is durable before the answer leaves the
      engine, a crash at any point can only {e over}-count spent ε,
      never under-count: replayed spend ≥ released spend, always.

    Charge records carry both the face-value budget (with the RDP curve
    evaluated on the ledger's α-grid, so Rényi accounting reconstructs
    exactly) and the marginal composed charge (so the rebuilt trace can
    be re-verified through [Dp_audit.Replay]). Cache records carry the
    full noisy answer in hex-float encoding, so recovered cache hits
    replay bit-identically. {!Frame} documents the wire format. *)

open Dp_mechanism

type charge_record = {
  dataset : string;
  analyst : string option;
  query : string;  (** normal form, for the rebuilt audit log *)
  mechanism : string;
  face : Privacy.budget;  (** face value the ledger was asked for *)
  marginal : Privacy.budget;  (** composed-spend increase it caused *)
  rho : float array option;
      (** the charge's RDP curve evaluated on {!Dp_mechanism.Rdp.alpha_grid};
          [None] for pure-DP charges (recomputed from [face] on
          replay) *)
}

type cache_record = {
  dataset : string;
  key : string;
  answer : Planner.answer;
  mechanism : Planner.mechanism;
  requested : Privacy.budget;
}

type stream_open_record = {
  dataset : string;
  handle : string;  (** durable stream handle, e.g. [demo/s1] *)
  epsilon : float;  (** per-level budget *)
  horizon : int;
  window : int;  (** declared default sliding window; 0 = none *)
}

type stream_append_record = {
  dataset : string;
  handle : string;
  bit : int;
  nodes : float array;
      (** noisy values of the tree nodes closing at this step, lowest
          level first, hex-float encoded: replay rebuilds the tree
          bit-identically without consuming any PRNG draws *)
}

type record =
  | Register of {
      name : string;
      rows : int;
      seed : int;  (** dataset seed: regenerates identical columns *)
      policy : Registry.policy;
    }
  | Charge of charge_record
  | Cache_insert of cache_record
  | Withheld of { dataset : string; reason : string }
      (** outcome marker for a [Charge] whose release was withheld live
          (journal or RNG failure after the ledger committed, or an
          unconverged train): recovery pairs it with the charge right
          before it, so rebuilt answered/rejected stats and audit
          verdicts match the live run. It always rides in its charge's
          batch: [[Charge; Withheld]], best-effort, for a failed draw or
          batch, and [[Charge; Withheld; Train]] for an unconverged
          train. Only a crash after a batch is durable and before its
          release leaves the engine makes recovery count [answered] for
          a release that never left; the budget itself is carried by
          the [Charge]. *)
  | Train of Dp_train.Model_store.model
      (** a completed training run — released or withheld — in one
          batch with its [Charge] (and, when unconverged, the
          [Withheld] marker between them). Recovery rebuilds the model
          store from these in journal order, so handle names are stable
          and a restarted server resolves [predict]/[model] queries
          bit-identically; θ is hex-float encoded. The model's [face]
          is display metadata: the authoritative charge is the
          [Charge]. *)
  | Stream_open of stream_open_record
      (** a stream handle becoming resolvable, in one batch with the
          [Charge] that paid its whole-lifetime face — the handle
          exists iff this frame is durable, like model handles. *)
  | Stream_append of stream_append_record
      (** one accepted append, fsynced {e before} the tree mutates:
          the closing nodes' noise is durable before any read can
          release it, so a kill -9 at any point leaves the recovered
          stream releasing exactly the counts the live one did. *)

type stats = {
  records : int;  (** valid records replayed *)
  torn_bytes : int;  (** trailing bytes dropped (torn tail) *)
}

type t

val open_ :
  ?faults:Faults.t ->
  ?obs:Dp_obs.Metrics.scope ->
  ?jitter:Dp_rng.Prng.t ->
  string ->
  (t * record list * stats, string) result
(** Open (or create) a journal for appending. [obs] (default
    {!Dp_obs.Metrics.null}, a drop-everything sink) receives append and
    fsync latency observations plus append/fsync/retry counters — the
    engine passes its global scope. [jitter] (a non-privacy RNG stream,
    see {!Faults.backoff_delay}) adds full jitter to the append/fsync
    retry backoff. Existing records are
    returned for replay, with the torn tail truncated and a new file's
    directory entry fsynced as {!Frame.open_} describes (a missing
    journal reads as an empty one — the one way recovery could
    under-count). [Error] means the file could not be opened or
    repaired at all. *)

val append :
  t -> record list -> (unit, [ `Transient of string | `Fatal of string ]) result
(** Append the records of one release as one batch: framed back to
    back, written with one write and made durable with one fsync, each
    under bounded retry-with-backoff ({!Faults.with_retries}). All of
    the batch is durable or none of it: the clean prefix extends over
    the batch only after the fsync succeeds, and a write or fsync that
    still fails after its retries cuts the file back to where the batch
    began, so a refused record never replays. [`Transient]: nothing of
    the batch is in the file, and the caller may retry the whole
    operation later. [`Fatal]: the file could not be cut back; the
    journal is poisoned and every later append fails fatally (the
    engine then degrades to serving cache hits only). The counters
    count [journal_appends] per record and [journal_fsyncs] per batch;
    [journal_append_ns] times a batch. *)

val path : t -> string
val close : t -> unit

val load : string -> (record list * stats, string) result
(** What recovery would replay, read as {!Frame.load} reads: once,
    without opening the file for writing. A missing file is an empty
    journal. *)
