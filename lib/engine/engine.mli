(** The differentially-private query-serving engine.

    Composes the registry, per-dataset ledgers, the answer cache, the
    leakage meter, the audit log and (optionally) the write-ahead
    budget journal into an interactive service: a dataset is registered
    once with a lifetime budget, then queries arrive and are planned,
    charged, answered (or served from cache, or rejected) until the
    budget is exhausted. This is the operational form of the paper's
    channel view: the engine *is* the channel [Ẑ → θ], and the report's
    leakage reading meters it.

    {2 Crash safety}

    With a journal attached ({!open_journal}) every state change is
    durable before its effect is visible: registrations, budget
    charges, cache inserts, models and streams. Every release — a
    query, a train, a stream open — takes one path: the ledger is
    charged, the draw is made in memory, and the charge and the
    records the result needs are fsynced together, as one batch,
    {e before} anything drawn is released — charge-before-answer. A
    crash at any point can only over-count spent ε, never
    under-count. Failures on the release
    path surface as typed {!error}s ([Transient] is retryable, [Fatal]
    is not); injected faults ({!Faults}) drive every one of those paths
    in tests. When remaining ε falls below the policy's low-water mark,
    or the journal is poisoned, the engine degrades to serving cache
    hits only instead of hard-failing mid-analysis. *)

open Dp_mechanism

type t

val create :
  ?seed:int -> ?audit:bool -> ?obs:bool -> ?faults:Faults.t -> unit -> t
(** [seed] (default 20120330) drives all mechanism noise — the engine
    is deterministic given the seed and the request sequence, until a
    journal is attached: {!open_journal} re-keys the noise stream from
    OS entropy (synthetic data stays seed-derived). The seed also keys
    a separate non-privacy stream for retry-backoff jitter
    ({!Faults.backoff_delay}), so retry schedules replay
    deterministically without ever touching the noise stream. [audit] (default
    [true]) controls the unbounded audit log; benchmarks serving
    millions of requests switch it off. [obs] (default [true]) controls
    the observability layer ({!metrics}/{!trace}); with it off every
    record operation is a no-op, which is the baseline the overhead
    gate benchmarks against. [faults] defaults to {!Faults.of_env}
    ([$DPKIT_FAULTS]), so a CI leg can soak the whole suite in
    transient failures. *)

val register : t -> Registry.dataset -> (unit, string) result
(** Rejected when a journal is attached: raw column data is not
    journaled, and a dataset must never be servable without being
    durable. Use {!register_synthetic}. *)

val register_synthetic :
  t -> name:string -> rows:int -> policy:Registry.policy ->
  (Registry.dataset, string) result
(** Register the deterministic demo dataset of {!Registry.synthetic},
    drawn from a per-dataset seed derived from the engine seed and the
    name — registration order and prior traffic do not change the data,
    so recovery regenerates identical columns. What {!Registry.admit}
    refuses is an [Error] leaving no trace; with a journal attached the
    dataset is served only once its registration is durable. *)

val datasets : t -> string list
val find : t -> string -> Registry.dataset option

type error =
  | Unknown_dataset of string
  | Bad_query of string
  | Budget_exceeded of Ledger.rejection
  | Degraded of {
      dataset : string;
      remaining : Privacy.budget;
      low_water : float;
    }  (** below the low-water mark: cache hits only, fresh releases
           refused softly *)
  | Unconverged of {
      dataset : string;
      handle : string;  (** the withheld model's durable handle *)
      worst_rhat : float;
      min_ess : float;
      charged : Privacy.budget;
          (** the charge stands: the chains read the data, so the ε is
              spent whether or not a sample leaves — a refund would let
              an analyst retry until lucky, and releasing an
              unconverged draw would release a biased sample nobody
              priced *)
    }
  | Unknown_model of string
  | Unknown_stream of string
  | Lease_lost of { dataset : string; token : int }
      (** pool worker only: this worker's ε-lease is expired or its
          fencing token superseded — it refuses fresh charges until the
          supervisor restarts it with a fresh token. Rendered as
          [err degraded reason=lease-lost]. *)
  | Transient of string
      (** retryable: the journal append or fsync failed after bounded
          retries, or the RNG was exhausted during a release's draw
          (a query's noise, a train's chains) — nothing was released
          and the live ledger keeps the charge, so ε only over-counts;
          the client may retry *)
  | Fatal of string
      (** not retryable: the journal is poisoned; the engine serves
          cache hits only from here on *)

val pp_error : Format.formatter -> error -> unit

type response = {
  answer : Planner.answer;
  mechanism : Planner.mechanism;
  requested : Privacy.budget;  (** face value of the query *)
  charged : Privacy.budget;
      (** marginal increase of the composed spend; zero on cache hits *)
  cache_hit : bool;
  seq : int;  (** audit-log sequence number (-1 when auditing is off) *)
}

val submit :
  t -> ?analyst:string -> ?epsilon:float -> dataset:string -> Query.t ->
  (response, error) result
(** Serve one query. [epsilon] defaults to the dataset policy's
    [default_epsilon]. Cache hits are answered even after the budget is
    exhausted (post-processing costs nothing), and even in degraded
    mode. With a journal attached the charge and the answer's cache
    record are journaled and fsynced as one batch after the noise is
    drawn in memory and before the answer is returned. *)

val submit_text :
  t -> ?analyst:string -> ?epsilon:float -> dataset:string -> string ->
  (response, error) result
(** [submit] composed with {!Query.parse}. *)

type report = {
  dataset : string;
  rows : int;
  queries : int;  (** decisions for this dataset, including rejections *)
  answered : int;
  cache_hits : int;
  rejected : int;
  hit_rate : float;
  backend : Ledger.backend;
  total : Privacy.budget;
  spent : Privacy.budget;
  remaining : Privacy.budget;
  leakage : Meter.reading;
  degraded : bool;
      (** serving cache hits only (low-water reached or journal down) *)
}

val report : t -> dataset:string -> (report, error) result
val pp_report : Format.formatter -> report -> unit

val records : t -> dataset:string -> Audit_log.record list

val replay : t -> dataset:string -> (Dp_audit.Replay.outcome, error) result
(** Re-verify the audit log's charged trace against the dataset's total
    budget via [Dp_audit.Replay]. *)

val analyst_spent : t -> dataset:string -> analyst:string -> Privacy.budget

(** {2 Served learning}

    A [train] request is a query like any other: planned statically
    ({!Dp_train.Train.spec} — the analyzer prices it bit-identically),
    charged through the ledger before its chains run, journaled with
    its model in one batch, and released only if the convergence gate
    passes. The release is an
    opaque {e model handle}; {!predict} is free post-processing of the
    released θ. *)

type trained = {
  model : Dp_train.Model_store.model;
  charged : Privacy.budget;  (** marginal composed-spend increase *)
  seq : int;  (** audit-log sequence number (-1 when auditing is off) *)
}

val train :
  t ->
  ?analyst:string ->
  dataset:string ->
  Dp_train.Train.params ->
  (trained, error) result
(** Run one private training request. The charge ([chains·ε] for
    Gibbs, [ε] for objective perturbation) is spent on the ledger
    before any chain runs; the chains are the release's draw, and the
    charge and the model frame are journaled and fsynced as one batch
    after them, before the handle becomes resolvable, so a recovered
    engine resolves exactly the handles the live one did,
    bit-identically. An unconverged run returns
    [Error (Unconverged _)]: the charge stands (journaled as withheld
    in the same batch) and the handle resolves to a θ-less model. A
    failed batch withholds the model and issues no handle. *)

val find_model : t -> string -> Dp_train.Model_store.model option
(** Resolve a handle ([dataset/mN]); free, served even degraded. *)

val predict : t -> string -> float array -> (float, error) result
(** Score one raw point with a released model: the training-time
    feature transform then [θ·x̃]. Post-processing — no ledger charge,
    no data access, served even in degraded mode and after budget
    exhaustion. [Unknown_model] for an unresolvable handle, [Bad_query]
    for a withheld model or a dimension mismatch. *)

val models : t -> dataset:string -> (Dp_train.Model_store.t, error) result

(** {2 Continual observation}

    A [stream] is the engine's continual-release object: the analyst
    pays the whole-lifetime face charge once at [stream_open] —
    ε per level × ⌈log₂ N⌉ levels ({!Dp_stream.Stream.spec}, priced
    bit-identically by the analyzer) — then feeds [append] events and
    reads continually-updated private prefix counts and sliding-window
    counts for free. Counts come from the tree (binary) mechanism
    ({!Dp_stream.Counter}): per-release error stays polylogarithmic in
    the stream length instead of linear.

    Durability inverts none of the engine's rules: the open's charge
    and its handle are journaled as one batch before the handle exists,
    and every append journals the
    closing tree nodes' {e noisy} values before the in-memory tree
    mutates — so a kill -9 at any point recovers a stream releasing
    bit-identical counts, without consuming a single PRNG draw on
    replay. Tree noise comes from a dedicated stream keyed off the
    engine seed (re-keyed from OS entropy when a journal attaches), so
    recovery can never redraw or reuse pre-crash noise. *)

type stream_opened = {
  stream : Dp_stream.Stream_store.stream;
  charged : Privacy.budget;  (** marginal composed-spend increase *)
  seq : int;  (** audit-log sequence number (-1 when auditing is off) *)
}

val stream_open :
  t ->
  ?analyst:string ->
  dataset:string ->
  Dp_stream.Stream.params ->
  (stream_opened, error) result
(** Open a continual-observation counter over [dataset] events. Charges
    [Stream.spec params] (the whole stream's budget) up front, through
    the same release path as a query with an empty draw: the charge
    and the stream's frame are one journal batch, fsynced before the
    handle exists. Refused in degraded mode or with the journal down,
    like any fresh release. The returned handle ([dataset/sN]) is
    durable: it resolves after recovery iff it resolved live. *)

type appended = {
  handle : string;
  t_now : int;  (** stream length after this append *)
  nodes_closed : int;  (** tree nodes finalized (and journaled) *)
}

val append : t -> string -> int -> (appended, error) result
(** [append t handle bit] feeds one event (0 or 1) to the stream.
    Pre-paid — served even in low-water degraded mode — but requires a
    working journal when one is attached: the closing nodes' noise is
    fsynced before the tree mutates. [Bad_query] past the declared
    horizon or for a non-bit event. *)

type stream_count = {
  handle : string;
  t_now : int;  (** releases are as of this stream length *)
  count : float;  (** noisy count over the released range *)
  window : int option;  (** [None]: whole-prefix count *)
  face : Privacy.budget;  (** the stream's whole-lifetime charge *)
  leak : Meter.stream_reading;  (** per-timestep MI accounting *)
}

val stream_read : t -> string -> (stream_count, error) result
(** The private count of 1-events over the whole prefix [(0, t_now]].
    Deterministic post-processing of already-journaled node noise — no
    charge, no data access, served even degraded, exhausted, or with
    the journal down. *)

val stream_window : t -> string -> ?w:int -> unit -> (stream_count, error) result
(** The private count over the sliding window [(t_now - w, t_now]]
    ([w] clamped to the prefix). [w] defaults to the window declared at
    open; [Bad_query] if neither is given. Same free post-processing
    contract as {!stream_read}. *)

val find_stream : t -> string -> Dp_stream.Stream_store.stream option
(** Resolve a handle ([dataset/sN]); free, served even degraded. *)

val streams : t -> dataset:string -> (Dp_stream.Stream_store.t, error) result

(** {2 Durability} *)

type recovery = {
  journal_path : string;
  records : int;  (** journal records replayed *)
  torn_bytes : int;  (** torn-tail bytes truncated off the journal *)
  datasets : int;  (** datasets rebuilt *)
  charges : int;  (** budget charges re-applied *)
  cache_entries : int;  (** cached answers restored (replay bit-identically) *)
  models_recovered : int;
      (** model handles rebuilt from Train frames (θ bit-identical) *)
  streams_recovered : int;
      (** stream handles rebuilt from Stream_open frames, their trees
          re-committed from journaled node noise (counts bit-identical) *)
  verified : bool;  (** rebuilt state passed [Dp_audit.Replay] *)
}

val open_journal : t -> string -> (recovery, string) result
(** Open (or create) the write-ahead journal at [path], replay any
    existing records into this engine — rebuilding registry, ledgers,
    caches and audit log — and keep the journal attached for appends.
    Recovery truncates a torn tail record, then verifies the rebuilt
    ledger against the replayed audit trace; an inconsistent journal is
    refused outright. Fails if a journal is already attached.

    Attaching also re-keys the engine's noise stream from OS entropy:
    replay consumes no PRNG draws, so a recovered engine that kept its
    seeded stream would reuse the exact noise values released before
    the crash — a restart-inducing analyst could difference pre- and
    post-crash answers to cancel the noise. Cached answers still replay
    bit-identically (they travel in the journal); only {e fresh} noise
    is deliberately unreproducible across runs. *)

val recover : t -> Journal.record list -> (unit, string) result
(** The replay and verification half of {!open_journal}: rebuild this
    engine from [records] ({!Journal.load}) and check it against the
    replayed audit trace. Touches no file and keeps the seeded noise
    stream, so it is for inspecting a journal, not for serving from
    one. *)

val journal_path : t -> string option
val faults : t -> Faults.t

(** {2 ε-lease gating (worker pool)}

    A pool worker serves against a {e leased} slice of the global
    budget: its local ledger mirrors the full global ε (so merged
    recovery replays composed accounting identically), and the lease
    gate — consulted immediately before {e every} ledger spend — is
    what keeps the sum of concurrent workers' spends under the global
    budget. Appends and all post-processing (cache hits, predict,
    stream reads) bypass the gate: they charge nothing. *)

type lease_verdict =
  | Lease_granted
  | Lease_superseded of { token : int }
      (** stale fencing token: a newer incarnation owns the shard *)
  | Lease_denied of {
      requested : Privacy.budget;
      remaining : Privacy.budget;
    }  (** no unleased ε left globally; maps to [Budget_exceeded] *)
  | Lease_unavailable of string
      (** coordinator unreachable; maps to [Transient] *)

val set_lease_gate :
  t -> (dataset:string -> face:Privacy.budget -> lease_verdict) option -> unit
(** Install (or clear) the lease gate. [None] — the default — is the
    single-process fast path: no gate consultation, byte-identical
    N=1 behavior. *)

(** {2 Observability}

    The engine instruments itself end-to-end with the leakage-safe
    {!Dp_obs} subsystem: latency histograms for plan/charge/noise/
    journal/cache/meter/recovery, spans for submit/plan/charge/noise/
    recovery, per-dataset counters (answered/rejected/withheld,
    cache hits/misses) and privacy-native gauges (spent/remaining ε,
    degradation mode, MI-bound readings), plus process-wide noise-draw
    counters per mechanism family. Metric names come from the closed
    {!Dp_obs.Name} catalogue and scope labels are dataset ids only, so
    the exported snapshot can never carry query arguments or released
    values (lint rule R7 enforces the call sites). *)

val metrics : t -> Dp_obs.Metrics.t
val trace : t -> Dp_obs.Span.t

val refresh_metrics : t -> unit
(** Mirror the authoritative engine state (serving stats, ledger spend,
    cache counters, meter readings, draw counts) into the metric
    registry. Snapshot-time mirroring — rather than hot-path counter
    increments — is what makes a recovered engine's snapshot agree with
    the live one by construction. *)

val metrics_lines : ?spans:bool -> t -> string list
(** [refresh_metrics] followed by {!Dp_obs.Export.dump}: the version
    header plus one line per metric (and per ring-buffered span unless
    [~spans:false]). This is the wire format served by the protocol's
    [metrics] command, written by [dpkit serve --metrics], and parsed
    by [dpkit stats]. *)

val close : t -> unit
(** Close the journal, if any. The engine keeps serving, but no longer
    durably. *)
