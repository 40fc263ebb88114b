(** Fenced ε-lease arbitration for one dataset across N worker shards.

    The coordinator owns the only authoritative view of the dataset's
    global budget E. Each live worker incarnation holds a {e lease}: a
    cumulative face-ε allowance it may charge locally without asking
    again, fenced by a monotonically-increasing token so a superseded
    incarnation (crashed, expired, restarted) can never spend against a
    grant that has been reclaimed.

    The module is a pure state machine over three per-shard numbers —
    current fencing [token], [leased] (cumulative ε granted to the live
    incarnation) and [reclaimed] (absolute ε spent by all dead
    incarnations, read back from the shard journal) — with the one
    invariant the pool must never break:

    {v Σ reclaimed + Σ leased  ≤  E v}

    Amounts are {e face-value} ε sums, an upper bound on every
    composition backend's marginal spend, so arbitration is
    conservative for advanced/RDP ledgers and exact for basic ones.
    All decisions are absolute (cumulative) rather than incremental, so
    replaying a grant whose ack was lost is idempotent. *)

type t

val create : total:float -> shards:int -> t
(** Arbitration over budget [total] for [shards] workers, none live
    yet. @raise Invalid_argument on negative total or no shards. *)

val budget : t -> float
val shards : t -> int

val outstanding : t -> float
(** Σ leased to live incarnations (whether locally spent or not). *)

val reclaimed_spent : t -> float
(** Σ journal-replayed spend of dead incarnations. *)

val unleased : t -> float
(** [budget - outstanding - reclaimed_spent], clamped at 0 — the ε
    still grantable. *)

val invariant_ok : t -> bool
(** [reclaimed_spent + outstanding ≤ budget] (within 1e-9 slack). *)

val leased : t -> shard:int -> float

val expired : t -> now:float -> int list
(** Shards holding a non-zero lease whose last grant deadline lies
    before [now] — incarnations idling on unspent budget. The
    coordinator may fence them (the worker exits for a supervised
    restart and its journal replay returns the unspent remainder); the
    arbiter itself never revokes, so soundness never depends on the
    clock. *)

val new_incarnation : t -> shard:int -> token:int -> unit
(** Install a freshly-started incarnation. @raise Invalid_argument if
    [token] does not strictly increase, or if the previous incarnation
    was never reclaimed (the supervisor must replay its journal and
    {!reclaim} before restarting — otherwise its unspent lease would
    leak). *)

type decision =
  | Granted of { leased : float; deadline : float }
      (** the shard's new cumulative allowance (absolute, idempotent to
          re-deliver) and its expiry deadline *)
  | Denied of { unleased : float }
      (** granting [need] would break the invariant; [unleased] is what
          remains grantable globally *)
  | Stale of { token : int }
      (** the request carried a superseded fencing token; [token] is
          the current one (or -1) — the worker must stop charging and
          exit for restart *)

val grant :
  t ->
  shard:int ->
  token:int ->
  need:float ->
  quantum:float ->
  now:float ->
  ttl:float ->
  decision
(** Ask to raise the shard's cumulative allowance to at least [need].
    A fresh grant rounds up to [quantum] above the current lease when
    headroom allows (fewer round-trips); a [need] already covered is
    re-acked without state change. [now + ttl] is the returned
    deadline; expiry is enforced by the worker refusing to charge past
    it (and renewing), not by a coordinator-side clock. *)

val rollback : t -> shard:int -> token:int -> leased:float -> unit
(** Undo a {!grant} that could not be made durable: restore the shard's
    cumulative allowance to [leased] (the value {!leased} returned
    before the grant). A no-op unless [token] is still the live
    incarnation and [leased] is strictly below the current allowance —
    so a stale or re-ordered rollback can never widen a lease. Without
    this, a failed WAL append would leave the raised allowance in
    memory and the worker's retry would be re-acked against a lease
    that was never journaled. *)

type reclaimed = { unspent : float; overspend : bool }

val reclaim : t -> shard:int -> spent_total:float -> reclaimed
(** Fold a dead incarnation back into the pool. [spent_total] is the
    {e absolute} face-ε sum replayed from the shard's journal (all
    incarnations); the difference against the last reclaim is what the
    dead incarnation actually spent, the rest of its lease returns to
    [unleased]. [overspend] flags spend beyond the lease — a fencing
    violation that must fail the run. *)
