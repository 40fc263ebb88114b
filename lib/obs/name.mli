(** The closed catalogue of metric, span, and tag names.

    Every identifier the observability layer can export is a constructor
    below; none carries a string payload. Scope labels (the one free-form
    string, see {!Metrics.dataset}) must be dataset ids from the registry
    — never query arguments or released values. Lint rule R7 enforces the
    call-site side of this contract. *)

type counter =
  | Queries_answered
  | Queries_rejected
  | Queries_withheld
  | Cache_hits
  | Cache_misses
  | Journal_appends
  | Journal_fsyncs
  | Journal_retries
  | Draws_laplace
  | Draws_geometric
  | Draws_gaussian
  | Draws_discrete_gaussian
  | Draws_exponential
  | Draws_randomized_response
  | Net_conns_accepted  (** TCP connections accepted by the frontend *)
  | Net_conns_shed  (** refused at accept (max-conns or fd limit) *)
  | Net_requests  (** requests executed by the TCP frontend *)
  | Net_requests_shed  (** requests shed by the admission gate *)
  | Net_deadline_closed  (** connections closed by deadline/idle timeout *)
  | Net_drained  (** connections closed by graceful drain *)
  | Trains_released  (** train queries whose model passed the gate *)
  | Trains_withheld  (** train queries charged but withheld (unconverged) *)
  | Predicts_served  (** predictions served (free post-processing) *)
  | Stream_appends  (** stream events accepted (journaled tree updates) *)
  | Stream_reads  (** prefix/window counts released (free post-processing) *)
  | Pool_leases_granted  (** ε-lease grants journaled and acked *)
  | Pool_leases_denied  (** lease requests denied (budget exhausted) *)
  | Pool_leases_reclaimed  (** dead-incarnation leases folded back *)
  | Pool_workers_restarted  (** worker respawns after a crash/lease loss *)
  | Pool_grants_journaled  (** grant-WAL appends (grants + reclaims) *)

type gauge =
  | Eps_total
  | Eps_spent
  | Eps_remaining
  | Delta_spent
  | Cache_entries
  | Cache_hit_rate
  | Degraded_mode
  | Datasets_serving
  | Journal_attached
  | Mi_bound_nats
  | Capacity_bound_nats
  | Min_entropy_leakage_bits
  | Net_conns_open
  | Net_inflight  (** queued requests + unflushed replies (queue depth) *)
  | Models_stored  (** model handles held (released + withheld) *)
  | Streams_open  (** stream handles held *)
  | Stream_depth  (** deepest tree (levels) over open streams *)
  | Pool_workers  (** configured worker shard count *)
  | Pool_eps_outstanding  (** Σ leased-but-unreclaimed ε across shards *)

type latency =
  | Submit_ns
  | Plan_ns
  | Charge_ns
  | Noise_ns
  | Journal_append_ns
  | Journal_fsync_ns
  | Cache_lookup_ns
  | Meter_ns
  | Recovery_ns
  | Net_accept_to_reply_ns  (** accept to first fully-written reply *)
  | Net_reply_ns  (** request completely read to reply fully written *)
  | Train_ns  (** whole train request: charge, chains, gate, journal *)
  | Gate_ns  (** convergence diagnostics alone *)
  | Predict_ns
  | Append_ns  (** whole append: tree update, noise, journal frame *)
  | Stream_read_ns  (** prefix/window release (post-processing only) *)

type span =
  | Sp_submit
  | Sp_plan
  | Sp_charge
  | Sp_noise
  | Sp_recovery
  | Sp_train
  | Sp_gate

type tag =
  | T_eps_face
  | T_eps_charged
  | T_cache_hit
  | T_attempts
  | T_records
  | T_chains
  | T_rhat

val n_counters : int
val n_gauges : int
val n_latencies : int

(** Dense indices, [0 .. n_* - 1]; back the flat metric arrays. *)

val counter_index : counter -> int
val gauge_index : gauge -> int
val latency_index : latency -> int

val all_counters : counter array
val all_gauges : gauge array
val all_latencies : latency array
val all_spans : span array
val all_tags : tag array

(** Wire names, stable across releases; ASCII [a-z_] only. *)

val counter_name : counter -> string
val gauge_name : gauge -> string
val latency_name : latency -> string
val span_name : span -> string
val tag_name : tag -> string

(** Membership tests for the closed-label invariant (used by [dpkit
    stats] validation and the test suite). *)

val is_counter_name : string -> bool
val is_gauge_name : string -> bool
val is_latency_name : string -> bool
val is_span_name : string -> bool
val is_tag_name : string -> bool
