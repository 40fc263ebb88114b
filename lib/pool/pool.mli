(** The supervised worker pool: a coordinator process that owns the TCP
    listener, forks N engine workers, and arbitrates the global ε
    budget between them with fenced leases.

    Topology: the coordinator accepts connections and passes each
    descriptor ({!Dp_net.Fd_passing}) to a live worker round-robin.
    Every worker serves them through {!Dp_net.Server} (every defence of
    [dpkit serve --tcp], per worker), services its control channel from
    that loop, runs the full {!Dp_engine.Protocol} against its own shard
    journal [<journal>.shard<k>], and may charge budget only through its
    lease: before any ledger spend the engine's lease gate
    sends [lease ds=… token=… need=…] to the coordinator, where [need]
    is the worker's {e cumulative} face-ε — absolute values make every
    reply idempotent across dropped acks. The coordinator journals the
    grant in its own WAL ([<journal>.grants], {!Grant_wal}) and fsyncs
    {e before} acking — charge-before-grant, one level up.

    Fencing: each worker incarnation carries a monotonically increasing
    token, durable in the WAL before the fork. A lease request under a
    superseded token is answered [lost]; the worker then refuses the
    query with [err degraded reason=lease-lost …] and exits (code 75)
    for a fenced restart. A dead worker's unspent lease is reclaimed
    {e only after} its shard journal is replayed, so the arbiter's
    invariant — [Σ reclaimed spend + Σ outstanding leases ≤ global ε]
    per dataset — holds at every crash point.

    Recovery: a restarted coordinator opens the grant WAL, reads every
    shard journal once, replays each into its own engine
    ({!Dp_engine.Engine.recover}), prints the merge and refuses to
    serve if the invariant is violated. One walk of the WAL serves both
    the merge's fencing check and the rebuilt arbitration, and the
    merge's per-shard face-ε sums are what it reclaims. The offline
    [dpkit pool replay] ({!merge_lines}) runs the same merge over
    {!Grant_wal.load} and opens no file for writing, so it is safe to
    run beside a live pool. The chaos harness asserts that the live
    recovery report is bit-identical to it.

    Generation fencing on disk: the coordinator holds an fcntl lock on
    [<journal>.grants.lock] and each worker on
    [<journal>.shard<k>.lock] for its process lifetime (released by the
    kernel on any death, [kill -9] included). A restarted coordinator
    acquires the WAL lock and probes every shard lock before reading a
    byte, so it can never re-lease budget or reopen journals while a
    previous generation's orphan can still spend or append. *)

type config = {
  seed : int;  (** engine seed for every worker (default 20120330) *)
  workers : int;  (** shard count, ≥ 2 (N=1 is plain [dpkit serve]) *)
  net : Dp_net.Server.config;
      (** the coordinator's listener [port] and [backlog]; the other
          limits apply per worker *)
  journal : string;
      (** base path; shard [k] journals to [.shard<k>], the grant WAL
          to [.grants], merged metrics shards to [<metrics>.shard<k>] *)
  metrics : string option;
  faults : Dp_engine.Faults.t;
      (** injected at lease handling and worker serve *)
}
(** Fixed for every pool: a lease grants 0.5ε beyond immediate need
    per round-trip; a grant may be drawn down without renewal for 5 s,
    and when a request is denied, shards idling past their deadline are
    fenced so their unspent lease returns to the pool; a shard that
    crashes 100 times is left down. *)

val default_config : workers:int -> port:int -> journal:string -> config
(** seed 20120330, {!Dp_net.Server.default_config} on [port], no
    metrics, no faults. *)

val shard_journal : string -> int -> string
val wal_path : string -> string

val merge_lines :
  ?seed:int -> journal:string -> workers:int -> unit ->
  (string list * bool, string) result
(** Replay every shard journal into its own engine, cross-check face-ε
    sums against the grant WAL's per-incarnation leases, and render the
    merged global ledger as stable report lines (hex floats; shard-
    index-order float folds). Returns [(lines, invariant_ok)].
    Deterministic: the coordinator's startup recovery and the offline
    [dpkit pool replay] print byte-identical lines for the same
    on-disk state. Reads each file once and writes none, torn tails
    included. *)

val run : config -> int
(** Run the pool until SIGTERM/SIGINT, then drain: close the listener,
    ask workers to finish in-flight requests, merge their metrics
    shards, print [drained]. Returns the process exit code (1 when
    recovery finds a violated invariant or the WAL cannot be opened). *)

(**/**)

val worker_main :
  config -> shard:int -> token:int -> ctrl:Unix.file_descr -> 'a
(** Exposed for the forked child only. *)
