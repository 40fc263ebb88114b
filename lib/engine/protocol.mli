(** Deterministic line protocol over stdin/stdout — `dpkit serve`.

    One request per line, one or more reply lines per request; replies
    start with [ok], [err], or (for multi-line reports and logs) an
    indented block after a header line. The protocol needs no
    dependencies beyond the standard library, so the engine is drivable
    end-to-end from a shell pipe, a test harness, or an expect script.

    Commands:
    {v
    register NAME [rows=N] [eps=E] [delta=D] [backend=basic|advanced|rdp]
                  [slack=S] [default-eps=E] [analyst-eps=E]
                  [universe=U] [low-water=E] [no-cache]
    query NAME EXPR [eps=E] [analyst=A]
    report NAME
    log NAME
    replay NAME
    status
    metrics
    help
    quit
    v}

    [status] reports, per dataset, spent/remaining ε, answered and
    cache-hit counts, the cache hit-rate, and the serving mode.
    [metrics] replies with a header line followed by the full
    {!Dp_obs.Export} dump (every counter, gauge, latency histogram and
    ring-buffered span), indented two spaces — the same snapshot
    [dpkit serve --metrics FILE] writes at exit and [dpkit stats]
    renders.

    {2 Error taxonomy}

    Every reply to a malformed or failed request is a typed [err] line:
    [err bad-argument]/[err bad-query]/[err unknown-*] (the request is
    wrong — fix and resend), [err budget-exceeded] (final for that
    budget), [err degraded] (low-water reached: cache hits still
    served), [err transient] (infrastructure hiccup — safe to retry,
    any committed charge is kept), [err overloaded retry-after=MS]
    (the TCP frontend shed the request — retry after the delay; emitted
    by {!Dp_net.Server}, computed from queue depth only, never budget
    state), [err fatal] (journal poisoned or internal error — give up).
    Option lists reject unknown and duplicate keys, and lines over
    {!max_line_bytes} are refused before parsing. No exception escapes
    {!exec} (injected {!Faults.Crash} is the deliberate exception — it
    simulates the process dying). *)

val max_line_bytes : int
(** Longest accepted request line (4096). {!serve} reads with a
    bounded buffer, so a longer line — even gigabytes with no newline —
    gets [err bad-argument] while only ever holding
    [max_line_bytes + 1] bytes in memory. *)

val max_reply_lines : int
(** Longest reply {!exec} will return (256 lines). Multi-line replies
    (report, log, metrics) past the cap are truncated to the first
    [max_reply_lines - 1] lines plus an indented [  truncated=N]
    trailer counting the dropped lines, so one request cannot stream an
    unbounded reply through the single-threaded network frontend. *)

val oversized_reply : int -> string
(** The [err bad-argument] line for a request of [n] bytes exceeding
    {!max_line_bytes} — shared with the network frontend's bounded
    reader so both transports reject oversized lines identically. *)

val parse_opts :
  known:string list ->
  string list ->
  ((string * string option) list, string) result
(** Parse [key=value] / bare-flag tokens. Unknown keys and duplicate
    keys are rejected with an [err bad-argument ...] line as the error. *)

val find_opt : string -> (string * string option) list -> string option
(** The value of [key=value] in parsed options, if given. *)

val float_opt :
  string ->
  default:float ->
  (string * string option) list ->
  (float, string) result
(** A finite float option, [default] when absent; a malformed value is
    an [err bad-argument KEY=VALUE] line. *)

val dataset_of_opts :
  name:string -> string list -> (int * Registry.policy, string) result
(** The row count and policy of a [register NAME] line's options: the
    one grammar and admission check ({!Registry.admit}) for a served
    dataset, which [dpkit analyze] and the pool coordinator apply too.
    [Ok] only for what nothing built from it can raise on; otherwise
    the [err bad-argument REASON] line a single server replies. *)

val exec : Engine.t -> string -> string list
(** Execute one request line; returns the reply lines (empty for blank
    or [#]-comment lines). Never raises on malformed input; unexpected
    internal exceptions come back as [err fatal internal ...]. *)

val is_quit : string -> bool

val serve : Engine.t -> in_channel -> out_channel -> unit
(** Read-eval-print until EOF or [quit]; flushes after every reply.
    The engine's fault plan can substitute an injected garbage line for
    a read request ({!Faults.Garbage_line}), which must bounce off the
    oversized-line guard. *)
