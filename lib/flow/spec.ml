(* The privacy-dataflow catalogue: which calls create protected
   values, which launder them, which release them, and which
   subsystems own which PRNG streams. This is the one file to touch
   when the codebase grows a new mechanism, sink, or subsystem. *)

let checks =
  [
    ( "F1",
      "row taint: raw dataset values may only reach replies, journal \
       frames, logs, or metrics through a DP mechanism or a declared \
       [@dp.sanitizer]" );
    ( "F2",
      "charge-before-release: on every path, a ledger charge (or \
       deterministic-gate proof) dominates the release of an answer" );
    ( "F3",
      "RNG provenance: PRNG streams stay inside their owning \
       subsystem; no cross-subsystem stream reuse, raw copies, or \
       duplicate constant seeds" );
  ]

(* ---------- F1: row taint ---------- *)

(* calls whose result is raw protected data; a column's synopsis is
   the same rows in sorted order *)
let row_sources =
  [ ("Registry", "column"); ("Registry", "synopsis"); ("Dataset", "row") ]

(* record fields holding raw per-individual values; reading one
   taints the result. [.values] is THE raw-data access path in this
   codebase (Registry columns); Model_store's [features] and train's
   [design] are metadata/derived and flow in through calls instead *)
let row_fields = [ "values" ]

(* fields that are public metadata by design (row counts, charged
   epsilons, chain counts): reading one out of a tainted record
   declassifies — the projection is exactly the kind of aggregate the
   policy publishes *)
let public_fields =
  [ "epsilon"; "rows"; "records"; "chains"; "rdp"; "cache"; "scope" ]

(* every mechanism module is a sanitizer boundary: a call into one
   consumes its (tainted) inputs and returns a private answer *)
let sanitizer_modules =
  [
    "Laplace";
    "Geometric_mech";
    "Discrete_gaussian";
    "Exponential";
    "Noisy_max";
    "Permute_and_flip";
    "Randomized_response";
    "Local_dp";
    "Sparse_vector";
    "Propose_test_release";
    "Smooth_sensitivity";
    "Binary_mechanism";
    "Counter";
    "Range_queries";
    "Subsample";
    "Mechanism";
  ]

(* named functions allowed to carry [@dp.sanitizer]; the attribute
   alone is not enough — an annotation outside this list is itself a
   finding, so laundering cannot be introduced by a stray attribute *)
let sanitizer_allowlist =
  [
    ("Quantile", "estimate_sorted");  (* exponential mechanism over ranks *)
    ("Train", "run");  (* Gibbs-posterior / objective-perturbation samplers *)
    ("Train", "public_facts");  (* design's public projection: names+bounds *)
    ("Planner", "cell_run");  (* per-cell histogram noising *)
    ("Protocol", "exec");  (* returns formed replies: the DP surface *)
    ("Engine", "open_journal");  (* replay stats / IO diagnostics only *)
  ]

type sink_kind = Reply | Journal | Log | Metrics

let sink_kind_name = function
  | Reply -> "protocol reply"
  | Journal -> "journal frame"
  | Log -> "log output"
  | Metrics -> "metrics sink"

(* (module, ident) -> sink; "" matches unqualified stdlib printers *)
let sinks =
  [
    (("", "print_string"), Log);
    (("", "print_endline"), Log);
    (("", "print_int"), Log);
    (("", "print_float"), Log);
    (("", "print_newline"), Log);
    (("", "prerr_string"), Log);
    (("", "prerr_endline"), Log);
    (("", "output_string"), Reply);
    (("", "output_char"), Reply);
    (("", "output_bytes"), Reply);
    (("Printf", "printf"), Log);
    (("Printf", "eprintf"), Log);
    (("Printf", "fprintf"), Reply);
    (("Format", "printf"), Log);
    (("Format", "eprintf"), Log);
    (("Format", "fprintf"), Reply);
    (("Unix", "write"), Reply);
    (("Unix", "write_substring"), Reply);
    (("Unix", "single_write"), Reply);
    (("Unix", "send"), Reply);
    (("Unix", "send_substring"), Reply);
    (("Buffer", "add_string"), Reply);
    (("Buffer", "add_bytes"), Reply);
    (("Buffer", "add_channel"), Reply);
    (("Journal", "append"), Journal);
    (("", "journal_append"), Journal);
    (("Metrics", "incr"), Metrics);
    (("Metrics", "add"), Metrics);
    (("Metrics", "observe"), Metrics);
    (("Metrics", "set_counter"), Metrics);
    (("Metrics", "set_gauge"), Metrics);
    (("Span", "tag"), Metrics);
    (("Obs", "log"), Log);
  ]

(* cardinalities and sizes are public metadata in this design
   (Registry exposes row counts); taking a length declassifies *)
let declassifiers =
  [
    ("Array", "length");
    ("List", "length");
    ("String", "length");
    ("Bytes", "length");
    ("Hashtbl", "length");
    ("Buffer", "length");
    ("Registry", "rows");
    ("Registry", "policy");
    ("Registry", "schema");
  ]

(* F1 reports only where leakage matters: the serving, training,
   certification, and observability layers. Mechanism internals and
   pure math are out of scope. *)
let f1_scope_segs =
  [ "engine"; "net"; "train"; "certify"; "obs"; "stream"; "pool" ]

(* ---------- F2: charge-before-release ---------- *)

(* a call to any of these puts the current path in the Charged state:
   budget actually spent, a replayed charge honored, or a
   deterministic no-privacy-cost proof established *)
let chargers =
  [
    ("Ledger", "spend");
    ("Ledger", "replay_charge");
    ("Gates", "check");
    ("Gates", "deterministic");
    (* the pool's charge-before-grant: a lease is journaled in the
       coordinator's grant WAL before any worker may answer under it *)
    ("Grant_wal", "append");
  ]

(* release sites: applying a planner's [.run] closure, or
   constructing a [Released] outcome *)
let release_field = "run"
let release_construct = "Released"
let f2_scope_segs = [ "engine"; "train"; "stream"; "pool" ]

(* tail calls that terminate a path without releasing *)
let diverging =
  [ ("", "failwith"); ("", "invalid_arg"); ("", "raise"); ("", "exit") ]

(* ---------- F3: RNG provenance ---------- *)

let stream_creators = [ ("Prng", "create"); ("Prng", "split") ]
let stream_fields = [ "rng"; "jitter" ]

(* calls that consume a stream and return plain data — the stream does
   not survive into the result (draws are handled generically; these
   are the named exceptions) *)
let stream_consumers =
  [
    ("Registry", "synthetic");
    ("Faults", "backoff_delay");
    ("Faults", "with_retries");
  ]

(* subsystem domains: engine, train and stream share one domain (the
   engine hands its streams to training and to tree-counter noise
   deliberately — engine.ml threads t.rng into Train.run and
   t.stream_rng into Counter.prepare closures); net and certify own
   theirs *)
let domain_of_segs segs =
  if List.mem "engine" segs || List.mem "train" segs
     || List.mem "stream" segs || List.mem "pool" segs
  then Some "engine"
  else if List.mem "net" segs then Some "net"
  else if List.mem "certify" segs then Some "certify"
  else None

(* module prefix -> owning domain, for calls into wrapped libraries
   whose source is outside the analyzed set *)
let domain_of_module m =
  match m with
  | "Engine" | "Protocol" | "Planner" | "Ledger" | "Train" | "Stream"
  | "Counter" | "Stream_store" | "Pool" | "Lease" | "Grant_wal" ->
      Some "engine"
  | "Client" | "Server" | "Wire" -> Some "net"
  | "Certify" | "Stat" -> Some "certify"
  | _ -> None

(* modules that live inside a domain's directory but are shared
   infrastructure (Poll takes only fds and ints): passing a stream to
   them is not a crossing *)
let neutral_modules = [ "Faults"; "Poll" ]

(* process entry points inside a domain: a forked pool worker wires its
   engine into its Server exactly as bin/ does for one process *)
let composition_roots = [ ("Pool", "worker_main") ]

(* Prng.copy is the raw-state escape hatch: flagged in any
   domain-owning subsystem (engine/train, net, certify); the rng
   library itself and neutral code may use it *)
