open Dp_mechanism
module Train = Dp_train.Train
module Gates = Dp_train.Gates
module Model_store = Dp_train.Model_store
module Stream = Dp_stream.Stream
module Counter = Dp_stream.Counter
module Stream_store = Dp_stream.Stream_store

(* What the pool's ε-lease arbitration says about a prospective charge.
   The gate is consulted immediately before every ledger spend; a
   worker whose lease is expired, superseded, or too small must not
   spend even though its local ledger (which mirrors the full global
   budget) would admit the charge. *)
type lease_verdict =
  | Lease_granted
  | Lease_superseded of { token : int }
      (** this worker's fencing token is stale: a newer incarnation
          holds the shard — refuse and let the supervisor recycle us *)
  | Lease_denied of {
      requested : Dp_mechanism.Privacy.budget;
      remaining : Dp_mechanism.Privacy.budget;
    }  (** the coordinator has no unleased ε left: global exhaustion *)
  | Lease_unavailable of string
      (** the coordinator could not be reached (dropped grant, timeout):
          transient, the client may retry *)

type serving = {
  dataset : Registry.dataset;
  ledger : Ledger.t;
  cache : Cache.t;
  models : Model_store.t;
  streams : Stream_store.t;
  scope : Dp_obs.Metrics.scope;
  mutable answered : int;
  mutable rejected : int;
  mutable withheld : int;
}

type t = {
  servings : (string, serving) Hashtbl.t;
  log : Audit_log.t option;
  obs : Dp_obs.Metrics.t;
  trace : Dp_obs.Span.t;
  mutable rng : Dp_rng.Prng.t;
  mutable stream_rng : Dp_rng.Prng.t;
  retry_rng : Dp_rng.Prng.t;
  seed : int;
  faults : Faults.t;
  mutable journal : Journal.t option;
  mutable journal_failed : bool;
  mutable lease_gate :
    (dataset:string -> face:Privacy.budget -> lease_verdict) option;
}

(* Fresh noise key for journaled serving. Recovery replays charges
   without consuming any draws, so a restarted engine that kept the
   seeded stream would hand its first fresh releases the very noise
   values already released before the crash — an analyst who can induce
   restarts could difference pre- and post-crash answers and cancel the
   noise exactly. Noise, unlike cached answers, never needs to be
   reproducible, so every journal attach re-keys the stream from OS
   entropy. *)
let entropy_seed () =
  match
    In_channel.with_open_bin "/dev/urandom" (fun ic ->
        let b = Bytes.create 8 in
        really_input ic b 0 8;
        Int64.to_int (Bytes.get_int64_le b 0))
  with
  | n -> n land max_int
  | exception (Sys_error _ | End_of_file) ->
      (* no urandom: time-and-pid is weaker but still unique per
         process, which is all noise freshness needs *)
      Hashtbl.hash (Unix.gettimeofday (), Unix.getpid ())

let create ?(seed = 20120330) ?(audit = true) ?(obs = true) ?faults () =
  let faults = match faults with Some f -> f | None -> Faults.of_env () in
  {
    servings = Hashtbl.create 8;
    log = (if audit then Some (Audit_log.create ()) else None);
    obs = Dp_obs.Metrics.create ~enabled:obs ();
    trace = Dp_obs.Span.create ~enabled:obs ();
    rng = Dp_rng.Prng.create seed;
    (* Tree-node noise for continual streams draws from its own
       dedicated stream: append traffic must not shift the noise
       positions of one-shot queries (and vice versa), and recovery
       re-keys both independently. The xor constant ("STRM") just keys
       a distinct stream off the same seed. *)
    stream_rng = Dp_rng.Prng.create (seed lxor 0x5354524d);
    (* Backoff jitter draws from a dedicated stream, never the noise
       stream: retry timing is externally observable, so sharing the
       noise stream would leak its position (and shift noise values,
       breaking seed-determinism). Seeded from [seed] so retry schedules
       replay deterministically; the xor constant ("RETR") just keys a
       distinct stream. Journal re-keying deliberately leaves this
       stream alone — it carries no privacy. *)
    retry_rng = Dp_rng.Prng.create (seed lxor 0x52455452);
    seed;
    faults;
    journal = None;
    journal_failed = false;
    lease_gate = None;
  }

let set_lease_gate t gate = t.lease_gate <- gate

let metrics t = t.obs
let trace t = t.trace

let faults t = t.faults
let journal_path t = Option.map Journal.path t.journal

let close t =
  Option.iter Journal.close t.journal;
  t.journal <- None

(* Synthetic datasets are regenerated on recovery, so their generator
   must depend only on stable registration-time facts — never on how
   much of the engine's noise stream other queries have consumed. *)
let dataset_seed t name =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun ch -> h := (!h lxor Char.code ch) * 0x01000193 land 0x3FFFFFFF)
    name;
  (t.seed * 31 + !h) land 0x3FFFFFFF

type error =
  | Unknown_dataset of string
  | Bad_query of string
  | Budget_exceeded of Ledger.rejection
  | Degraded of {
      dataset : string;
      remaining : Privacy.budget;
      low_water : float;
    }
  | Unconverged of {
      dataset : string;
      handle : string;
      worst_rhat : float;
      min_ess : float;
      charged : Privacy.budget;
    }
  | Unknown_model of string
  | Unknown_stream of string
  | Lease_lost of { dataset : string; token : int }
  | Transient of string
  | Fatal of string

let pp_error fmt = function
  | Unknown_dataset name -> Format.fprintf fmt "unknown dataset %S" name
  | Bad_query msg -> Format.fprintf fmt "bad query: %s" msg
  | Budget_exceeded r ->
      Format.fprintf fmt "budget exceeded%s: requested %a, remaining %a"
        (match r.Ledger.analyst with
        | Some a -> Printf.sprintf " for analyst %S" a
        | None -> "")
        Privacy.pp_budget r.Ledger.requested Privacy.pp_budget
        r.Ledger.remaining
  | Degraded { dataset; remaining; low_water } ->
      Format.fprintf fmt
        "dataset %S degraded: remaining %a below low-water %g (cache hits only)"
        dataset Privacy.pp_budget remaining low_water
  | Unconverged { dataset; handle; worst_rhat; min_ess; charged } ->
      Format.fprintf fmt
        "training on %S did not converge (model %s withheld): worst split-R̂ \
         %g, min ESS %g; %a remains charged"
        dataset handle worst_rhat min_ess Privacy.pp_budget charged
  | Unknown_model handle -> Format.fprintf fmt "unknown model %S" handle
  | Unknown_stream handle -> Format.fprintf fmt "unknown stream %S" handle
  | Lease_lost { dataset; token } ->
      Format.fprintf fmt
        "lease on %S lost (fencing token %d superseded or expired): this \
         worker refuses fresh charges until restarted"
        dataset token
  | Transient msg -> Format.fprintf fmt "transient failure: %s" msg
  | Fatal msg -> Format.fprintf fmt "fatal failure: %s" msg

(* Journaling, one batch per call. An [Error] from here means none of
   the records is durable: for budget charges the caller must withhold
   the answer (the in-memory ledger stays charged, so the accounting can
   only over-count). *)
let journal_append t records =
  match t.journal with
  | None -> Ok ()
  | Some j -> (
      match Journal.append j records with
      | Ok () -> Ok ()
      | Error (`Transient msg) -> Error (Transient msg)
      | Error (`Fatal msg) ->
          t.journal_failed <- true;
          Error (Fatal msg))

(* Close a timed phase: one clock read gives the duration that both the
   phase's latency histogram and its span record. *)
let end_phase t scope h latency t0 =
  let dur_ns = Dp_obs.Clock.elapsed_ns t0 in
  Dp_obs.Span.end_at t.trace h ~dur_ns;
  Dp_obs.Metrics.observe scope latency dur_ns

(* Every [Registry] constructor admits its dataset, so this ledger
   cannot raise. *)
let serve_dataset t (ds : Registry.dataset) =
  Hashtbl.replace t.servings ds.name
    {
      dataset = ds;
      ledger =
        Ledger.create ~total:ds.policy.total ~backend:ds.policy.backend
          ?analyst_epsilon:ds.policy.analyst_epsilon ();
      cache = Cache.create ();
      models = Model_store.create ();
      streams = Stream_store.create ();
      scope = Dp_obs.Metrics.dataset t.obs ds.name;
      answered = 0;
      rejected = 0;
      withheld = 0;
    }

let register t (ds : Registry.dataset) =
  if t.journal <> None then
    Error
      (Printf.sprintf
         "dataset %S: raw datasets cannot be made durable (the journal \
          records a regeneration seed, not column data); use \
          register_synthetic"
         ds.name)
  else if Hashtbl.mem t.servings ds.name then
    Error (Printf.sprintf "dataset %S already registered" ds.name)
  else Ok (serve_dataset t ds)

let register_synthetic t ~name ~rows ~policy =
  if Hashtbl.mem t.servings name then
    Error (Printf.sprintf "dataset %S already registered" name)
  else
    (* a [BASE~flipN] neighbour must share BASE's generator stream —
       seeding from the full name would give unrelated data, not a
       pair differing in one record *)
    let seed =
      dataset_seed t
        (match Registry.neighbor_flip name with
        | Some (base, _) -> base
        | None -> name)
    in
    match Registry.synthetic ~name ~rows ~policy (Dp_rng.Prng.create seed) with
    | exception Invalid_argument msg -> Error msg
    | ds -> (
        match
          journal_append t [ Journal.Register { name; rows; seed; policy } ]
        with
        | Error e -> Error (Format.asprintf "%a" pp_error e)
        | Ok () ->
            serve_dataset t ds;
            Ok ds)

let datasets t =
  List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.servings [])

let find t name =
  Option.map (fun sv -> sv.dataset) (Hashtbl.find_opt t.servings name)

type response = {
  answer : Planner.answer;
  mechanism : Planner.mechanism;
  requested : Privacy.budget;
  charged : Privacy.budget;
  cache_hit : bool;
  seq : int;
}

let zero = { Privacy.epsilon = 0.; delta = 0. }

let log_decision t ?analyst ?mechanism ~dataset ~query ~requested ~charged
    ~cache_hit ~verdict () =
  match t.log with
  | None -> -1
  | Some log ->
      (Audit_log.append log ?analyst ?mechanism ~dataset ~query ~requested
         ~charged ~cache_hit ~verdict ())
        .Audit_log.seq

let degraded_for t (sv : serving) =
  t.journal_failed
  ||
  let lw = sv.dataset.Registry.policy.low_water in
  lw > 0. && (Ledger.remaining sv.ledger).Privacy.epsilon < lw

(* The pool's ε-lease gate, consulted immediately before every ledger
   spend (one-shot queries, training, stream opens — appends are
   pre-paid). [None] is the single-process fast path: no gate, no
   behavior change. A pool worker's local ledger mirrors the full
   global budget (so composed accounting replays identically on
   merge), which means budget safety across workers rests entirely on
   this gate: the coordinator never leases, in aggregate, more than
   the global ε. *)
let lease_check t ~dataset (face : Privacy.budget) =
  match t.lease_gate with
  | None -> Ok ()
  | Some gate -> (
      match gate ~dataset ~face with
      | Lease_granted -> Ok ()
      | Lease_superseded { token } -> Error (Lease_lost { dataset; token })
      | Lease_denied { requested; remaining } ->
          Error
            (Budget_exceeded { Ledger.requested; remaining; analyst = None })
      | Lease_unavailable msg -> Error (Transient msg))

let lease_reject_reason = function
  | Lease_lost _ -> "lease-lost"
  | Budget_exceeded _ -> "budget-exceeded"
  | _ -> "lease-unavailable"

let journal_unavailable =
  Fatal "journal unavailable: refusing fresh releases, serving cache hits only"

(* Every refusal before a charge is one rejected decision, logged with
   the mechanism and face once the request got far enough to know
   them. *)
let refuse t sv ?analyst ?mechanism ?(requested = zero) ~dataset ~query
    reason err =
  sv.rejected <- sv.rejected + 1;
  ignore
    (log_decision t ?analyst ?mechanism ~dataset ~query ~requested
       ~charged:zero ~cache_hit:false ~verdict:(Audit_log.Rejected reason) ());
  Error err

(* The gate in front of every fresh release, before it is planned: a
   poisoned journal refuses outright, a dataset below its low-water
   mark softly. *)
let admit t sv ~analyst ~dataset ~query =
  if t.journal_failed then Error journal_unavailable
  else if degraded_for t sv then
    refuse t sv ?analyst ~dataset ~query "degraded"
      (Degraded
         {
           dataset;
           remaining = Ledger.remaining sv.ledger;
           low_water = sv.dataset.Registry.policy.low_water;
         })
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Commit: how a durable batch becomes visible. The live path commits
   a batch once it is fsynced; recovery commits the journal's records
   in order. Both go through [apply] and [settle], so a recovered
   engine holds exactly what the live one did. *)

(* One record's effect on serving state. Raises [Invalid_argument] on
   a record the state cannot take, which recovery turns into a refused
   journal. *)
let apply sv = function
  | Journal.Cache_insert k ->
      Cache.store sv.cache k.Journal.key
        {
          Cache.answer = k.Journal.answer;
          mechanism = k.Journal.mechanism;
          requested = k.Journal.requested;
        }
  | Journal.Train m -> Model_store.add sv.models m
  | Journal.Stream_open o -> (
      let params =
        {
          Stream.epsilon = o.Journal.epsilon;
          horizon = o.Journal.horizon;
          window = o.Journal.window;
        }
      in
      match Stream.spec params with
      | Error msg -> invalid_arg msg
      | Ok spec ->
          Stream_store.add sv.streams
            {
              Stream_store.handle = o.Journal.handle;
              dataset = o.Journal.dataset;
              spec;
              counter =
                Counter.create ~epsilon:o.Journal.epsilon
                  ~horizon:o.Journal.horizon;
              reads = 0;
            })
  | Journal.Stream_append a -> (
      (* the journaled noisy node values are committed verbatim, with
         zero PRNG draws, so a replayed tree releases bit-identical
         counts *)
      match Stream_store.find sv.streams a.Journal.handle with
      | None ->
          invalid_arg
            (Printf.sprintf "append to unknown stream %S" a.Journal.handle)
      | Some s ->
          Counter.commit s.Stream_store.counter ~bit:a.Journal.bit
            a.Journal.nodes;
          Stream_store.record_append sv.streams)
  | Journal.Register _ | Journal.Charge _ | Journal.Withheld _ -> ()

(* A charge's outcome: the serving counters and its audit verdict,
   withheld when its batch carries a [Withheld] marker. Returns the
   audit seq. *)
let settle t sv (c : Journal.charge_record) withheld =
  let verdict =
    match withheld with
    | None ->
        sv.answered <- sv.answered + 1;
        Audit_log.Answered
    | Some reason ->
        sv.rejected <- sv.rejected + 1;
        sv.withheld <- sv.withheld + 1;
        Audit_log.Charged_unreleased reason
  in
  log_decision t ?analyst:c.Journal.analyst ~mechanism:c.Journal.mechanism
    ~dataset:c.Journal.dataset ~query:c.Journal.query
    ~requested:c.Journal.face ~charged:c.Journal.marginal ~cache_hit:false
    ~verdict ()

(* Every batch puts a [Withheld] marker right after its charge, so
   pairing by adjacency gives recovery the live outcome. An unpaired
   marker carries nothing and is dropped. *)
let rec pair_outcomes = function
  | (Journal.Charge c as r) :: Journal.Withheld { dataset; reason } :: rest
    when dataset = c.Journal.dataset ->
      (r, Some reason) :: pair_outcomes rest
  | r :: rest -> (r, None) :: pair_outcomes rest
  | [] -> []

(* Commit one durable batch of [sv]; returns its charge's audit seq. *)
let commit t sv batch =
  List.fold_left
    (fun seq (r, withheld) ->
      match r with
      | Journal.Charge c -> settle t sv c withheld
      | r ->
          apply sv r;
          seq)
    (-1) (pair_outcomes batch)

(* ------------------------------------------------------------------ *)
(* The release path *)

(* What a fresh release supplies: its normal form (the audit and
   journal label), its mechanism and charge, its draw, and the records
   the draw's result journals beside the charge. [run] is the draw
   itself — a planner's closure, the training chains — never a wrapper
   built around it: [release] is the one place that applies it, after
   the spend, and that is where flow F2 checks charge-before-release
   for every face. *)
type 'a face = {
  query : string;
  mechanism : string;
  charge : Ledger.charge;
  run : Dp_rng.Prng.t -> 'a;
  records : 'a -> Journal.record list;
}

(* Lease, spend, draw, one journal batch, crash point, commit — in that
   order for every face. The charge and the draw's records become
   durable together before anything the draw made is visible, so a
   crash at any point can only over-count spent ε. A draw or batch that
   fails withholds: the ledger keeps the charge, the journal (best
   effort) the charge with its outcome marker, and nothing is released.
   Returns the draw, the marginal charge and the audit seq. *)
let release t sv ?analyst ~dataset (f : _ face) =
  let face = f.charge.Ledger.budget in
  let refuse_charge reason err =
    refuse t sv ?analyst ~mechanism:f.mechanism ~requested:face ~dataset
      ~query:f.query reason err
  in
  match lease_check t ~dataset face with
  | Error e -> refuse_charge (lease_reject_reason e) e
  | Ok () -> (
      let before = Ledger.spent sv.ledger in
      let c0 = Dp_obs.Clock.now_ns () in
      let h = Dp_obs.Span.begin_at t.trace ~dataset Dp_obs.Name.Sp_charge c0 in
      let spent = Ledger.spend sv.ledger ?analyst f.charge in
      end_phase t sv.scope h Dp_obs.Name.Charge_ns c0;
      match spent with
      | Error rejection ->
          refuse_charge "budget-exceeded" (Budget_exceeded rejection)
      | Ok () -> (
          let after = Ledger.spent sv.ledger in
          let c =
            {
              Journal.dataset;
              analyst;
              query = f.query;
              mechanism = f.mechanism;
              face;
              marginal =
                {
                  Privacy.epsilon =
                    Float.max 0.
                      (after.Privacy.epsilon -. before.Privacy.epsilon);
                  delta =
                    Float.max 0. (after.Privacy.delta -. before.Privacy.delta);
                };
              rho = Ledger.rho_of_charge f.charge;
            }
          in
          let n0 = Dp_obs.Clock.now_ns () in
          let h =
            Dp_obs.Span.begin_at t.trace ~dataset Dp_obs.Name.Sp_noise n0
          in
          let drawn =
            Faults.with_retries ~jitter:t.retry_rng (fun ~attempt ->
                Faults.check t.faults ~attempt Faults.Rng;
                f.run t.rng)
          in
          end_phase t sv.scope h Dp_obs.Name.Noise_ns n0;
          let withhold reason err =
            let batch =
              [ Journal.Charge c; Journal.Withheld { dataset; reason } ]
            in
            ignore (journal_append t batch);
            ignore (commit t sv batch);
            Error err
          in
          match drawn with
          | Error msg -> withhold "rng" (Transient ("rng exhausted: " ^ msg))
          | Ok v -> (
              let batch = Journal.Charge c :: f.records v in
              match journal_append t batch with
              | Error e -> withhold "journal" e
              | Ok () ->
                  Faults.check t.faults Faults.Crash_after_charge;
                  let seq = commit t sv batch in
                  Ok (v, c.Journal.marginal, seq))))

let submit_serving t sv ?analyst ?epsilon ~dataset query =
  let ds = sv.dataset in
  let eps =
    match epsilon with Some e -> e | None -> ds.policy.default_epsilon
  in
  let norm = Query.normalize query in
  (* Cache before planning: a hit replays the stored release without
     touching the raw data (planning reads a column or its synopsis,
     whose first use sorts the column), and without consulting the
     ledger — post-processing is free even after the budget is
     exhausted, and still served in degraded mode. *)
  let key = Printf.sprintf "%s|eps=%.12g|%s" ds.name eps norm in
  let cached =
    if ds.policy.cache then begin
      let c0 = Dp_obs.Clock.now_ns () in
      let hit = Cache.lookup sv.cache key in
      Dp_obs.Metrics.observe sv.scope Dp_obs.Name.Cache_lookup_ns
        (Dp_obs.Clock.elapsed_ns c0);
      hit
    end
    else None
  in
  match cached with
  | Some entry ->
      let seq =
        log_decision t ?analyst
          ~mechanism:(Planner.mechanism_name entry.Cache.mechanism)
          ~dataset ~query:norm ~requested:entry.Cache.requested ~charged:zero
          ~cache_hit:true ~verdict:Audit_log.Cached ()
      in
      Ok
        {
          answer = entry.Cache.answer;
          mechanism = entry.Cache.mechanism;
          requested = entry.Cache.requested;
          charged = zero;
          cache_hit = true;
          seq;
        }
  | None -> (
      match admit t sv ~analyst ~dataset ~query:norm with
      | Error e -> Error e
      | Ok () -> (
          let p0 = Dp_obs.Clock.now_ns () in
          let h =
            Dp_obs.Span.begin_at t.trace ~dataset Dp_obs.Name.Sp_plan p0
          in
          let planned = Planner.plan ds ~epsilon:eps query in
          end_phase t sv.scope h Dp_obs.Name.Plan_ns p0;
          match planned with
          | Error msg ->
              refuse t sv ?analyst ~dataset ~query:norm msg (Bad_query msg)
          | Ok plan -> (
              let sp = plan.Planner.spec in
              let mechanism = sp.Planner.mechanism in
              let requested = sp.Planner.charge.Ledger.budget in
              let records answer =
                if ds.policy.cache then
                  [
                    Journal.Cache_insert
                      { Journal.dataset; key; answer; mechanism; requested };
                  ]
                else []
              in
              match
                release t sv ?analyst ~dataset
                  {
                    query = norm;
                    mechanism = Planner.mechanism_name mechanism;
                    charge = sp.Planner.charge;
                    run = plan.Planner.run;
                    records;
                  }
              with
              | Error e -> Error e
              | Ok (answer, charged, seq) ->
                  Ok
                    {
                      answer;
                      mechanism;
                      requested;
                      charged;
                      cache_hit = false;
                      seq;
                    })))

(* The span/latency wrapper lives outside [submit_serving] so that every
   exit path — cache hit, rejection, withheld answer, even an injected
   crash — ends the submit span and records end-to-end latency. *)
let submit t ?analyst ?epsilon ~dataset query =
  match Hashtbl.find_opt t.servings dataset with
  | None -> Error (Unknown_dataset dataset)
  | Some sv -> (
      let t0 = Dp_obs.Clock.now_ns () in
      let h = Dp_obs.Span.begin_at t.trace ~dataset Dp_obs.Name.Sp_submit t0 in
      match submit_serving t sv ?analyst ?epsilon ~dataset query with
      | exception e ->
          end_phase t sv.scope h Dp_obs.Name.Submit_ns t0;
          raise e
      | result ->
          (match result with
          | Ok r ->
              Dp_obs.Span.tag t.trace h Dp_obs.Name.T_eps_face
                r.requested.Privacy.epsilon;
              Dp_obs.Span.tag t.trace h Dp_obs.Name.T_eps_charged
                r.charged.Privacy.epsilon;
              Dp_obs.Span.tag t.trace h Dp_obs.Name.T_cache_hit
                (if r.cache_hit then 1. else 0.)
          | Error _ -> ());
          end_phase t sv.scope h Dp_obs.Name.Submit_ns t0;
          result)

let submit_text t ?analyst ?epsilon ~dataset text =
  match Query.parse text with
  | Error msg -> Error (Bad_query msg)
  | Ok q -> submit t ?analyst ?epsilon ~dataset q

type report = {
  dataset : string;
  rows : int;
  queries : int;
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
}

let report t ~dataset =
  match Hashtbl.find_opt t.servings dataset with
  | None -> Error (Unknown_dataset dataset)
  | Some sv ->
      let spent = Ledger.spent sv.ledger in
      let hits = Cache.hits sv.cache in
      Ok
        {
          dataset;
          rows = sv.dataset.Registry.rows;
          queries = sv.answered + sv.rejected + hits;
          answered = sv.answered;
          cache_hits = hits;
          rejected = sv.rejected;
          hit_rate = Cache.hit_rate sv.cache;
          backend = Ledger.backend sv.ledger;
          total = Ledger.total sv.ledger;
          spent;
          remaining = Ledger.remaining sv.ledger;
          leakage =
            Meter.reading ~rows:sv.dataset.Registry.rows
              ~universe:sv.dataset.Registry.policy.universe spent;
          degraded = degraded_for t sv;
        }

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>dataset %s (%d rows, %a composition)%s@,\
     queries: %d (%d answered, %d cached, %d rejected), cache hit-rate %.3f@,\
     budget: total %a, spent %a, remaining %a@,\
     leakage: %a@]"
    r.dataset r.rows Ledger.pp_backend r.backend
    (if r.degraded then " [degraded]" else "")
    r.queries r.answered r.cache_hits r.rejected r.hit_rate Privacy.pp_budget
    r.total Privacy.pp_budget r.spent Privacy.pp_budget r.remaining Meter.pp
    r.leakage

let records t ~dataset =
  match t.log with
  | None -> []
  | Some log -> Audit_log.for_dataset log dataset

let replay t ~dataset =
  match Hashtbl.find_opt t.servings dataset with
  | None -> Error (Unknown_dataset dataset)
  | Some sv -> (
      match t.log with
      | None -> Ok (Dp_audit.Replay.Consistent zero)
      | Some log ->
          Ok
            (Dp_audit.Replay.replay ~total:sv.dataset.Registry.policy.total
               (Audit_log.to_events log dataset)))

let analyst_spent t ~dataset ~analyst =
  match Hashtbl.find_opt t.servings dataset with
  | None -> zero
  | Some sv -> Ledger.analyst_spent sv.ledger analyst

(* ------------------------------------------------------------------ *)
(* Served learning: train / predict / model *)

type trained = {
  model : Model_store.model;
  charged : Privacy.budget;
  seq : int;
}

let train_serving t (sv : serving) ?analyst ~dataset (params : Train.params) =
  let ds = sv.dataset in
  let norm = Train.normalize params in
  match admit t sv ~analyst ~dataset ~query:norm with
  | Error e -> Error e
  | Ok () -> (
      let cols =
        Array.to_list
          (Array.map (fun (c : Registry.column) -> c.Registry.name) ds.columns)
      in
      match Train.spec ~rows:ds.Registry.rows ~cols params with
      | Error msg ->
          refuse t sv ?analyst ~dataset ~query:norm msg (Bad_query msg)
      | Ok spec -> (
          let columns =
            Array.map
              (fun (c : Registry.column) ->
                ( c.Registry.name,
                  c.Registry.lo,
                  c.Registry.hi,
                  c.Registry.values ))
              ds.columns
          in
          match Train.design ~columns ~target:params.Train.target with
          | Error msg ->
              refuse t sv ?analyst ~dataset ~query:norm msg (Bad_query msg)
          | Ok design -> (
              let mechanism = Train.backend_name params.Train.backend in
              let handle =
                Printf.sprintf "%s/m%d" dataset (Model_store.size sv.models + 1)
              in
              let gate_hook check =
                let g0 = Dp_obs.Clock.now_ns () in
                let h =
                  Dp_obs.Span.begin_at t.trace ~dataset Dp_obs.Name.Sp_gate g0
                in
                let report = check () in
                end_phase t sv.scope h Dp_obs.Name.Gate_ns g0;
                report
              in
              let model_frame ~theta ~acceptance (report : Gates.report) =
                Journal.Train
                  {
                    Model_store.handle;
                    dataset;
                    backend = mechanism;
                    epsilon = params.Train.epsilon;
                    chains = params.Train.chains;
                    steps = params.Train.steps;
                    beta = spec.Train.beta;
                    face = spec.Train.face;
                    target = params.Train.target;
                    features = Train.public_facts design;
                    theta;
                    rhat =
                      Array.map
                        (fun (c : Gates.coord) -> c.Gates.rhat)
                        report.Gates.coords;
                    ess =
                      Array.map
                        (fun (c : Gates.coord) -> c.Gates.ess)
                        report.Gates.coords;
                    acceptance;
                  }
              in
              (* the handle exists iff its frame is durable; an
                 unconverged model keeps its slot, θ-less, and its
                 charge stands — never a refund, never a biased sample *)
              let records = function
                | Train.Released { theta; report; acceptance } ->
                    [ model_frame ~theta:(Some theta) ~acceptance report ]
                | Train.Withheld { report; acceptance } ->
                    [
                      Journal.Withheld { dataset; reason = "unconverged" };
                      model_frame ~theta:None ~acceptance report;
                    ]
              in
              match
                release t sv ?analyst ~dataset
                  {
                    query = norm;
                    mechanism;
                    charge = { Ledger.budget = spec.Train.face; rdp = None };
                    run = Train.run ~gate_hook spec design;
                    records;
                  }
              with
              | Error e -> Error e
              | Ok (Train.Released _, charged, seq) ->
                  Ok
                    {
                      model = Option.get (Model_store.find sv.models handle);
                      charged;
                      seq;
                    }
              | Ok (Train.Withheld { report; _ }, charged, _) ->
                  Error
                    (Unconverged
                       {
                         dataset;
                         handle;
                         worst_rhat = Gates.worst_rhat report;
                         min_ess = Gates.min_ess report;
                         charged;
                       }))))

let train t ?analyst ~dataset params =
  match Hashtbl.find_opt t.servings dataset with
  | None -> Error (Unknown_dataset dataset)
  | Some sv ->
      let t0 = Dp_obs.Clock.now_ns () in
      let h = Dp_obs.Span.begin_at t.trace ~dataset Dp_obs.Name.Sp_submit t0 in
      Fun.protect
        ~finally:(fun () -> end_phase t sv.scope h Dp_obs.Name.Train_ns t0)
        (fun () ->
          let result = train_serving t sv ?analyst ~dataset params in
          (match result with
           | Ok r ->
               Dp_obs.Span.tag t.trace h Dp_obs.Name.T_eps_face
                 r.model.Model_store.face.Privacy.epsilon;
               Dp_obs.Span.tag t.trace h Dp_obs.Name.T_eps_charged
                 r.charged.Privacy.epsilon;
               Dp_obs.Span.tag t.trace h Dp_obs.Name.T_chains
                 (float_of_int r.model.Model_store.chains)
           | Error _ -> ());
          result)

let serving_of_handle t handle =
  match String.index_opt handle '/' with
  | None -> None
  | Some i -> Hashtbl.find_opt t.servings (String.sub handle 0 i)

let find_model t handle =
  match serving_of_handle t handle with
  | None -> None
  | Some sv -> Model_store.find sv.models handle

(* Prediction is post-processing of the released θ: no data access, no
   ledger charge, served even in degraded mode and after exhaustion. *)
let predict t handle x =
  match serving_of_handle t handle with
  | None -> Error (Unknown_model handle)
  | Some sv -> (
      if Model_store.find sv.models handle = None then
        Error (Unknown_model handle)
      else
        let p0 = Dp_obs.Clock.now_ns () in
        match Model_store.predict sv.models handle x with
        | Ok v ->
            Dp_obs.Metrics.observe sv.scope Dp_obs.Name.Predict_ns
              (Dp_obs.Clock.elapsed_ns p0);
            Ok v
        | Error msg -> Error (Bad_query msg))

let models t ~dataset =
  match Hashtbl.find_opt t.servings dataset with
  | None -> Error (Unknown_dataset dataset)
  | Some sv -> Ok sv.models

(* ------------------------------------------------------------------ *)
(* Continual observation: stream open / append / read / window.

   The lifecycle inverts the one-shot query shape: the whole privacy
   cost (ε per level × ⌈log₂ N⌉ levels, Stream.spec) is charged once
   when the stream opens; from then on appends mutate long-lived tree
   state and reads are free post-processing of already-noised nodes.
   Durability ordering per append: journal the closing nodes' noisy
   values first, then commit them to the in-memory tree — no read can
   ever release noise that a kill -9 would lose. *)

type stream_opened = {
  stream : Stream_store.stream;
  charged : Privacy.budget;
  seq : int;
}

type appended = { handle : string; t_now : int; nodes_closed : int }

type stream_count = {
  handle : string;
  t_now : int;
  count : float;
  window : int option;  (* None: whole-prefix read *)
  face : Privacy.budget;
  leak : Meter.stream_reading;
}

let stream_open t ?analyst ~dataset (params : Stream.params) =
  match Hashtbl.find_opt t.servings dataset with
  | None -> Error (Unknown_dataset dataset)
  | Some sv -> (
      let norm = Stream.normalize params in
      match admit t sv ~analyst ~dataset ~query:norm with
      | Error e -> Error e
      | Ok () -> (
          match Stream.spec params with
          | Error msg ->
              refuse t sv ?analyst ~dataset ~query:norm msg (Bad_query msg)
          | Ok spec -> (
              let handle =
                Printf.sprintf "%s/s%d" dataset
                  (Stream_store.size sv.streams + 1)
              in
              (* the open draws nothing: it prepays the whole lifetime,
                 and the handle exists iff its frame is durable, like
                 model handles *)
              let opened =
                Journal.Stream_open
                  {
                    Journal.dataset;
                    handle;
                    epsilon = params.Stream.epsilon;
                    horizon = params.Stream.horizon;
                    window = params.Stream.window;
                  }
              in
              match
                release t sv ?analyst ~dataset
                  {
                    query = norm;
                    mechanism = Stream.mechanism_name;
                    charge = { Ledger.budget = spec.Stream.face; rdp = None };
                    run = ignore;
                    records = (fun () -> [ opened ]);
                  }
              with
              | Error e -> Error e
              | Ok ((), charged, seq) ->
                  Ok
                    {
                      stream = Option.get (Stream_store.find sv.streams handle);
                      charged;
                      seq;
                    })))

let find_stream t handle =
  match serving_of_handle t handle with
  | None -> None
  | Some sv -> Stream_store.find sv.streams handle

let streams t ~dataset =
  match Hashtbl.find_opt t.servings dataset with
  | None -> Error (Unknown_dataset dataset)
  | Some sv -> Ok sv.streams

(* Appends are pre-paid (the open charged the whole lifetime), so they
   charge nothing and skip [release]; like cache hits they are served
   even in low-water degraded mode. They do need durability: without a
   working journal the closing nodes' noise could be lost after a later
   read released it, so a failed journal refuses appends outright. *)
let append t handle bit =
  match serving_of_handle t handle with
  | None -> Error (Unknown_stream handle)
  | Some sv -> (
      match Stream_store.find sv.streams handle with
      | None -> Error (Unknown_stream handle)
      | Some s ->
          let a0 = Dp_obs.Clock.now_ns () in
          if t.journal_failed then Error journal_unavailable
          else if bit <> 0 && bit <> 1 then
            Error (Bad_query "append expects 0 or 1")
          else if Counter.t_now s.Stream_store.counter
                  >= s.Stream_store.spec.Stream.params.Stream.horizon
          then
            Error
              (Bad_query
                 (Printf.sprintf "stream %s is past its horizon N=%d" handle
                    s.Stream_store.spec.Stream.params.Stream.horizon))
          else
            let c = s.Stream_store.counter in
            let scale = Counter.noise_scale c in
            let nodes =
              Dp_obs.Span.with_ t.trace ~dataset:s.Stream_store.dataset
                Dp_obs.Name.Sp_noise (fun () ->
                  Counter.prepare c ~bit ~noise:(fun () ->
                      Dp_rng.Sampler.laplace ~mean:0. ~scale t.stream_rng))
            in
            let record =
              Journal.Stream_append
                { Journal.dataset = s.Stream_store.dataset; handle; bit; nodes }
            in
            (* noise-before-release, durably: the frame carrying the
               noisy node values is fsynced before the tree mutates *)
            match journal_append t [ record ] with
            | Error e -> Error e
            | Ok () ->
                Faults.check t.faults Faults.Crash_after_charge;
                apply sv record;
                Dp_obs.Metrics.observe sv.scope Dp_obs.Name.Append_ns
                  (Dp_obs.Clock.elapsed_ns a0);
                Ok
                  {
                    handle;
                    t_now = Counter.t_now c;
                    nodes_closed = Array.length nodes;
                  })

(* Reads are deterministic post-processing of durable node values: no
   data access, no ledger charge, no fresh noise — served even in
   degraded mode, after budget exhaustion, and with the journal down. *)
let stream_count_of (sv : serving) (s : Stream_store.stream) ~window count =
  s.Stream_store.reads <- s.Stream_store.reads + 1;
  let face = s.Stream_store.spec.Stream.face in
  let t_now = Counter.t_now s.Stream_store.counter in
  {
    handle = s.Stream_store.handle;
    t_now;
    count;
    window;
    face;
    leak =
      Meter.stream_reading ~rows:sv.dataset.Registry.rows
        ~universe:sv.dataset.Registry.policy.universe ~steps:t_now face;
  }

let stream_read t handle =
  match serving_of_handle t handle with
  | None -> Error (Unknown_stream handle)
  | Some sv -> (
      match Stream_store.find sv.streams handle with
      | None -> Error (Unknown_stream handle)
      | Some s ->
          let r0 = Dp_obs.Clock.now_ns () in
          let count = Counter.read s.Stream_store.counter in
          let r = stream_count_of sv s ~window:None count in
          Dp_obs.Metrics.observe sv.scope Dp_obs.Name.Stream_read_ns
            (Dp_obs.Clock.elapsed_ns r0);
          Ok r)

let stream_window t handle ?w () =
  match serving_of_handle t handle with
  | None -> Error (Unknown_stream handle)
  | Some sv -> (
      match Stream_store.find sv.streams handle with
      | None -> Error (Unknown_stream handle)
      | Some s -> (
          let declared = s.Stream_store.spec.Stream.params.Stream.window in
          match (w, declared) with
          | None, 0 ->
              Error
                (Bad_query
                   "stream declared no default window; pass an explicit one")
          | _ -> (
              let w = match w with Some w -> w | None -> declared in
              let r0 = Dp_obs.Clock.now_ns () in
              match Counter.window s.Stream_store.counter ~w with
              | Error msg -> Error (Bad_query msg)
              | Ok count ->
                  let r = stream_count_of sv s ~window:(Some w) count in
                  Dp_obs.Metrics.observe sv.scope Dp_obs.Name.Stream_read_ns
                    (Dp_obs.Clock.elapsed_ns r0);
                  Ok r)))

(* ------------------------------------------------------------------ *)
(* Recovery *)

type recovery = {
  journal_path : string;
  records : int;
  torn_bytes : int;
  datasets : int;
  charges : int;
  cache_entries : int;
  models_recovered : int;
  streams_recovered : int;
  verified : bool;
}

exception Recovery_failed of string

(* Recovery commits the journal's records through the live path's
   [settle] and [apply]; what is left here is registration and
   re-spending each charge on its ledger. *)
let apply_record t (record, withheld) =
  let serving dataset =
    match Hashtbl.find_opt t.servings dataset with
    | Some sv -> sv
    | None ->
        raise
          (Recovery_failed
             (Printf.sprintf "journal record on unknown dataset %S" dataset))
  in
  match record with
  | Journal.Register { name; rows; seed; policy } ->
      if Hashtbl.mem t.servings name then
        raise
          (Recovery_failed
             (Printf.sprintf "journal registers %S but it already exists" name));
      serve_dataset t
        (try Registry.synthetic ~name ~rows ~policy (Dp_rng.Prng.create seed)
         with Invalid_argument msg -> raise (Recovery_failed msg))
  | Journal.Charge c ->
      let sv = serving c.Journal.dataset in
      (try
         Ledger.replay_charge sv.ledger ?analyst:c.Journal.analyst
           ~face:c.Journal.face ~rho:c.Journal.rho ()
       with
      | Invalid_argument msg -> raise (Recovery_failed msg)
      | Privacy.Budget_exceeded _ ->
          raise
            (Recovery_failed
               (Printf.sprintf "journaled charge overdraws analyst budget on %S"
                  c.Journal.dataset)));
      ignore (settle t sv c withheld)
  | Journal.Withheld _ -> ()
  | ( Journal.Cache_insert { dataset; _ }
    | Journal.Train { dataset; _ }
    | Journal.Stream_open { dataset; _ }
    | Journal.Stream_append { dataset; _ } ) as r -> (
      try apply (serving dataset) r
      with Invalid_argument msg -> raise (Recovery_failed msg))

(* The rebuilt audit trace must re-verify: replaying the journaled
   marginals through the plain basic accountant (Dp_audit.Replay) has
   to land on the rebuilt ledger's composed spend, exactly as for a
   live engine. With auditing off there is no rebuilt log, so the
   events come straight from the journal's charge records instead. *)
let verify_recovered t journal_records =
  let journal_events name =
    List.filter_map
      (function
        | Journal.Charge c when c.Journal.dataset = name ->
            Some
              {
                Dp_audit.Replay.label = c.Journal.query;
                budget = c.Journal.marginal;
              }
        | _ -> None)
      journal_records
  in
  Hashtbl.fold
    (fun name (sv : serving) acc ->
      acc
      &&
      let outcome =
        match t.log with
        | Some log ->
            Dp_audit.Replay.replay ~total:sv.dataset.Registry.policy.total
              (Audit_log.to_events log name)
        | None ->
            Dp_audit.Replay.replay ~total:sv.dataset.Registry.policy.total
              (journal_events name)
      in
      match outcome with
      | Dp_audit.Replay.Overdraft _ -> false
      | Dp_audit.Replay.Consistent replayed ->
          let spent = Ledger.spent sv.ledger in
          Float.abs (replayed.Privacy.epsilon -. spent.Privacy.epsilon)
          <= 1e-9 *. Float.max 1. spent.Privacy.epsilon)
    t.servings true

let recover t records =
  match List.iter (apply_record t) (pair_outcomes records) with
  | exception Recovery_failed msg -> Error ("recovery failed: " ^ msg)
  | () ->
      if verify_recovered t records then Ok ()
      else Error "recovered state failed audit replay verification"

let open_journal_inner t path =
  match
    Journal.open_ ~faults:t.faults
      ~obs:(Dp_obs.Metrics.global t.obs)
      ~jitter:t.retry_rng path
  with
  | Error msg -> Error msg
  | Ok (j, records, stats) -> (
      let n_datasets_before = Hashtbl.length t.servings in
      match recover t records with
      | Error msg ->
          Journal.close j;
          Error (Printf.sprintf "journal %s: %s" path msg)
      | Ok () ->
          (* replay consumed no draws: re-key both noise streams so
             post-recovery releases (answers and tree nodes alike) can
             never repeat pre-crash ones *)
          t.rng <- Dp_rng.Prng.create (entropy_seed ());
          t.stream_rng <- Dp_rng.Prng.create (entropy_seed ());
          t.journal <- Some j;
          (* recovery applies every record or fails, so the counts are
             the records' kinds *)
          let count p = List.length (List.filter p records) in
          Ok
            {
              journal_path = path;
              records = stats.Journal.records;
              torn_bytes = stats.Journal.torn_bytes;
              datasets = Hashtbl.length t.servings - n_datasets_before;
              charges = count (function Journal.Charge _ -> true | _ -> false);
              cache_entries =
                count (function Journal.Cache_insert _ -> true | _ -> false);
              models_recovered =
                count (function Journal.Train _ -> true | _ -> false);
              streams_recovered =
                count (function Journal.Stream_open _ -> true | _ -> false);
              verified = true;
            })

let[@dp.sanitizer] open_journal t path =
  if t.journal <> None then Error "a journal is already attached"
  else begin
    let r0 = Dp_obs.Clock.now_ns () in
    let h = Dp_obs.Span.begin_at t.trace ~dataset:"" Dp_obs.Name.Sp_recovery r0 in
    let scope = Dp_obs.Metrics.global t.obs in
    match open_journal_inner t path with
    | exception e ->
        end_phase t scope h Dp_obs.Name.Recovery_ns r0;
        raise e
    | result ->
        (* tagged before it ends: a tag on an ended span is lost *)
        (match result with
        | Ok r ->
            Dp_obs.Span.tag t.trace h Dp_obs.Name.T_records
              (float_of_int r.records)
        | Error _ -> ());
        end_phase t scope h Dp_obs.Name.Recovery_ns r0;
        result
  end

(* ------------------------------------------------------------------ *)
(* Metrics snapshot *)

let draws_counter = function
  | Draws.Laplace -> Dp_obs.Name.Draws_laplace
  | Draws.Geometric -> Dp_obs.Name.Draws_geometric
  | Draws.Gaussian -> Dp_obs.Name.Draws_gaussian
  | Draws.Discrete_gaussian -> Dp_obs.Name.Draws_discrete_gaussian
  | Draws.Exponential -> Dp_obs.Name.Draws_exponential
  | Draws.Randomized_response -> Dp_obs.Name.Draws_randomized_response

(* Counters that mirror privacy-critical engine state (answered counts,
   spent/remaining ε, degradation) are written at snapshot time from the
   authoritative sources — ledger, cache, serving stats — rather than
   incremented on the hot path. That keeps submit cheap and, more
   importantly, makes recovered and live snapshots agree by
   construction: whatever the journal replay rebuilt is what gets
   exported. Latency histograms and journal/draw counters accumulate
   live. *)
let refresh_metrics t =
  if Dp_obs.Metrics.enabled t.obs then begin
    let g = Dp_obs.Metrics.global t.obs in
    Dp_obs.Metrics.set_gauge g Dp_obs.Name.Datasets_serving
      (float_of_int (Hashtbl.length t.servings));
    Dp_obs.Metrics.set_gauge g Dp_obs.Name.Journal_attached
      (match t.journal with
      | Some _ when not t.journal_failed -> 1.
      | _ -> 0.);
    Array.iter
      (fun k -> Dp_obs.Metrics.set_counter g (draws_counter k) (Draws.count k))
      Draws.all;
    Hashtbl.iter
      (fun _ sv ->
        let s = sv.scope in
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Queries_answered sv.answered;
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Queries_rejected sv.rejected;
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Queries_withheld sv.withheld;
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Cache_hits (Cache.hits sv.cache);
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Cache_misses
          (Cache.misses sv.cache);
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Trains_released
          (Model_store.released sv.models);
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Trains_withheld
          (Model_store.withheld sv.models);
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Predicts_served
          (Model_store.predicts sv.models);
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Models_stored
          (float_of_int (Model_store.size sv.models));
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Stream_appends
          (Stream_store.appends sv.streams);
        Dp_obs.Metrics.set_counter s Dp_obs.Name.Stream_reads
          (Stream_store.reads sv.streams);
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Streams_open
          (float_of_int (Stream_store.size sv.streams));
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Stream_depth
          (float_of_int (Stream_store.max_depth sv.streams));
        let spent = Ledger.spent sv.ledger in
        let remaining = Ledger.remaining sv.ledger in
        let total = Ledger.total sv.ledger in
        let m0 = Dp_obs.Clock.now_ns () in
        let leak =
          Meter.reading ~rows:sv.dataset.Registry.rows
            ~universe:sv.dataset.Registry.policy.universe spent
        in
        Dp_obs.Metrics.observe s Dp_obs.Name.Meter_ns
          (Dp_obs.Clock.elapsed_ns m0);
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Eps_total total.Privacy.epsilon;
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Eps_spent spent.Privacy.epsilon;
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Eps_remaining
          remaining.Privacy.epsilon;
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Delta_spent spent.Privacy.delta;
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Cache_entries
          (float_of_int (Cache.size sv.cache));
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Cache_hit_rate
          (Cache.hit_rate sv.cache);
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Degraded_mode
          (if degraded_for t sv then 1. else 0.);
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Mi_bound_nats
          leak.Meter.mi_bound_nats;
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Capacity_bound_nats
          leak.Meter.capacity_bound_nats;
        Dp_obs.Metrics.set_gauge s Dp_obs.Name.Min_entropy_leakage_bits
          (match leak.Meter.min_entropy_leakage_bits with
          | Some b -> b
          | None -> 0.))
      t.servings
  end

let metrics_lines ?(spans = true) t =
  refresh_metrics t;
  if spans then Dp_obs.Export.dump ~trace:t.trace t.obs
  else Dp_obs.Export.dump t.obs
