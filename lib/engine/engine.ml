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
  registry : Registry.t;
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
    registry = Registry.create ();
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

let register_serving t (ds : Registry.dataset) =
  match Registry.register t.registry ds with
  | Error _ as e -> e
  | Ok () ->
      let ledger =
        Ledger.create ~total:ds.policy.total ~backend:ds.policy.backend
          ?analyst_epsilon:ds.policy.analyst_epsilon ()
      in
      Hashtbl.replace t.servings ds.name
        {
          dataset = ds;
          ledger;
          cache = Cache.create ();
          models = Model_store.create ();
          streams = Stream_store.create ();
          scope = Dp_obs.Metrics.dataset t.obs ds.name;
          answered = 0;
          rejected = 0;
          withheld = 0;
        };
      Ok ()

let register t (ds : Registry.dataset) =
  if t.journal <> None then
    Error
      (Printf.sprintf
         "dataset %S: raw datasets cannot be made durable (the journal \
          records a regeneration seed, not column data); use \
          register_synthetic"
         ds.name)
  else register_serving t ds

let register_synthetic t ~name ~rows ~policy =
  match Registry.find t.registry name with
  | Some _ -> Error (Printf.sprintf "dataset %S already registered" name)
  | None -> (
      (* a [BASE~flipN] neighbour must share BASE's generator stream —
         seeding from the full name would give unrelated data, not a
         pair differing in one record *)
      let seed =
        dataset_seed t
          (match Registry.neighbor_flip name with
          | Some (base, _) -> base
          | None -> name)
      in
      match
        Registry.synthetic ~name ~rows ~policy (Dp_rng.Prng.create seed)
      with
      | exception Invalid_argument msg -> Error msg
      | ds -> (
          match register_serving t ds with
          | Error _ as e -> e
          | Ok () -> (
              match
                journal_append t [ Journal.Register { name; rows; seed; policy } ]
              with
              | Ok () -> Ok ds
              | Error e ->
                  (* never servable without being durable *)
                  Registry.remove t.registry name;
                  Hashtbl.remove t.servings name;
                  Error (Format.asprintf "%a" pp_error e))))

let datasets t = Registry.names t.registry
let find t name = Registry.find t.registry name

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

let submit_serving t sv ?analyst ?epsilon ~dataset query =
  (
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
              ~dataset ~query:norm ~requested:entry.Cache.requested
              ~charged:zero ~cache_hit:true ~verdict:Audit_log.Cached ()
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
      | None when t.journal_failed ->
          Error
            (Fatal
               "journal unavailable: refusing fresh releases, serving cache \
                hits only")
      | None when degraded_for t sv ->
          sv.rejected <- sv.rejected + 1;
          ignore
            (log_decision t ?analyst ~dataset ~query:norm ~requested:zero
               ~charged:zero ~cache_hit:false
               ~verdict:(Audit_log.Rejected "degraded") ());
          Error
            (Degraded
               {
                 dataset;
                 remaining = Ledger.remaining sv.ledger;
                 low_water = ds.policy.low_water;
               })
      | None -> (
          let p0 = Dp_obs.Clock.now_ns () in
          let h = Dp_obs.Span.begin_at t.trace ~dataset Dp_obs.Name.Sp_plan p0 in
          let planned = Planner.plan ds ~epsilon:eps query in
          end_phase t sv.scope h Dp_obs.Name.Plan_ns p0;
          match planned with
          | Error msg ->
              ignore
                (log_decision t ?analyst ~dataset ~query:norm ~requested:zero
                   ~charged:zero ~cache_hit:false
                   ~verdict:(Audit_log.Rejected msg) ());
              Error (Bad_query msg)
          | Ok plan -> (
              let sp = plan.Planner.spec in
              match lease_check t ~dataset sp.Planner.charge.Ledger.budget with
              | Error e ->
                  sv.rejected <- sv.rejected + 1;
                  ignore
                    (log_decision t ?analyst
                       ~mechanism:(Planner.mechanism_name sp.Planner.mechanism)
                       ~dataset ~query:norm
                       ~requested:sp.Planner.charge.Ledger.budget ~charged:zero
                       ~cache_hit:false
                       ~verdict:(Audit_log.Rejected (lease_reject_reason e)) ());
                  Error e
              | Ok () -> (
              let before = Ledger.spent sv.ledger in
              let c0 = Dp_obs.Clock.now_ns () in
              let h =
                Dp_obs.Span.begin_at t.trace ~dataset Dp_obs.Name.Sp_charge c0
              in
              let charge_result =
                Ledger.spend sv.ledger ?analyst sp.Planner.charge
              in
              end_phase t sv.scope h Dp_obs.Name.Charge_ns c0;
              match charge_result with
              | Error rejection ->
                  sv.rejected <- sv.rejected + 1;
                  ignore
                    (log_decision t ?analyst
                       ~mechanism:(Planner.mechanism_name sp.Planner.mechanism)
                       ~dataset ~query:norm
                       ~requested:sp.Planner.charge.Ledger.budget ~charged:zero
                       ~cache_hit:false
                       ~verdict:(Audit_log.Rejected "budget-exceeded") ());
                  Error (Budget_exceeded rejection)
              | Ok () -> (
                  let after = Ledger.spent sv.ledger in
                  let face = sp.Planner.charge.Ledger.budget in
                  let mech_name = Planner.mechanism_name sp.Planner.mechanism in
                  let charged =
                    {
                      Privacy.epsilon =
                        Float.max 0.
                          (after.Privacy.epsilon -. before.Privacy.epsilon);
                      delta =
                        Float.max 0. (after.Privacy.delta -. before.Privacy.delta);
                    }
                  in
                  let charge =
                    Journal.Charge
                      {
                        Journal.dataset;
                        analyst;
                        query = norm;
                        mechanism = mech_name;
                        face;
                        marginal = charged;
                        rho = Ledger.rho_of_charge sp.Planner.charge;
                      }
                  in
                  let withhold reason err =
                    (* the ledger is already charged and no answer leaves
                       the engine; the audit log records the spend, and
                       the journal (when durable) the charge with its
                       outcome marker. If even that batch fails, only the
                       live ledger keeps the charge: it over-counts, and
                       nothing was released *)
                    sv.rejected <- sv.rejected + 1;
                    sv.withheld <- sv.withheld + 1;
                    ignore
                      (log_decision t ?analyst ~mechanism:mech_name ~dataset
                         ~query:norm ~requested:face ~charged ~cache_hit:false
                         ~verdict:(Audit_log.Charged_unreleased reason) ());
                    ignore
                      (journal_append t
                         [ charge; Journal.Withheld { dataset; reason } ]);
                    Error err
                  in
                  let n0 = Dp_obs.Clock.now_ns () in
                  let h =
                    Dp_obs.Span.begin_at t.trace ~dataset Dp_obs.Name.Sp_noise
                      n0
                  in
                  let drawn =
                    Faults.with_retries ~jitter:t.retry_rng (fun ~attempt ->
                        Faults.check t.faults ~attempt Faults.Rng;
                        plan.Planner.run t.rng)
                  in
                  end_phase t sv.scope h Dp_obs.Name.Noise_ns n0;
                  match drawn with
                  | Error msg ->
                      withhold "rng" (Transient ("rng exhausted: " ^ msg))
                  | Ok answer -> (
                      (* charge-before-answer: the charge and the
                         answer's cache record become durable together,
                         in one batch, before the answer leaves the
                         engine, so a crash from here on can only
                         over-count spent epsilon *)
                      let batch =
                        if ds.policy.cache then
                          [
                            charge;
                            Journal.Cache_insert
                              {
                                Journal.dataset;
                                key;
                                answer;
                                mechanism = sp.Planner.mechanism;
                                requested = face;
                              };
                          ]
                        else [ charge ]
                      in
                      match journal_append t batch with
                      | Error e -> withhold "journal" e
                      | Ok () ->
                          Faults.check t.faults Faults.Crash_after_charge;
                          if ds.policy.cache then
                            Cache.store sv.cache key
                              {
                                Cache.answer;
                                mechanism = sp.Planner.mechanism;
                                requested = face;
                              };
                          sv.answered <- sv.answered + 1;
                          let seq =
                            log_decision t ?analyst ~mechanism:mech_name
                              ~dataset ~query:norm ~requested:face ~charged
                              ~cache_hit:false ~verdict:Audit_log.Answered ()
                          in
                          Ok
                            {
                              answer;
                              mechanism = sp.Planner.mechanism;
                              requested = face;
                              charged;
                              cache_hit = false;
                              seq;
                            }))))))

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

let train_journal_record (m : Model_store.model) =
  Journal.Train
    {
      Journal.dataset = m.Model_store.dataset;
      handle = m.Model_store.handle;
      backend = m.Model_store.backend;
      epsilon = m.Model_store.epsilon;
      chains = m.Model_store.chains;
      steps = m.Model_store.steps;
      beta = m.Model_store.beta;
      face = m.Model_store.face;
      target = m.Model_store.target;
      features = m.Model_store.features;
      theta = m.Model_store.theta;
      rhat = m.Model_store.rhat;
      ess = m.Model_store.ess;
      acceptance = m.Model_store.acceptance;
    }

let train_serving t (sv : serving) ?analyst ~dataset (params : Train.params) =
  let ds = sv.dataset in
  let norm = Train.normalize params in
  let reject verdict err =
    sv.rejected <- sv.rejected + 1;
    ignore
      (log_decision t ?analyst ~dataset ~query:norm ~requested:zero
         ~charged:zero ~cache_hit:false ~verdict ());
    Error err
  in
  if t.journal_failed then
    Error
      (Fatal
         "journal unavailable: refusing fresh releases, serving cache hits \
          only")
  else if degraded_for t sv then
    reject (Audit_log.Rejected "degraded")
      (Degraded
         {
           dataset;
           remaining = Ledger.remaining sv.ledger;
           low_water = ds.Registry.policy.low_water;
         })
  else
    let cols =
      Array.to_list
        (Array.map (fun (c : Registry.column) -> c.Registry.name) ds.columns)
    in
    match Train.spec ~rows:ds.Registry.rows ~cols params with
    | Error msg -> reject (Audit_log.Rejected msg) (Bad_query msg)
    | Ok spec -> (
        let columns =
          Array.map
            (fun (c : Registry.column) ->
              (c.Registry.name, c.Registry.lo, c.Registry.hi, c.Registry.values))
            ds.columns
        in
        match Train.design ~columns ~target:params.Train.target with
        | Error msg -> reject (Audit_log.Rejected msg) (Bad_query msg)
        | Ok design -> (
            let mech_name = Train.backend_name params.Train.backend in
            let face = spec.Train.face in
            let charge = { Ledger.budget = face; rdp = None } in
            match lease_check t ~dataset face with
            | Error e ->
                reject (Audit_log.Rejected (lease_reject_reason e)) e
            | Ok () -> (
            let before = Ledger.spent sv.ledger in
            let c0 = Dp_obs.Clock.now_ns () in
            let h =
              Dp_obs.Span.begin_at t.trace ~dataset Dp_obs.Name.Sp_charge c0
            in
            let charge_result = Ledger.spend sv.ledger ?analyst charge in
            end_phase t sv.scope h Dp_obs.Name.Charge_ns c0;
            match charge_result with
            | Error rejection ->
                sv.rejected <- sv.rejected + 1;
                ignore
                  (log_decision t ?analyst ~mechanism:mech_name ~dataset
                     ~query:norm ~requested:face ~charged:zero ~cache_hit:false
                     ~verdict:(Audit_log.Rejected "budget-exceeded") ());
                Error (Budget_exceeded rejection)
            | Ok () -> (
                let after = Ledger.spent sv.ledger in
                let charged =
                  {
                    Privacy.epsilon =
                      Float.max 0.
                        (after.Privacy.epsilon -. before.Privacy.epsilon);
                    delta =
                      Float.max 0.
                        (after.Privacy.delta -. before.Privacy.delta);
                  }
                in
                let withhold reason err =
                  sv.rejected <- sv.rejected + 1;
                  sv.withheld <- sv.withheld + 1;
                  ignore
                    (log_decision t ?analyst ~mechanism:mech_name ~dataset
                       ~query:norm ~requested:face ~charged ~cache_hit:false
                       ~verdict:(Audit_log.Charged_unreleased reason) ());
                  ignore
                    (journal_append t [ Journal.Withheld { dataset; reason } ]);
                  Error err
                in
                (* charge-before-train: the ledger spend must be durable
                   before any chain touches the data, so a crash mid-chain
                   can only over-count spent epsilon *)
                match
                  journal_append t
                    [
                      Journal.Charge
                        {
                          Journal.dataset;
                          analyst;
                          query = norm;
                          mechanism = mech_name;
                          face;
                          marginal = charged;
                          rho = Ledger.rho_of_charge charge;
                        };
                    ]
                with
                | Error e -> withhold "journal" e
                | Ok () -> (
                    Faults.check t.faults Faults.Crash_after_charge;
                    let gate_hook check =
                      let g0 = Dp_obs.Clock.now_ns () in
                      let h =
                        Dp_obs.Span.begin_at t.trace ~dataset
                          Dp_obs.Name.Sp_gate g0
                      in
                      let report = check () in
                      end_phase t sv.scope h Dp_obs.Name.Gate_ns g0;
                      report
                    in
                    let outcome =
                      Dp_obs.Span.with_ t.trace ~dataset Dp_obs.Name.Sp_train
                        (fun () -> Train.run ~gate_hook spec design t.rng)
                    in
                    let handle =
                      Printf.sprintf "%s/m%d" dataset
                        (Model_store.size sv.models + 1)
                    in
                    let model_of ~theta ~acceptance (report : Gates.report) =
                      {
                        Model_store.handle;
                        dataset;
                        backend = mech_name;
                        epsilon = params.Train.epsilon;
                        chains = params.Train.chains;
                        steps = params.Train.steps;
                        beta = spec.Train.beta;
                        face;
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
                    match outcome with
                    | Train.Released { theta; report; acceptance } -> (
                        let m = model_of ~theta:(Some theta) ~acceptance report in
                        (* the handle exists iff its frame is durable: a
                           model that cannot be journaled is withheld,
                           never released from memory alone *)
                        match journal_append t [ train_journal_record m ] with
                        | Error e -> withhold "journal" e
                        | Ok () ->
                            Model_store.add sv.models m;
                            sv.answered <- sv.answered + 1;
                            let seq =
                              log_decision t ?analyst ~mechanism:mech_name
                                ~dataset ~query:norm ~requested:face ~charged
                                ~cache_hit:false ~verdict:Audit_log.Answered ()
                            in
                            Ok { model = m; charged; seq })
                    | Train.Withheld { report; acceptance } -> (
                        let m = model_of ~theta:None ~acceptance report in
                        let unconverged =
                          Unconverged
                            {
                              dataset;
                              handle;
                              worst_rhat = Gates.worst_rhat report;
                              min_ess = Gates.min_ess report;
                              charged;
                            }
                        in
                        (* outcome marker first (pairs with the charge),
                           then the durable withheld handle; the charge
                           stands either way — never a refund, never a
                           biased sample *)
                        ignore
                          (journal_append t
                             [ Journal.Withheld { dataset; reason = "unconverged" } ]);
                        sv.rejected <- sv.rejected + 1;
                        sv.withheld <- sv.withheld + 1;
                        ignore
                          (log_decision t ?analyst ~mechanism:mech_name
                             ~dataset ~query:norm ~requested:face ~charged
                             ~cache_hit:false
                             ~verdict:(Audit_log.Charged_unreleased "unconverged")
                             ());
                        match journal_append t [ train_journal_record m ] with
                        | Error e -> Error e
                        | Ok () ->
                            Model_store.add sv.models m;
                            Error unconverged))))))

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
      let ds = sv.dataset in
      let norm = Stream.normalize params in
      let reject verdict err =
        sv.rejected <- sv.rejected + 1;
        ignore
          (log_decision t ?analyst ~dataset ~query:norm ~requested:zero
             ~charged:zero ~cache_hit:false ~verdict ());
        Error err
      in
      if t.journal_failed then
        Error
          (Fatal
             "journal unavailable: refusing fresh releases, serving cache \
              hits only")
      else if degraded_for t sv then
        reject (Audit_log.Rejected "degraded")
          (Degraded
             {
               dataset;
               remaining = Ledger.remaining sv.ledger;
               low_water = ds.Registry.policy.low_water;
             })
      else
        match Stream.spec params with
        | Error msg -> reject (Audit_log.Rejected msg) (Bad_query msg)
        | Ok spec -> (
            let face = spec.Stream.face in
            let charge = { Ledger.budget = face; rdp = None } in
            match lease_check t ~dataset face with
            | Error e ->
                reject (Audit_log.Rejected (lease_reject_reason e)) e
            | Ok () -> (
            let before = Ledger.spent sv.ledger in
            let c0 = Dp_obs.Clock.now_ns () in
            let h =
              Dp_obs.Span.begin_at t.trace ~dataset Dp_obs.Name.Sp_charge c0
            in
            let charge_result = Ledger.spend sv.ledger ?analyst charge in
            end_phase t sv.scope h Dp_obs.Name.Charge_ns c0;
            match charge_result with
            | Error rejection ->
                sv.rejected <- sv.rejected + 1;
                ignore
                  (log_decision t ?analyst ~mechanism:Stream.mechanism_name
                     ~dataset ~query:norm ~requested:face ~charged:zero
                     ~cache_hit:false
                     ~verdict:(Audit_log.Rejected "budget-exceeded") ());
                Error (Budget_exceeded rejection)
            | Ok () -> (
                let after = Ledger.spent sv.ledger in
                let charged =
                  {
                    Privacy.epsilon =
                      Float.max 0.
                        (after.Privacy.epsilon -. before.Privacy.epsilon);
                    delta =
                      Float.max 0.
                        (after.Privacy.delta -. before.Privacy.delta);
                  }
                in
                let withhold reason err =
                  sv.rejected <- sv.rejected + 1;
                  sv.withheld <- sv.withheld + 1;
                  ignore
                    (log_decision t ?analyst ~mechanism:Stream.mechanism_name
                       ~dataset ~query:norm ~requested:face ~charged
                       ~cache_hit:false
                       ~verdict:(Audit_log.Charged_unreleased reason) ());
                  ignore
                    (journal_append t [ Journal.Withheld { dataset; reason } ]);
                  Error err
                in
                (* charge-before-open: the whole-lifetime face must be
                   durable before the handle exists, so a crash here can
                   only over-count spent epsilon *)
                match
                  journal_append t
                    [
                      Journal.Charge
                        {
                          Journal.dataset;
                          analyst;
                          query = norm;
                          mechanism = Stream.mechanism_name;
                          face;
                          marginal = charged;
                          rho = Ledger.rho_of_charge charge;
                        };
                    ]
                with
                | Error e -> withhold "journal" e
                | Ok () -> (
                    Faults.check t.faults Faults.Crash_after_charge;
                    let handle =
                      Printf.sprintf "%s/s%d" dataset
                        (Stream_store.size sv.streams + 1)
                    in
                    (* the handle exists iff its frame is durable, like
                       model handles *)
                    match
                      journal_append t
                        [
                          Journal.Stream_open
                            {
                              Journal.dataset;
                              handle;
                              epsilon = params.Stream.epsilon;
                              horizon = params.Stream.horizon;
                              window = params.Stream.window;
                            };
                        ]
                    with
                    | Error e -> withhold "journal" e
                    | Ok () ->
                        let stream =
                          {
                            Stream_store.handle;
                            dataset;
                            spec;
                            counter =
                              Counter.create ~epsilon:params.Stream.epsilon
                                ~horizon:params.Stream.horizon;
                            reads = 0;
                          }
                        in
                        Stream_store.add sv.streams stream;
                        sv.answered <- sv.answered + 1;
                        let seq =
                          log_decision t ?analyst
                            ~mechanism:Stream.mechanism_name ~dataset
                            ~query:norm ~requested:face ~charged
                            ~cache_hit:false ~verdict:Audit_log.Answered ()
                        in
                        Ok { stream; charged; seq })))))

let find_stream t handle =
  match serving_of_handle t handle with
  | None -> None
  | Some sv -> Stream_store.find sv.streams handle

let streams t ~dataset =
  match Hashtbl.find_opt t.servings dataset with
  | None -> Error (Unknown_dataset dataset)
  | Some sv -> Ok sv.streams

(* Appends are pre-paid (the open charged the whole lifetime), so they
   are served even in low-water degraded mode — like cache hits, they
   consume no fresh budget. They do need durability: without a working
   journal the closing nodes' noise could be lost after a later read
   released it, so a failed journal refuses appends outright. *)
let append t handle bit =
  match serving_of_handle t handle with
  | None -> Error (Unknown_stream handle)
  | Some sv -> (
      match Stream_store.find sv.streams handle with
      | None -> Error (Unknown_stream handle)
      | Some s ->
          let a0 = Dp_obs.Clock.now_ns () in
          if t.journal_failed then
            Error
              (Fatal
                 "journal unavailable: refusing fresh releases, serving \
                  cache hits only")
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
            (* noise-before-release, durably: the frame carrying the
               noisy node values is fsynced before the tree mutates *)
            match
              journal_append t
                [
                  Journal.Stream_append
                    { Journal.dataset = s.Stream_store.dataset; handle; bit; nodes };
                ]
            with
            | Error e -> Error e
            | Ok () ->
                Faults.check t.faults Faults.Crash_after_charge;
                Counter.commit c ~bit nodes;
                Stream_store.record_append sv.streams;
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

(* A [Withheld] marker immediately follows the charge whose answer was
   withheld live (a query journals both in one batch; a train or stream
   open journals the marker right after its own charge), so recovered
   stats and audit verdicts match the live run. An unpaired marker —
   a train or stream open whose charge append failed before it —
   carries no information and is dropped. The one remaining divergence is a genuine crash
   between charge and answer: no marker could be written, so recovery
   conservatively counts that charge as answered (budget-wise the two
   outcomes are identical). *)
let rec pair_outcomes = function
  | (Journal.Charge c as r) :: Journal.Withheld { dataset; reason } :: rest
    when dataset = c.Journal.dataset ->
      (r, Some reason) :: pair_outcomes rest
  | r :: rest -> (r, None) :: pair_outcomes rest
  | [] -> []

let apply_record t (record, withheld) =
  match record with
  | Journal.Register { name; rows; seed; policy } -> (
      if Registry.find t.registry name <> None then
        raise
          (Recovery_failed
             (Printf.sprintf "journal registers %S but it already exists" name));
      let ds =
        try Registry.synthetic ~name ~rows ~policy (Dp_rng.Prng.create seed)
        with Invalid_argument msg -> raise (Recovery_failed msg)
      in
      match register_serving t ds with
      | Ok () -> ()
      | Error msg -> raise (Recovery_failed msg))
  | Journal.Charge c -> (
      match Hashtbl.find_opt t.servings c.Journal.dataset with
      | None ->
          raise
            (Recovery_failed
               (Printf.sprintf "journal charges unknown dataset %S"
                  c.Journal.dataset))
      | Some sv ->
          (try
             Ledger.replay_charge sv.ledger ?analyst:c.Journal.analyst
               ~face:c.Journal.face ~rho:c.Journal.rho ()
           with
          | Invalid_argument msg -> raise (Recovery_failed msg)
          | Privacy.Budget_exceeded _ ->
              raise
                (Recovery_failed
                   (Printf.sprintf
                      "journaled charge overdraws analyst budget on %S"
                      c.Journal.dataset)));
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
          ignore
            (log_decision t ?analyst:c.Journal.analyst
               ~mechanism:c.Journal.mechanism ~dataset:c.Journal.dataset
               ~query:c.Journal.query ~requested:c.Journal.face
               ~charged:c.Journal.marginal ~cache_hit:false ~verdict ()))
  | Journal.Cache_insert k -> (
      match Hashtbl.find_opt t.servings k.Journal.dataset with
      | None ->
          raise
            (Recovery_failed
               (Printf.sprintf "journal caches unknown dataset %S"
                  k.Journal.dataset))
      | Some sv ->
          Cache.store sv.cache k.Journal.key
            {
              Cache.answer = k.Journal.answer;
              mechanism = k.Journal.mechanism;
              requested = k.Journal.requested;
            })
  | Journal.Withheld _ -> ()
  | Journal.Train m -> (
      match Hashtbl.find_opt t.servings m.Journal.dataset with
      | None ->
          raise
            (Recovery_failed
               (Printf.sprintf "journal trains unknown dataset %S"
                  m.Journal.dataset))
      | Some sv -> (
          match
            Model_store.add sv.models
              {
                Model_store.handle = m.Journal.handle;
                dataset = m.Journal.dataset;
                backend = m.Journal.backend;
                epsilon = m.Journal.epsilon;
                chains = m.Journal.chains;
                steps = m.Journal.steps;
                beta = m.Journal.beta;
                face = m.Journal.face;
                target = m.Journal.target;
                features = m.Journal.features;
                theta = m.Journal.theta;
                rhat = m.Journal.rhat;
                ess = m.Journal.ess;
                acceptance = m.Journal.acceptance;
              }
          with
          | () -> ()
          | exception Invalid_argument msg -> raise (Recovery_failed msg)))
  | Journal.Stream_open o -> (
      match Hashtbl.find_opt t.servings o.Journal.dataset with
      | None ->
          raise
            (Recovery_failed
               (Printf.sprintf "journal opens stream on unknown dataset %S"
                  o.Journal.dataset))
      | Some sv -> (
          let params =
            {
              Stream.epsilon = o.Journal.epsilon;
              horizon = o.Journal.horizon;
              window = o.Journal.window;
            }
          in
          match Stream.spec params with
          | exception Invalid_argument msg -> raise (Recovery_failed msg)
          | Error msg -> raise (Recovery_failed msg)
          | Ok spec -> (
              match
                Stream_store.add sv.streams
                  {
                    Stream_store.handle = o.Journal.handle;
                    dataset = o.Journal.dataset;
                    spec;
                    counter =
                      Counter.create ~epsilon:o.Journal.epsilon
                        ~horizon:o.Journal.horizon;
                    reads = 0;
                  }
              with
              | () -> ()
              | exception Invalid_argument msg ->
                  raise (Recovery_failed msg))))
  | Journal.Stream_append a -> (
      (* replay goes through [commit] alone — the journaled noisy node
         values are applied verbatim, consuming zero PRNG draws, so the
         rebuilt tree releases bit-identical counts *)
      match Hashtbl.find_opt t.servings a.Journal.dataset with
      | None ->
          raise
            (Recovery_failed
               (Printf.sprintf "journal appends to unknown dataset %S"
                  a.Journal.dataset))
      | Some sv -> (
          match Stream_store.find sv.streams a.Journal.handle with
          | None ->
              raise
                (Recovery_failed
                   (Printf.sprintf "journal appends to unknown stream %S"
                      a.Journal.handle))
          | Some s -> (
              match
                Counter.commit s.Stream_store.counter ~bit:a.Journal.bit
                  a.Journal.nodes
              with
              | () -> Stream_store.record_append sv.streams
              | exception Invalid_argument msg ->
                  raise (Recovery_failed msg))))

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
