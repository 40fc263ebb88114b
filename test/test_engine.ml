(* Tests for the query-serving engine: query language, planner
   mechanism/sensitivity choices, budget ledger backends, answer cache,
   audit replay and the line protocol. *)

open Dp_engine
open Dp_mechanism

let check_close ?(tol = 1e-9) msg expected actual =
  if not (Dp_math.Numeric.approx_equal ~rel_tol:tol ~abs_tol:tol expected actual)
  then Alcotest.failf "%s: expected %.15g, got %.15g" msg expected actual

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let demo_policy ?(backend = Ledger.Basic) ?(epsilon = 1.) ?(delta = 0.)
    ?analyst_epsilon ?(cache = true) ?(default_epsilon = 0.1) () =
  {
    (Registry.default_policy ~total:(Privacy.approx ~epsilon ~delta)) with
    Registry.backend;
    analyst_epsilon;
    cache;
    default_epsilon;
  }

let demo_engine ?(policy = demo_policy ()) () =
  let eng = Engine.create ~seed:7 () in
  (match Engine.register_synthetic eng ~name:"demo" ~rows:500 ~policy with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "register_synthetic: %s" msg);
  eng

let demo_dataset ?policy () =
  let eng = demo_engine ?policy () in
  match Engine.find eng "demo" with
  | Some ds -> ds
  | None -> Alcotest.fail "registered dataset not found"

(* ------------------------------------------------------------------ *)
(* Query language *)

let test_query_parse () =
  let roundtrips =
    [
      "count";
      "count(age>40)";
      "count(income<=12000)";
      "sum(income)";
      "mean(score)";
      "histogram(age,16)";
      "quantile(income,0.5)";
      "cdf(age,30,50,70)";
    ]
  in
  List.iter
    (fun text ->
      match Query.parse text with
      | Error msg -> Alcotest.failf "parse %S failed: %s" text msg
      | Ok q ->
          Alcotest.(check string)
            (Printf.sprintf "normalize %S" text)
            text (Query.normalize q))
    roundtrips;
  (* spelling variants share a normal form (hence a cache key) *)
  let norm text =
    match Query.parse text with
    | Ok q -> Query.normalize q
    | Error msg -> Alcotest.failf "parse %S failed: %s" text msg
  in
  Alcotest.(check string)
    "float canonicalization" (norm "quantile(income,0.5)")
    (norm "QUANTILE(income, 0.50)");
  Alcotest.(check string)
    "cdf points sorted and deduped" (norm "cdf(age,30,50,70)")
    (norm "cdf(age,70,30,50,30)");
  List.iter
    (fun bad ->
      match Query.parse bad with
      | Ok q -> Alcotest.failf "parse %S accepted as %s" bad (Query.normalize q)
      | Error _ -> ())
    [
      "";
      "frobnicate(age)";
      "sum()";
      "histogram(age,0)";
      "histogram(age,nope)";
      "quantile(age,1.5)";
      "count(age~40)";
      "cdf(age)";
      "sum(in come)";
    ]

(* ------------------------------------------------------------------ *)
(* Planner *)

let plan_ok ds ~epsilon text =
  match Query.parse text with
  | Error msg -> Alcotest.failf "parse %S: %s" text msg
  | Ok q -> (
      match Planner.plan ds ~epsilon q with
      | Ok p -> p.Planner.spec
      | Error msg -> Alcotest.failf "plan %S: %s" text msg)

let test_planner_choices () =
  let ds = demo_dataset () in
  let p = plan_ok ds ~epsilon:0.5 "count(age>40)" in
  Alcotest.(check string)
    "count mechanism" "geometric"
    (Planner.mechanism_name p.Planner.mechanism);
  check_close "count sensitivity" 1. p.Planner.sensitivity;
  check_close "count face-value charge" 0.5
    p.Planner.charge.Ledger.budget.Privacy.epsilon;
  (* income is bounded in [0, 200000]: bounded-sum sensitivity is the
     largest magnitude, mean divides by n *)
  let p = plan_ok ds ~epsilon:0.5 "sum(income)" in
  Alcotest.(check string)
    "sum mechanism" "laplace"
    (Planner.mechanism_name p.Planner.mechanism);
  check_close "sum sensitivity" 200_000. p.Planner.sensitivity;
  let p = plan_ok ds ~epsilon:0.5 "mean(income)" in
  check_close "mean sensitivity" (200_000. /. 500.) p.Planner.sensitivity;
  let p = plan_ok ds ~epsilon:0.5 "histogram(age,16)" in
  Alcotest.(check string)
    "histogram mechanism" "laplace"
    (Planner.mechanism_name p.Planner.mechanism);
  check_close "histogram sensitivity" 2. p.Planner.sensitivity;
  let p = plan_ok ds ~epsilon:0.5 "quantile(income,0.9)" in
  Alcotest.(check string)
    "quantile mechanism" "exponential"
    (Planner.mechanism_name p.Planner.mechanism);
  (* under RDP accounting integer queries switch to discrete gaussian
     and the face-value charge picks up the conversion delta *)
  let rdp_ds =
    demo_dataset ~policy:(demo_policy ~backend:(Ledger.Rdp { delta = 1e-6 }) ())
      ()
  in
  let p = plan_ok rdp_ds ~epsilon:0.5 "count" in
  Alcotest.(check string)
    "rdp count mechanism" "discrete-gaussian"
    (Planner.mechanism_name p.Planner.mechanism);
  Alcotest.(check bool)
    "rdp charge carries a curve" true
    (Option.is_some p.Planner.charge.Ledger.rdp);
  (* errors are structured, not exceptions *)
  (match Planner.plan ds ~epsilon:0.5 (Query.Sum { column = "nope" }) with
  | Error msg ->
      Alcotest.(check bool)
        "unknown column names the dataset" true (contains ~sub:"demo" msg)
  | Ok _ -> Alcotest.fail "planned a query over a missing column");
  match Planner.plan ds ~epsilon:0. (Query.Count None) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "planned with epsilon = 0"

(* The rank search over a sorted column needs a total order, and NaN
   would otherwise escape the clamp: a raw dataset [1;2;NaN;4] released
   nan sums and means where its neighbour released finite ones. *)
let test_registry_refuses_non_finite () =
  let columns v =
    [ { Registry.name = "x"; values = [| 1.; 2.; v; 4. |]; lo = 0.; hi = 5. } ]
  in
  List.iter
    (fun v ->
      match Registry.dataset ~name:"raw" ~policy:(demo_policy ()) ~columns:(columns v) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "registered a column holding %g" v)
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  ignore (Registry.dataset ~name:"raw" ~policy:(demo_policy ()) ~columns:(columns 3.))

let test_spec_refuses_non_finite () =
  let s = Registry.schema_of (demo_dataset ()) in
  let refused what q =
    match Planner.spec s ~epsilon:0.5 q with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "spec accepted %s" what
  in
  List.iter
    (fun v ->
      refused "a non-finite count threshold"
        (Query.Count (Some { Query.column = "age"; op = Query.Ge; threshold = v }));
      refused "a non-finite cdf point"
        (Query.Cdf { column = "age"; points = [| 30.; v |] }))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  refused "a quantile outside [0, 1]" (Query.Quantile { column = "age"; q = Float.nan })

(* ------------------------------------------------------------------ *)
(* Ledger *)

let test_ledger_backends () =
  let charges =
    List.init 40 (fun _ -> { Ledger.budget = Privacy.pure 0.05; rdp = None })
  in
  let spend_all backend =
    let t = Ledger.create ~total:(Privacy.approx ~epsilon:10. ~delta:1e-3) ~backend () in
    List.iter
      (fun c ->
        match Ledger.spend t c with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "ledger rejected within budget")
      charges;
    Alcotest.(check int) "all charges recorded" 40 (Ledger.n_charges t);
    Ledger.spent t
  in
  let basic = spend_all Ledger.Basic in
  check_close "basic adds" 2.0 basic.Privacy.epsilon;
  let adv = spend_all (Ledger.Advanced { slack = 1e-6 }) in
  Alcotest.(check bool)
    "advanced beats basic for many small charges" true
    (adv.Privacy.epsilon < basic.Privacy.epsilon);
  (* the advanced-composition delta slack is accounted *)
  Alcotest.(check bool) "advanced pays slack in delta" true
    (adv.Privacy.delta > 0.);
  let rdp = spend_all (Ledger.Rdp { delta = 1e-6 }) in
  Alcotest.(check bool)
    "rdp never worse than basic" true
    (rdp.Privacy.epsilon <= basic.Privacy.epsilon +. 1e-12);
  (* spent + remaining = total, and rejections are structured *)
  let t = Ledger.create ~total:(Privacy.pure 0.12) ~backend:Ledger.Basic () in
  let c = { Ledger.budget = Privacy.pure 0.05; rdp = None } in
  (match Ledger.spend t c with Ok () -> () | Error _ -> Alcotest.fail "1st");
  (match Ledger.spend t c with Ok () -> () | Error _ -> Alcotest.fail "2nd");
  check_close "spent" 0.1 (Ledger.spent t).Privacy.epsilon;
  check_close "remaining" 0.02 (Ledger.remaining t).Privacy.epsilon;
  match Ledger.spend t c with
  | Ok () -> Alcotest.fail "overdraft accepted"
  | Error r ->
      check_close "rejection echoes request" 0.05
        r.Ledger.requested.Privacy.epsilon;
      check_close "rejection reports remainder" 0.02
        r.Ledger.remaining.Privacy.epsilon;
      Alcotest.(check bool) "global, not analyst" true (r.Ledger.analyst = None);
      check_close "failed spend charged nothing" 0.1
        (Ledger.spent t).Privacy.epsilon

let test_analyst_budgets () =
  let t =
    Ledger.create ~total:(Privacy.pure 10.) ~backend:Ledger.Basic
      ~analyst_epsilon:0.1 ()
  in
  let c = { Ledger.budget = Privacy.pure 0.06; rdp = None } in
  (match Ledger.spend t ~analyst:"alice" c with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "alice within sub-budget");
  (match Ledger.spend t ~analyst:"alice" c with
  | Ok () -> Alcotest.fail "alice exceeded her sub-budget"
  | Error r ->
      Alcotest.(check (option string))
        "rejection names the analyst" (Some "alice") r.Ledger.analyst);
  (* bob has his own sub-budget; anonymous queries only hit the global *)
  (match Ledger.spend t ~analyst:"bob" c with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "bob blocked by alice's spend");
  (match Ledger.spend t c with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "anonymous blocked by sub-budgets");
  check_close "alice's ledger" 0.06 (Ledger.analyst_spent t "alice").Privacy.epsilon;
  check_close "unseen analyst" 0. (Ledger.analyst_spent t "carol").Privacy.epsilon;
  check_close "global sees all three" 0.18 (Ledger.spent t).Privacy.epsilon

(* ------------------------------------------------------------------ *)
(* Engine: budget exhaustion, cache, replay *)

let submit_ok eng ?analyst ?epsilon text =
  match Engine.submit_text eng ?analyst ?epsilon ~dataset:"demo" text with
  | Ok r -> r
  | Error e -> Alcotest.failf "submit %S: %a" text Engine.pp_error e

let test_budget_exhaustion () =
  let eng =
    demo_engine ~policy:(demo_policy ~epsilon:0.3 ~default_epsilon:0.1 ()) ()
  in
  (* three distinct queries fit exactly; the fourth must be rejected *)
  let r1 = submit_ok eng "count" in
  check_close "face value charged under basic" 0.1 r1.Engine.charged.Privacy.epsilon;
  ignore (submit_ok eng "mean(income)");
  ignore (submit_ok eng "quantile(income,0.5)");
  (match Engine.submit_text eng ~dataset:"demo" "sum(income)" with
  | Ok _ -> Alcotest.fail "answered past the budget"
  | Error (Engine.Budget_exceeded rej) ->
      check_close "typed rejection: requested" 0.1
        rej.Ledger.requested.Privacy.epsilon;
      check_close "typed rejection: remaining" 0.
        rej.Ledger.remaining.Privacy.epsilon
  | Error e -> Alcotest.failf "wrong error: %a" Engine.pp_error e);
  (* unknown datasets and malformed queries are also typed *)
  (match Engine.submit_text eng ~dataset:"nope" "count" with
  | Error (Engine.Unknown_dataset "nope") -> ()
  | _ -> Alcotest.fail "expected Unknown_dataset");
  (match Engine.submit_text eng ~dataset:"demo" "frobnicate" with
  | Error (Engine.Bad_query _) -> ()
  | _ -> Alcotest.fail "expected Bad_query");
  match Engine.report eng ~dataset:"demo" with
  | Error e -> Alcotest.failf "report: %a" Engine.pp_error e
  | Ok rep ->
      Alcotest.(check int) "answered" 3 rep.Engine.answered;
      Alcotest.(check int) "rejected" 1 rep.Engine.rejected;
      check_close "spent the whole budget" 0.3 rep.Engine.spent.Privacy.epsilon;
      check_close "nothing remains" 0. rep.Engine.remaining.Privacy.epsilon

(* Every decision in the audit log is one the report counts: a query
   the planner refuses takes an audit seq, so it is a rejection. *)
let test_refusals_counted () =
  let eng = demo_engine () in
  (match Engine.submit_text eng ~dataset:"demo" "mean(nosuch)" with
  | Error (Engine.Bad_query _) -> ()
  | Ok _ -> Alcotest.fail "mean(nosuch) answered"
  | Error e -> Alcotest.failf "wrong error: %a" Engine.pp_error e);
  let r = submit_ok eng "count" in
  Alcotest.(check int) "the refusal took seq 0" 1 r.Engine.seq;
  match Engine.report eng ~dataset:"demo" with
  | Error e -> Alcotest.failf "report: %a" Engine.pp_error e
  | Ok rep ->
      Alcotest.(check int) "queries = audit records"
        (List.length (Engine.records eng ~dataset:"demo"))
        rep.Engine.queries;
      Alcotest.(check int) "rejected" 1 rep.Engine.rejected

let answers_equal a b =
  match (a, b) with
  | Planner.Scalar x, Planner.Scalar y -> x = y
  | Planner.Vector x, Planner.Vector y -> x = y
  | _ -> false

let test_cache_postprocessing () =
  let eng =
    demo_engine ~policy:(demo_policy ~epsilon:0.25 ~default_epsilon:0.1 ()) ()
  in
  let r1 = submit_ok eng "histogram(age,8)" in
  Alcotest.(check bool) "first is a miss" false r1.Engine.cache_hit;
  let r2 = submit_ok eng "histogram(age,8)" in
  Alcotest.(check bool) "repeat is a hit" true r2.Engine.cache_hit;
  Alcotest.(check bool)
    "replayed answer is bit-identical" true
    (answers_equal r1.Engine.answer r2.Engine.answer);
  check_close "hit charged zero" 0. r2.Engine.charged.Privacy.epsilon;
  check_close "hit still reports the face value"
    r1.Engine.requested.Privacy.epsilon r2.Engine.requested.Privacy.epsilon;
  Alcotest.(check string)
    "hit reports the original mechanism"
    (Planner.mechanism_name r1.Engine.mechanism)
    (Planner.mechanism_name r2.Engine.mechanism);
  (* same question at a different epsilon is a different release *)
  let r3 = submit_ok eng ~epsilon:0.15 "histogram(age,8)" in
  Alcotest.(check bool) "different eps misses" false r3.Engine.cache_hit;
  (* budget is now exhausted (0.1 + 0.15): fresh queries are rejected
     but cached ones still replay — post-processing is free *)
  (match Engine.submit_text eng ~dataset:"demo" "count" with
  | Error (Engine.Budget_exceeded _) -> ()
  | _ -> Alcotest.fail "expected exhaustion");
  let r4 = submit_ok eng "histogram(age,8)" in
  Alcotest.(check bool) "cached answer after exhaustion" true r4.Engine.cache_hit;
  match Engine.report eng ~dataset:"demo" with
  | Error e -> Alcotest.failf "report: %a" Engine.pp_error e
  | Ok rep ->
      Alcotest.(check int) "cache hits counted" 2 rep.Engine.cache_hits;
      check_close "spent unchanged by hits" 0.25 rep.Engine.spent.Privacy.epsilon;
      Alcotest.(check bool) "hit-rate reported" true (rep.Engine.hit_rate > 0.)

let test_cache_disabled () =
  let eng = demo_engine ~policy:(demo_policy ~cache:false ()) () in
  let r1 = submit_ok eng "count" in
  let r2 = submit_ok eng "count" in
  Alcotest.(check bool) "no hits when disabled" false r2.Engine.cache_hit;
  check_close "both charged" r1.Engine.charged.Privacy.epsilon
    r2.Engine.charged.Privacy.epsilon;
  Alcotest.(check bool)
    "fresh noise drawn" true
    (not (answers_equal r1.Engine.answer r2.Engine.answer))

let test_replay_and_marginals () =
  (* Under advanced composition the marginal charges telescope: replay
     through the basic accountant reproduces the composed spend. *)
  let eng =
    demo_engine
      ~policy:
        (demo_policy
           ~backend:(Ledger.Advanced { slack = 1e-6 })
           ~epsilon:2. ~delta:1e-3 ~default_epsilon:0.05 ())
      ()
  in
  List.iter
    (fun q -> ignore (submit_ok eng q))
    [ "count"; "count(age>40)"; "mean(income)"; "count"; "sum(score)" ];
  match (Engine.replay eng ~dataset:"demo", Engine.report eng ~dataset:"demo") with
  | Ok (Dp_audit.Replay.Consistent replayed), Ok rep ->
      check_close ~tol:1e-6 "replayed spend matches the report"
        rep.Engine.spent.Privacy.epsilon replayed.Privacy.epsilon;
      Alcotest.(check bool)
        "advanced spend below face-value sum" true
        (rep.Engine.spent.Privacy.epsilon < 4. *. 0.05 +. 1e-12)
  | Ok (Dp_audit.Replay.Overdraft _), _ -> Alcotest.fail "audit log overdrafts"
  | Error e, _ | _, Error e -> Alcotest.failf "replay: %a" Engine.pp_error e

let test_leakage_meter () =
  let eng = demo_engine () in
  ignore (submit_ok eng "count");
  ignore (submit_ok eng "mean(income)");
  match Engine.report eng ~dataset:"demo" with
  | Error e -> Alcotest.failf "report: %a" Engine.pp_error e
  | Ok rep ->
      let lk = rep.Engine.leakage in
      Alcotest.(check bool) "mi bound positive" true (lk.Meter.mi_bound_nats > 0.);
      check_close "bits are nats over ln 2"
        (lk.Meter.mi_bound_nats /. log 2.)
        lk.Meter.mi_bound_bits;
      Alcotest.(check bool)
        "per-record bound below whole-dataset capacity" true
        (lk.Meter.mi_bound_nats <= lk.Meter.capacity_bound_nats +. 1e-12);
      (* the meter reads the composed spend *)
      check_close "meter reads the ledger" rep.Engine.spent.Privacy.epsilon
        lk.Meter.epsilon

(* ------------------------------------------------------------------ *)
(* Protocol *)

let exec_one eng line =
  match Protocol.exec eng line with
  | [ reply ] -> reply
  | replies ->
      Alcotest.failf "expected one reply to %S, got %d" line
        (List.length replies)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let test_protocol () =
  let eng = Engine.create ~seed:42 () in
  let reply =
    exec_one eng "register demo rows=200 eps=0.25 default-eps=0.1"
  in
  Alcotest.(check bool) "register ok" true (starts_with "ok registered" reply);
  let reply = exec_one eng "query demo count" in
  Alcotest.(check bool) "query ok" true (starts_with "ok seq=" reply);
  Alcotest.(check bool) "miss reported" true (contains ~sub:"cache=miss" reply);
  let reply = exec_one eng "query demo count" in
  Alcotest.(check bool) "hit reported" true (contains ~sub:"cache=hit" reply);
  Alcotest.(check bool) "hit charged zero" true
    (contains ~sub:"eps-charged=0 " reply);
  let reply = exec_one eng "query demo mean(income)" in
  Alcotest.(check bool) "second query ok" true (starts_with "ok seq=" reply);
  (* 0.25 total - 0.2 spent: the next fresh query must be refused *)
  let reply = exec_one eng "query demo sum(income)" in
  Alcotest.(check bool) "typed budget refusal" true
    (starts_with "err budget-exceeded" reply);
  (match Protocol.exec eng "report demo" with
  | header :: _ ->
      Alcotest.(check bool) "report header" true
        (starts_with "report dataset=demo" header)
  | [] -> Alcotest.fail "empty report");
  let reply = exec_one eng "replay demo" in
  Alcotest.(check bool) "replay consistent" true
    (starts_with "ok replay consistent" reply);
  (* malformed input never raises *)
  List.iter
    (fun line ->
      match Protocol.exec eng line with
      | [] -> if line <> "" && line.[0] <> '#' then Alcotest.failf "no reply to %S" line
      | replies ->
          List.iter
            (fun r ->
              Alcotest.(check bool)
                (Printf.sprintf "reply to %S tagged" line)
                true
                (starts_with "ok" r || starts_with "err" r
                || starts_with "  " r || starts_with "report" r))
            replies)
    [
      "";
      "# comment";
      "bogus";
      "query";
      "query demo";
      "query nosuch count";
      "query demo frobnicate(age)";
      "query demo count eps=abc";
      "register demo";
      "register other rows=-3";
      "register other backend=frob";
      "help";
    ];
  Alcotest.(check bool) "quit detected" true (Protocol.is_quit "quit");
  Alcotest.(check bool) "exit detected" true (Protocol.is_quit " exit ");
  Alcotest.(check bool) "query is not quit" false (Protocol.is_quit "query d c")

(* An RDP dataset registered without delta= keeps a total delta of 0
   while the backend converts at 1e-6, so every discrete-Gaussian
   release is refused on delta; the reply must say so. Pure-epsilon
   refusals keep their delta-free form. *)
let test_protocol_delta_refusal () =
  let eng = Engine.create ~seed:42 () in
  ignore (exec_one eng "register rdp0 rows=50 eps=1000 backend=rdp");
  let reply = exec_one eng "query rdp0 count" in
  Alcotest.(check bool)
    "refused" true
    (starts_with "err budget-exceeded requested=" reply);
  Alcotest.(check bool)
    "shows the binding delta" true
    (contains ~sub:" requested-delta=1e-06 remaining-delta=0" reply);
  ignore (exec_one eng "register pure rows=50 eps=0.15 default-eps=0.1");
  ignore (exec_one eng "query pure count");
  Alcotest.(check string)
    "pure-epsilon refusal unchanged"
    "err budget-exceeded requested=0.1 remaining=0.05"
    (exec_one eng "query pure sum(age)")

let test_determinism () =
  (* same seed, same request sequence -> byte-identical transcript *)
  let transcript () =
    let eng = Engine.create ~seed:99 () in
    List.concat_map (Protocol.exec eng)
      [
        "register demo rows=300 eps=1 backend=advanced";
        "query demo count(age>40)";
        "query demo histogram(score,8)";
        "query demo quantile(income,0.25)";
        "report demo";
      ]
  in
  Alcotest.(check (list string)) "deterministic" (transcript ()) (transcript ())

(* ------------------------------------------------------------------ *)
(* Reference release: the planner's runner as it was before column
   synopses — every release re-scans the column (count, sum, mean,
   histogram) or re-sorts it (cdf, quantile). The planner must keep
   releasing exactly what this produces under the same PRNG state. *)

module Scan_reference = struct
  let gaussian_sigma ~l2 ~epsilon ~delta =
    l2 *. sqrt (2. *. log (1.25 /. delta)) /. epsilon

  let rdp_delta (ds : Registry.dataset) =
    match ds.policy.backend with Ledger.Rdp { delta } -> Some delta | _ -> None

  let satisfies op threshold v =
    match op with
    | Query.Le -> v <= threshold
    | Query.Lt -> v < threshold
    | Query.Ge -> v >= threshold
    | Query.Gt -> v > threshold

  let integer ds ~epsilon ~value g =
    match rdp_delta ds with
    | None ->
        let m = Geometric_mech.create ~sensitivity:1 ~epsilon in
        Planner.Scalar (float_of_int (Geometric_mech.release m ~value g))
    | Some delta ->
        let sigma = gaussian_sigma ~l2:1. ~epsilon ~delta in
        let m = Discrete_gaussian.create ~sensitivity:1 ~sigma in
        Planner.Scalar (float_of_int (Discrete_gaussian.release m ~value g))

  let cells ds ~epsilon counts g =
    match rdp_delta ds with
    | None ->
        let lap =
          Laplace.create ~sensitivity:(Sensitivity.histogram ()) ~epsilon
        in
        Laplace.release_vector lap ~value:counts g
    | Some delta ->
        let sigma = gaussian_sigma ~l2:(sqrt 2.) ~epsilon ~delta in
        Array.map
          (fun c -> c +. float_of_int (Discrete_gaussian.sample_noise ~sigma g))
          counts

  let run (ds : Registry.dataset) (sp : Planner.spec) g =
    let epsilon = sp.epsilon in
    let col name = Option.get (Registry.column ds name) in
    match sp.query with
    | Query.Count None -> integer ds ~epsilon ~value:ds.rows g
    | Query.Count (Some { column; op; threshold }) ->
        let value =
          Array.fold_left
            (fun acc v -> if satisfies op threshold v then acc + 1 else acc)
            0 (col column).values
        in
        integer ds ~epsilon ~value g
    | Query.Sum { column } ->
        let lap = Laplace.create ~sensitivity:sp.sensitivity ~epsilon in
        Planner.Scalar
          (Laplace.release lap ~value:(Dp_math.Summation.sum (col column).values) g)
    | Query.Mean { column } ->
        let lap = Laplace.create ~sensitivity:sp.sensitivity ~epsilon in
        Planner.Scalar
          (Laplace.release lap
             ~value:(Dp_math.Summation.mean (col column).values) g)
    | Query.Histogram { column; bins } ->
        let c = col column in
        let h = Dp_stats.Histogram.of_samples ~lo:c.lo ~hi:c.hi ~bins c.values in
        let counts = Array.init bins (Dp_stats.Histogram.count h) in
        Planner.Vector (Array.map (Float.max 0.) (cells ds ~epsilon counts g))
    | Query.Quantile { column; q } ->
        let c = col column in
        Planner.Scalar
          (Dp_learn.Quantile.estimate ~epsilon ~q ~lo:c.lo ~hi:c.hi c.values g)
    | Query.Cdf { column; points } ->
        let c = col column in
        let sorted = Array.copy c.values in
        Array.sort compare sorted;
        let n = Array.length sorted in
        let rank t =
          Array.fold_left (fun acc v -> if v <= t then acc + 1 else acc) 0 sorted
        in
        let k = Array.length points in
        let cum = Array.map rank points in
        let counts =
          Array.init (k + 1) (fun i ->
              let prev = if i = 0 then 0 else cum.(i - 1) in
              let next = if i = k then n else cum.(i) in
              float_of_int (next - prev))
        in
        let noisy = cells ds ~epsilon counts g in
        let fn = float_of_int n in
        let acc = ref 0. and best = ref 0. in
        Planner.Vector
          (Array.init k (fun i ->
               acc := !acc +. Float.max 0. noisy.(i);
               let v = Dp_math.Numeric.clamp ~lo:0. ~hi:1. (!acc /. fn) in
               best := Float.max !best v;
               !best))
end

(* A column with ties (signed zeros among them), values on histogram bin
   edges and on (or beyond) both bounds, and a query of any face whose
   thresholds, cdf points and bin counts are drawn from the same pool. *)
let scan_case_gen =
  let open QCheck.Gen in
  let* lo, hi =
    oneofl [ (0., 1.); (-4., 4.); (18., 80.); (0., 200_000.); (-1e-3, 7.5) ]
  in
  let edge_bins = [ 1; 2; 3; 7; 10; 64 ] in
  let edges =
    List.concat_map
      (fun b ->
        List.init (b + 1) (fun k ->
            lo +. (float_of_int k *. (hi -. lo) /. float_of_int b)))
      edge_bins
  in
  let span = hi -. lo in
  let value =
    frequency
      [
        (3, float_range lo hi);
        (2, oneofl edges);
        (1, oneofl [ lo; hi; lo -. span; hi +. span; 0.; -0. ]);
      ]
  in
  let* rows = frequency [ (1, return 1); (4, int_range 2 40); (2, int_range 41 400) ] in
  let* pool = list_size (int_range 1 6) value in
  let* xs = array_size (return rows) (frequency [ (2, value); (1, oneofl pool) ]) in
  let* ys = array_size (return rows) value in
  let point = frequency [ (2, oneofl (Array.to_list xs)); (2, value) ] in
  let* column = oneofl [ "x"; "y" ] in
  let* query =
    oneof
      [
        return (Query.Count None);
        map2
          (fun op threshold ->
            Query.Count (Some { Query.column; op; threshold }))
          (oneofl [ Query.Le; Query.Lt; Query.Ge; Query.Gt ])
          point;
        return (Query.Sum { column });
        return (Query.Mean { column });
        map
          (fun bins -> Query.Histogram { column; bins })
          (frequency [ (2, oneofl edge_bins); (1, int_range 1 70) ]);
        map
          (fun q -> Query.Quantile { column; q })
          (frequency [ (1, oneofl [ 0.; 1. ]); (3, float_range 0. 1.) ]);
        map
          (fun points ->
            Query.Cdf
              { column; points = Array.of_list (List.sort_uniq compare points) })
          (list_size (int_range 1 6) point);
      ]
  in
  let* backend =
    oneofl [ Ledger.Basic; Ledger.Rdp { delta = 1e-3 }; Ledger.Rdp { delta = 1e-6 } ]
  in
  let* epsilon = oneofl [ 0.05; 0.5; 1.; 3. ] in
  let* seed = int_bound 1_000_000 in
  return (lo, hi, xs, ys, query, backend, epsilon, seed)

let print_scan_case (lo, hi, xs, ys, query, backend, epsilon, seed) =
  let floats a = String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  Format.asprintf "[%g,%g] x=[%s] y=[%s] %s backend=%a eps=%g seed=%d" lo hi
    (floats xs) (floats ys) (Query.normalize query) Ledger.pp_backend backend
    epsilon seed

let bit_identical a b =
  let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  match (a, b) with
  | Planner.Scalar x, Planner.Scalar y -> same x y
  | Planner.Vector xs, Planner.Vector ys ->
      Array.length xs = Array.length ys && Array.for_all2 same xs ys
  | _ -> false

let prop_release_matches_scan (lo, hi, xs, ys, query, backend, epsilon, seed) =
  let policy =
    {
      (Registry.default_policy ~total:(Privacy.approx ~epsilon:1e9 ~delta:0.5))
      with
      Registry.backend;
    }
  in
  let ds =
    Registry.dataset ~name:"scan" ~policy
      ~columns:
        [
          { Registry.name = "x"; values = xs; lo; hi };
          { Registry.name = "y"; values = ys; lo; hi };
        ]
  in
  match Planner.plan ds ~epsilon query with
  | Error msg -> QCheck.Test.fail_reportf "plan refused: %s" msg
  | Ok plan ->
      (* one release, then a second from the advanced state: the
         planner's closure must not consume draws the scan did not *)
      let g = Dp_rng.Prng.create seed and g' = Dp_rng.Prng.create seed in
      let a1 = plan.Planner.run g and b1 = Scan_reference.run ds plan.spec g' in
      let a2 = plan.Planner.run g and b2 = Scan_reference.run ds plan.spec g' in
      bit_identical a1 b1 && bit_identical a2 b2

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let qcheck_tests =
  let open QCheck in
  let ident_gen = Gen.oneofl [ "age"; "income"; "score"; "x" ] in
  let finite_float = Gen.map (fun x -> Float.of_int (int_of_float (x *. 1e4)) /. 1e4)
      (Gen.float_range (-1e6) 1e6)
  in
  let query_gen =
    Gen.oneof
      [
        Gen.return (Query.Count None);
        Gen.map3
          (fun column op threshold ->
            Query.Count (Some { Query.column; op; threshold }))
          ident_gen
          (Gen.oneofl [ Query.Le; Query.Lt; Query.Ge; Query.Gt ])
          finite_float;
        Gen.map (fun column -> Query.Sum { column }) ident_gen;
        Gen.map (fun column -> Query.Mean { column }) ident_gen;
        Gen.map2
          (fun column bins -> Query.Histogram { column; bins })
          ident_gen (Gen.int_range 1 1000);
        Gen.map2
          (fun column q -> Query.Quantile { column; q })
          ident_gen (Gen.float_range 0. 1.);
        Gen.map2
          (fun column points ->
            match Query.parse
                    (Printf.sprintf "cdf(%s,%s)" column
                       (String.concat ","
                          (List.map (Printf.sprintf "%.4f") points)))
            with
            | Ok q -> q
            | Error _ -> Query.Count None)
          ident_gen
          (Gen.list_size (Gen.int_range 1 6) (Gen.float_range (-100.) 100.));
      ]
  in
  [
    Test.make ~name:"planner release is bit-identical to a column scan"
      ~count:2000
      (make ~print:print_scan_case scan_case_gen)
      prop_release_matches_scan;
    Test.make ~name:"parse . normalize is the identity" ~count:500
      (make ~print:Query.normalize query_gen)
      (fun q ->
        match Query.parse (Query.normalize q) with
        | Ok q' -> Query.normalize q' = Query.normalize q
        | Error msg ->
            Test.fail_reportf "normal form %S does not reparse: %s"
              (Query.normalize q) msg);
    Test.make ~name:"ledger: spent + remaining = total (epsilon)" ~count:200
      (pair (float_range 0.5 5.)
         (list_of_size (Gen.int_range 0 30) (float_range 0.001 0.4)))
      (fun (total, epsilons) ->
        let t =
          Ledger.create ~total:(Privacy.pure total) ~backend:Ledger.Basic ()
        in
        List.iter
          (fun e ->
            ignore (Ledger.spend t { Ledger.budget = Privacy.pure e; rdp = None }))
          epsilons;
        let spent = (Ledger.spent t).Privacy.epsilon
        and remaining = (Ledger.remaining t).Privacy.epsilon in
        Dp_math.Numeric.approx_equal ~rel_tol:1e-9 ~abs_tol:1e-12 total
          (spent +. remaining)
        && spent <= total +. 1e-9);
    Test.make ~name:"ledger: can_afford agrees with spend" ~count:200
      (pair (float_range 0.2 2.)
         (list_of_size (Gen.int_range 1 15) (float_range 0.01 0.5)))
      (fun (total, epsilons) ->
        let t =
          Ledger.create ~total:(Privacy.pure total) ~backend:Ledger.Basic ()
        in
        List.for_all
          (fun e ->
            let c = { Ledger.budget = Privacy.pure e; rdp = None } in
            let afford = Ledger.can_afford t c in
            match Ledger.spend t c with
            | Ok () -> afford
            | Error _ -> not afford)
          epsilons);
    Test.make ~name:"advanced ledger never exceeds basic" ~count:100
      (list_of_size (Gen.int_range 1 25) (float_range 0.01 0.3))
      (fun epsilons ->
        let spend_all backend =
          let t =
            Ledger.create ~total:(Privacy.approx ~epsilon:100. ~delta:0.1)
              ~backend ()
          in
          List.iter
            (fun e ->
              ignore
                (Ledger.spend t { Ledger.budget = Privacy.pure e; rdp = None }))
            epsilons;
          (Ledger.spent t).Privacy.epsilon
        in
        spend_all (Ledger.Advanced { slack = 1e-6 }) <= spend_all Ledger.Basic +. 1e-12);
  ]

let () =
  Alcotest.run "dp_engine"
    [
      ( "query",
        [
          Alcotest.test_case "parse and normalize" `Quick test_query_parse;
        ] );
      ( "planner",
        [
          Alcotest.test_case "mechanism and sensitivity" `Quick
            test_planner_choices;
          Alcotest.test_case "registry refuses non-finite values" `Quick
            test_registry_refuses_non_finite;
          Alcotest.test_case "spec refuses non-finite thresholds" `Quick
            test_spec_refuses_non_finite;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "composition backends" `Quick test_ledger_backends;
          Alcotest.test_case "analyst sub-budgets" `Quick test_analyst_budgets;
        ] );
      ( "engine",
        [
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "refusals counted" `Quick test_refusals_counted;
          Alcotest.test_case "cache is free post-processing" `Quick
            test_cache_postprocessing;
          Alcotest.test_case "cache can be disabled" `Quick test_cache_disabled;
          Alcotest.test_case "replay matches marginals" `Quick
            test_replay_and_marginals;
          Alcotest.test_case "leakage meter" `Quick test_leakage_meter;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "line protocol" `Quick test_protocol;
          Alcotest.test_case "budget refusal shows delta" `Quick
            test_protocol_delta_refusal;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
