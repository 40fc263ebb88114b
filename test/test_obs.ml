(* Tests for the observability subsystem: log-bucketed histograms,
   metric registry, span tracing, the dump/parse wire format, and the
   engine integration — including the leakage-safety invariant that a
   metrics dump never carries query arguments or released values. *)

open Dp_engine
open Dp_mechanism
open Dp_obs

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let demo_policy ?(cache = true) () =
  {
    (Registry.default_policy ~total:(Privacy.pure 1.)) with
    Registry.cache;
    default_epsilon = 0.1;
  }

let demo_engine ?obs () =
  let eng = Engine.create ~seed:7 ?obs () in
  (match
     Engine.register_synthetic eng ~name:"demo" ~rows:500
       ~policy:(demo_policy ())
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "register_synthetic: %s" msg);
  eng

let submit_ok eng text =
  match Engine.submit_text eng ~dataset:"demo" text with
  | Ok r -> r
  | Error e -> Alcotest.failf "submit %S: %a" text Engine.pp_error e

(* ------------------------------------------------------------------ *)
(* Histograms *)

let test_histo_basics () =
  let h = Histo.create () in
  Alcotest.(check int) "empty count" 0 (Histo.count h);
  Alcotest.(check (float 0.)) "empty quantile" 0. (Histo.quantile h 0.5);
  List.iter (Histo.record h) [ 0; 1; 3; 100; 100_000; -5 ];
  Alcotest.(check int) "count" 6 (Histo.count h);
  Alcotest.(check int) "sum" 100_104 (Histo.sum h);
  Alcotest.(check int) "min clamps negatives" 0 (Histo.min_value h);
  Alcotest.(check int) "max" 100_000 (Histo.max_value h);
  Alcotest.(check (float 1e-9)) "mean" (100_104. /. 6.) (Histo.mean h);
  Alcotest.(check int)
    "bucket counts total the count" (Histo.count h)
    (Array.fold_left ( + ) 0 (Histo.buckets h));
  (* bucket b covers [2^b, 2^(b+1)): quantiles are within 2x truth *)
  let q = Histo.quantile h 1.0 in
  Alcotest.(check bool)
    "p100 within a factor of 2 of the true max" true
    (q >= 65536. && q <= 200_000.);
  Histo.reset h;
  Alcotest.(check int) "reset clears" 0 (Histo.count h);
  (* the bucket edges themselves, over the whole int range *)
  let bucket v =
    let h = Histo.create () in
    Histo.record h v;
    let b = ref (-1) in
    Array.iteri (fun i c -> if c > 0 then b := i) (Histo.buckets h);
    !b
  in
  for b = 1 to 61 do
    Alcotest.(check int) (Printf.sprintf "2^%d starts bucket %d" b b) b (bucket (1 lsl b));
    Alcotest.(check int) (Printf.sprintf "2^%d - 1 ends bucket %d" b (b - 1)) (b - 1)
      (bucket ((1 lsl b) - 1))
  done;
  Alcotest.(check int) "max_int in the last occupied bucket" 61 (bucket max_int)

let test_histo_export_roundtrip () =
  let h = Histo.create () in
  List.iter (Histo.record h) [ 1; 2; 7; 7; 4096; 123_456_789 ];
  let rebuilt =
    Histo.of_buckets ~count:(Histo.count h) ~sum:(Histo.sum h)
      ~min_v:(Histo.min_value h) ~max_v:(Histo.max_value h) (Histo.nonzero h)
  in
  Alcotest.(check bool) "of_buckets inverts nonzero" true (Histo.equal h rebuilt)

(* The three seeded properties from the issue, as qcheck tests. *)
let qcheck_tests =
  let open QCheck in
  let obs_list = list_of_size (Gen.int_range 0 200) (int_bound 1_000_000) in
  let of_list vs =
    let h = Histo.create () in
    List.iter (Histo.record h) vs;
    h
  in
  [
    Test.make ~name:"histo: bucket counts sum to count" ~count:300 obs_list
      (fun vs ->
        let h = of_list vs in
        Array.fold_left ( + ) 0 (Histo.buckets h) = Histo.count h
        && Histo.count h = List.length vs);
    Test.make ~name:"histo: quantile is monotone in q" ~count:300
      (pair obs_list (list_of_size (Gen.int_range 2 10) (float_range 0. 1.)))
      (fun (vs, qs) ->
        let h = of_list vs in
        let sorted = List.sort compare qs in
        let est = List.map (Histo.quantile h) sorted in
        let rec mono = function
          | a :: (b :: _ as rest) -> a <= b && mono rest
          | _ -> true
        in
        mono est);
    Test.make ~name:"histo: merge equals the concatenated stream" ~count:300
      (pair obs_list obs_list) (fun (a, b) ->
        Histo.equal (Histo.merge (of_list a) (of_list b)) (of_list (a @ b)));
  ]

(* ------------------------------------------------------------------ *)
(* Metric registry *)

let test_metrics_counters () =
  let m = Metrics.create () in
  let g = Metrics.global m in
  let d = Metrics.dataset m "demo" in
  Metrics.incr g Name.Journal_appends;
  Metrics.add g Name.Journal_appends 4;
  Metrics.incr d Name.Queries_answered;
  Alcotest.(check int) "global counter" 5 (Metrics.count g Name.Journal_appends);
  Alcotest.(check int)
    "scopes are isolated" 0
    (Metrics.count d Name.Journal_appends);
  Metrics.set_counter d Name.Queries_answered 42;
  Alcotest.(check int)
    "set_counter overwrites" 42
    (Metrics.count d Name.Queries_answered);
  Metrics.set_gauge d Name.Eps_remaining 0.75;
  Alcotest.(check (float 0.)) "gauge" 0.75 (Metrics.gauge d Name.Eps_remaining);
  Metrics.observe d Name.Plan_ns 1000;
  Metrics.observe d Name.Plan_ns 3000;
  Alcotest.(check int)
    "latency histogram fed" 2
    (Histo.count (Metrics.latency d Name.Plan_ns));
  Alcotest.(check bool)
    "dataset scope listed after global" true
    (List.map Metrics.label (Metrics.scopes m) = [ ""; "demo" ])

let test_metrics_disabled () =
  let m = Metrics.create ~enabled:false () in
  let d = Metrics.dataset m "demo" in
  Metrics.incr d Name.Queries_answered;
  Metrics.set_gauge d Name.Eps_remaining 1.;
  Metrics.observe d Name.Plan_ns 99;
  Alcotest.(check int) "counter no-op" 0 (Metrics.count d Name.Queries_answered);
  Alcotest.(check (float 0.)) "gauge no-op" 0. (Metrics.gauge d Name.Eps_remaining);
  Alcotest.(check int)
    "observe no-op" 0
    (Histo.count (Metrics.latency d Name.Plan_ns));
  Metrics.incr Metrics.null Name.Queries_answered;
  Alcotest.(check int)
    "null sink drops records" 0
    (Metrics.count Metrics.null Name.Queries_answered)

(* ------------------------------------------------------------------ *)
(* Span tracing *)

let test_span_nesting () =
  let t = Span.create () in
  let result =
    Span.with_ t ~dataset:"demo" Name.Sp_submit (fun () ->
        Span.with_ t ~dataset:"demo" Name.Sp_plan (fun () -> ());
        Span.with_ t ~dataset:"demo" Name.Sp_noise (fun () -> 17))
  in
  Alcotest.(check int) "with_ returns the body's value" 17 result;
  Alcotest.(check int) "depth unwinds to 0" 0 (Span.current_depth t);
  match Span.spans t with
  | [ plan; noise; submit ] ->
      (* children finish (and are stored) before their parent *)
      Alcotest.(check string) "inner first" "plan" (Name.span_name plan.Span.name);
      Alcotest.(check string) "then noise" "noise" (Name.span_name noise.Span.name);
      Alcotest.(check string) "parent last" "submit"
        (Name.span_name submit.Span.name);
      Alcotest.(check int) "child depth" 1 plan.Span.depth;
      Alcotest.(check int) "parent depth" 0 submit.Span.depth;
      Alcotest.(check bool) "durations non-negative" true
        (List.for_all (fun s -> s.Span.dur_ns >= 0) [ plan; noise; submit ])
  | l -> Alcotest.failf "expected 3 spans, got %d" (List.length l)

let test_span_ring_and_budget () =
  let t = Span.create ~capacity:4 () in
  for i = 1 to 10 do
    let h = Span.begin_ t ~dataset:"demo" Name.Sp_plan in
    Span.tag t h Name.T_attempts (float_of_int i);
    Span.end_ t h
  done;
  Alcotest.(check int) "ring keeps capacity" 4 (List.length (Span.spans t));
  Alcotest.(check int) "total counts all" 10 (Span.total t);
  Alcotest.(check int) "dropped = total - capacity" 6 (Span.dropped t);
  let oldest = List.hd (Span.spans t) in
  Alcotest.(check (list (pair string (float 0.))))
    "oldest surviving span is #7"
    [ ("attempts", 7.) ]
    (List.map (fun (k, v) -> (Name.tag_name k, v)) oldest.Span.tags);
  (* tag budget: excess tags are dropped and counted *)
  let h = Span.begin_ t Name.Sp_recovery in
  for _ = 1 to Span.tag_budget + 3 do
    Span.tag t h Name.T_records 1.
  done;
  Span.end_ t h;
  Alcotest.(check int) "excess tags dropped" 3 (Span.dropped_tags t);
  let last = List.nth (Span.spans t) 3 in
  Alcotest.(check int)
    "span keeps exactly the budget" Span.tag_budget
    (List.length last.Span.tags)

(* Spans can take the timestamps a caller already read for its latency
   histogram; ending a span closes a child an exception left open. *)
let test_span_supplied_times () =
  let t = Span.create () in
  let h = Span.begin_at t ~dataset:"demo" Name.Sp_submit 1_000 in
  ignore (Span.begin_at t ~dataset:"demo" Name.Sp_plan 1_100);
  Span.tag t h Name.T_cache_hit 1.;
  Span.end_at t h ~dur_ns:500;
  Alcotest.(check int) "abandoned child closed" 0 (Span.current_depth t);
  match Span.spans t with
  | [ s ] ->
      Alcotest.(check string) "only the parent stored" "submit"
        (Name.span_name s.Span.name);
      Alcotest.(check (pair int int)) "supplied start and duration" (1_000, 500)
        (s.Span.start_ns, s.Span.dur_ns);
      Alcotest.(check int) "one tag" 1 (List.length s.Span.tags)
  | l -> Alcotest.failf "expected 1 span, got %d" (List.length l)

let test_span_disabled () =
  let t = Span.create ~enabled:false () in
  Span.with_ t Name.Sp_submit (fun () -> ());
  let h = Span.begin_ t Name.Sp_plan in
  Span.tag t h Name.T_attempts 1.;
  Span.end_ t h;
  Alcotest.(check int) "disabled tracer stores nothing" 0 (Span.total t);
  Alcotest.(check int) "no spans" 0 (List.length (Span.spans t))

(* ------------------------------------------------------------------ *)
(* Clock *)

let test_clock_monotone () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  let c = Clock.now_ns () in
  Alcotest.(check bool) "non-decreasing" true (a <= b && b <= c);
  Alcotest.(check bool) "elapsed non-negative" true (Clock.elapsed_ns a >= 0)

(* The raw source (gettimeofday, absent clock_gettime in the 4.14
   stdlib) can step backwards under NTP. The guarded integrator must
   absorb the step — contribute zero, never rewind — and resume
   advancing with the next forward delta. *)
let test_clock_backwards_step () =
  let raws = ref [ 1000; 900; 950; 975 ] in
  Clock.set_raw_ns_for_tests
    (Some
       (fun () ->
         match !raws with
         | [] -> 975
         | r :: rest ->
             raws := rest;
             r));
  Fun.protect
    ~finally:(fun () -> Clock.set_raw_ns_for_tests None)
    (fun () ->
      let t0 = Clock.now_ns () in
      let t1 = Clock.now_ns () in
      let t2 = Clock.now_ns () in
      let t3 = Clock.now_ns () in
      Alcotest.(check int) "backwards step contributes zero" t0 t1;
      Alcotest.(check int) "resumes on the next forward delta" (t0 + 50) t2;
      Alcotest.(check int) "keeps integrating" (t0 + 75) t3);
  (* back on the real source: the transition is absorbed as one more
     step, so the reading stays monotone *)
  let t4 = Clock.now_ns () in
  let t5 = Clock.now_ns () in
  Alcotest.(check bool) "monotone across source swap" true (t4 <= t5)

(* ------------------------------------------------------------------ *)
(* Dump / parse wire format *)

let test_export_roundtrip () =
  let m = Metrics.create () in
  let t = Span.create () in
  let d = Metrics.dataset m "demo" in
  Metrics.incr d Name.Queries_answered;
  Metrics.set_gauge d Name.Eps_remaining 0.875;
  Metrics.observe d Name.Submit_ns 1234;
  Span.with_ t ~dataset:"demo" Name.Sp_submit (fun () -> ());
  let lines = Export.dump ~trace:t m in
  Alcotest.(check string) "header line" Export.header (List.hd lines);
  let entries =
    match Export.parse lines with
    | Ok es -> es
    | Error msg -> Alcotest.failf "parse: %s" msg
  in
  let count_of = function
    | Export.Counter { scope = "demo"; name = "queries_answered"; value } ->
        Some value
    | _ -> None
  in
  Alcotest.(check (option int))
    "counter survives the roundtrip" (Some 1)
    (List.find_map count_of entries);
  let gauge_of = function
    | Export.Gauge { scope = "demo"; name = "eps_remaining"; value } ->
        Some value
    | _ -> None
  in
  Alcotest.(check (option (float 0.)))
    "gauge survives bit-exactly" (Some 0.875)
    (List.find_map gauge_of entries);
  (match
     List.find_map
       (function
         | Export.Latency { scope = "demo"; name = "submit_ns"; count; sum; _ }
           ->
             Some (count, sum)
         | _ -> None)
       entries
   with
  | Some (c, s) ->
      Alcotest.(check (pair int int)) "latency count/sum" (1, 1234) (c, s)
  | None -> Alcotest.fail "submit_ns latency line missing");
  (match
     List.find_map
       (function
         | Export.Span { scope = "demo"; name = "submit"; depth; _ } ->
             Some depth
         | _ -> None)
       entries
   with
  | Some depth -> Alcotest.(check int) "span line parsed" 0 depth
  | None -> Alcotest.fail "span line missing");
  (* renderers accept everything the parser produced *)
  Alcotest.(check bool)
    "pretty renders" true
    (List.length (Export.pretty entries) > 0);
  Alcotest.(check bool)
    "json renders" true
    (contains ~sub:"\"version\":1" (Export.to_json entries))

let test_export_rejects_garbage () =
  (match Export.parse [ "not-the-header" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a dump without the version header");
  match Export.parse_line "frobnicate demo x 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an unknown entry kind"

(* ------------------------------------------------------------------ *)
(* Engine integration *)

let test_engine_metrics_agree_with_report () =
  let eng = demo_engine () in
  ignore (submit_ok eng "count");
  ignore (submit_ok eng "mean(income)");
  ignore (submit_ok eng "count") (* cache hit *);
  (match Engine.submit_text eng ~dataset:"nope" "count" with
  | Error (Engine.Unknown_dataset _) -> ()
  | _ -> Alcotest.fail "unknown dataset must be rejected");
  Engine.refresh_metrics eng;
  let d = Metrics.dataset (Engine.metrics eng) "demo" in
  let report =
    match Engine.report eng ~dataset:"demo" with
    | Ok r -> r
    | Error e -> Alcotest.failf "report: %a" Engine.pp_error e
  in
  Alcotest.(check int)
    "answered counter mirrors the report" report.Engine.answered
    (Metrics.count d Name.Queries_answered);
  Alcotest.(check int)
    "cache hits mirror the report" report.Engine.cache_hits
    (Metrics.count d Name.Cache_hits);
  Alcotest.(check (float 1e-12))
    "eps_spent gauge mirrors the ledger" report.Engine.spent.Privacy.epsilon
    (Metrics.gauge d Name.Eps_spent);
  Alcotest.(check (float 1e-12))
    "eps_remaining gauge mirrors the ledger"
    report.Engine.remaining.Privacy.epsilon
    (Metrics.gauge d Name.Eps_remaining);
  (* the two uncached submits each drew noise *)
  let g = Metrics.global (Engine.metrics eng) in
  let draws =
    Array.fold_left
      (fun acc c -> acc + Metrics.count g c)
      0
      [| Name.Draws_laplace; Name.Draws_geometric; Name.Draws_gaussian;
         Name.Draws_discrete_gaussian; Name.Draws_exponential;
         Name.Draws_randomized_response |]
  in
  Alcotest.(check bool) "noise draws counted" true (draws >= 2);
  Alcotest.(check int)
    "submit latency observed per submit" 3
    (Histo.count (Metrics.latency d Name.Submit_ns));
  (* spans: every submit opened one, cache hit included *)
  let submits =
    List.filter
      (fun s -> s.Span.name = Name.Sp_submit)
      (Span.spans (Engine.trace eng))
  in
  Alcotest.(check int) "one submit span per submit" 3 (List.length submits)

let test_engine_obs_off () =
  let eng = demo_engine ~obs:false () in
  ignore (submit_ok eng "count");
  Engine.refresh_metrics eng;
  let d = Metrics.dataset (Engine.metrics eng) "demo" in
  Alcotest.(check int)
    "disabled registry stays empty" 0
    (Metrics.count d Name.Queries_answered);
  Alcotest.(check int)
    "disabled tracer stays empty" 0
    (Span.total (Engine.trace eng));
  match Export.parse (Engine.metrics_lines eng) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "disabled dump must still parse: %s" msg

(* Spans and histograms are meant to allocate nothing, so an uncached
   submit allocates exactly as many minor words with observability on
   as off. Allocation is deterministic where the timed overhead gate
   (bench/main.exe --overhead) is not. *)
let test_obs_allocates_nothing () =
  let words_per_submit obs =
    let eng = Engine.create ~seed:11 ~audit:false ~obs () in
    let policy =
      {
        (Registry.default_policy ~total:(Privacy.pure 1e12)) with
        Registry.default_epsilon = 1e-4;
        cache = false;
      }
    in
    (match Engine.register_synthetic eng ~name:"demo" ~rows:1000 ~policy with
    | Ok _ -> ()
    | Error msg -> Alcotest.failf "register_synthetic: %s" msg);
    for _ = 1 to 50 do ignore (submit_ok eng "count(age>40)") done;
    let before = Gc.minor_words () in
    for _ = 1 to 2000 do ignore (submit_ok eng "count(age>40)") done;
    (Gc.minor_words () -. before) /. 2000.
  in
  let off = words_per_submit false in
  Alcotest.(check (float 0.))
    "minor words per uncached submit, obs on = obs off" off
    (words_per_submit true)

let test_closed_labels () =
  let eng = demo_engine () in
  ignore (submit_ok eng "count(income>50000)");
  ignore (submit_ok eng "quantile(income,0.5)");
  let lines = Engine.metrics_lines eng in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        "no query column name in the dump" false
        (contains ~sub:"income" line);
      Alcotest.(check bool)
        "no query argument in the dump" false
        (contains ~sub:"50000" line))
    lines;
  let entries =
    match Export.parse lines with
    | Ok es -> es
    | Error msg -> Alcotest.failf "parse: %s" msg
  in
  List.iter
    (fun e ->
      let ok, name =
        match e with
        | Export.Counter { name; _ } -> (Name.is_counter_name name, name)
        | Export.Gauge { name; _ } -> (Name.is_gauge_name name, name)
        | Export.Latency { name; _ } -> (Name.is_latency_name name, name)
        | Export.Span { name; tags; _ } ->
            ( Name.is_span_name name
              && List.for_all (fun (k, _) -> Name.is_tag_name k) tags,
              name )
      in
      if not ok then Alcotest.failf "name %S is outside the closed catalogue" name;
      let scope =
        match e with
        | Export.Counter { scope; _ }
        | Export.Gauge { scope; _ }
        | Export.Latency { scope; _ }
        | Export.Span { scope; _ } ->
            scope
      in
      if not (scope = "" || scope = "demo") then
        Alcotest.failf "scope %S is not global or a dataset id" scope)
    entries

let test_protocol_metrics () =
  let eng = demo_engine () in
  ignore (submit_ok eng "count");
  let reply = Protocol.exec eng "metrics" in
  (match reply with
  | ok :: rest ->
      Alcotest.(check bool) "ok header" true (contains ~sub:"ok metrics" ok);
      Alcotest.(check bool)
        "lines= count matches body" true
        (contains ~sub:(Printf.sprintf "lines=%d" (List.length rest)) ok);
      (* the indented body parses back as a dump *)
      (match Export.parse (List.map String.trim rest) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "protocol dump must parse: %s" msg)
  | [] -> Alcotest.fail "metrics reply empty");
  let status = Protocol.exec eng "status" in
  Alcotest.(check bool)
    "status carries hit-rate" true
    (List.exists (contains ~sub:"hit-rate=") status);
  Alcotest.(check bool)
    "status carries remaining eps" true
    (List.exists (contains ~sub:"eps-remaining=") status)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dp_obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_histo_basics;
          Alcotest.test_case "export roundtrip" `Quick
            test_histo_export_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and gauges" `Quick test_metrics_counters;
          Alcotest.test_case "disabled registry" `Quick test_metrics_disabled;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "ring and tag budget" `Quick
            test_span_ring_and_budget;
          Alcotest.test_case "supplied times" `Quick test_span_supplied_times;
          Alcotest.test_case "disabled tracer" `Quick test_span_disabled;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotone" `Quick test_clock_monotone;
          Alcotest.test_case "backwards raw step" `Quick
            test_clock_backwards_step;
        ] );
      ( "export",
        [
          Alcotest.test_case "dump/parse roundtrip" `Quick test_export_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick
            test_export_rejects_garbage;
        ] );
      ( "engine",
        [
          Alcotest.test_case "metrics agree with report" `Quick
            test_engine_metrics_agree_with_report;
          Alcotest.test_case "obs off" `Quick test_engine_obs_off;
          Alcotest.test_case "obs allocates nothing" `Quick
            test_obs_allocates_nothing;
          Alcotest.test_case "closed labels" `Quick test_closed_labels;
          Alcotest.test_case "protocol metrics+status" `Quick
            test_protocol_metrics;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
