(* The comparison side of the serving scenario: the two-sample KS test
   over per-batch samples is pinned to reference values computed
   independently (D as the largest ECDF gap over the pooled points, p
   from the asymptotic Kolmogorov series with the effective-size
   correction), the verdict rules are exercised on both sides of the
   bound, failures are held to an absolute bound, and result files
   survive a JSON round trip. *)

open Servebench

let close ?(eps = 1e-4) msg want got = Alcotest.(check (float eps)) msg want got

let old_batches = [| 4012.; 3987.; 4051.; 3999.; 4023.; 3968.; 4040.; 4005.; 3991.; 4030. |]
let shifted = [| 3712.; 3690.; 3745.; 3701.; 3728.; 3660.; 3739.; 3708.; 3695.; 3720. |]
let overlapping = [| 3990.; 4060.; 4015.; 4080.; 3975.; 4045.; 4070.; 4002.; 4038.; 4066. |]

let ks_pinned () =
  let r = Dp_stats.Gof.ks_two_sample old_batches shifted in
  close "disjoint: statistic" 1.0 r.statistic;
  close ~eps:1e-7 "disjoint: p-value" 1.8879793657e-05 r.p_value;
  let r = Dp_stats.Gof.ks_two_sample old_batches overlapping in
  close "overlapping: statistic" 0.4 r.statistic;
  close "overlapping: p-value" 0.3128526760 r.p_value;
  Alcotest.(check bool) "one value, no test" true (Verdict.ks [| 1. |] old_batches = None)

let verdict = Alcotest.testable (fun fmt v -> Format.pp_print_string fmt (Verdict.verdict_name v)) ( = )

let decisions () =
  let decide better old_value new_value ks =
    Verdict.decide ~better ~bound:0.05 ~old_value ~new_value (Verdict.ks old_batches ks)
  in
  Alcotest.check verdict "inside the bound" Verdict.Same (decide Verdict.Higher 4010. 3900. shifted);
  Alcotest.check verdict "past the bound, samples overlap" Verdict.Unresolved
    (decide Verdict.Higher 4010. 3700. overlapping);
  Alcotest.check verdict "fewer req/s, samples separate" Verdict.Worse (decide Verdict.Higher 4010. 3700. shifted);
  Alcotest.check verdict "lower latency, samples separate" Verdict.Better (decide Verdict.Lower 0.5 0.4 shifted);
  Alcotest.check verdict "no test: past the bound is unresolved" Verdict.Unresolved
    (Verdict.decide ~better:Verdict.Lower ~bound:0.1 ~old_value:100. ~new_value:120. None);
  Alcotest.check verdict "absolute: from 0 past the bound" Verdict.Worse
    (Verdict.decide_absolute ~bound:0.001 ~old_value:0. ~new_value:0.0011);
  Alcotest.check verdict "absolute: from 0 within the bound" Verdict.Same
    (Verdict.decide_absolute ~bound:0.001 ~old_value:0. ~new_value:0.001)

let json_round_trip () =
  let doc =
    Json.Obj
      [
        ("seed", Json.Num 1.);
        ("p50_ms", Json.Num 0.428032);
        ("tiny", Json.Num 1.8879793657162556e-05);
        ("batches", Json.Arr [ Json.Num 4012.; Json.Num 3987.5 ]);
        ("name", Json.Str "query_fresh \"q\"\n");
        ("ok", Json.Bool true);
        ("none", Json.Null);
      ]
  in
  match Json.parse (Json.to_string doc) with
  | Ok back -> Alcotest.(check bool) "parse (to_string x) = x" true (back = doc)
  | Error msg -> Alcotest.fail msg

let compare_table () =
  let bench =
    Json.Obj
      [
        ( "end_to_end",
          Json.Arr
            [ Json.Obj [ ("name", Json.Str "req_per_s"); ("better", Json.Str "higher"); ("bound", Json.Num 0.05) ] ] );
      ]
  in
  let run ?(failed = 0.) value batches =
    Json.Obj
      [
        ("end_to_end", Json.Obj [ ("req_per_s", Json.Obj [ ("value", Json.Num value) ]) ]);
        ("batches", Json.Obj [ ("req_per_s", Json.Arr (List.map (fun x -> Json.Num x) batches)) ]);
        ("counts", Json.Obj [ ("ops_attempted", Json.Num 10000.); ("ops_failed", Json.Num failed) ]);
      ]
  in
  let result runs = Json.Obj [ ("workloads", Json.Obj [ ("query_fresh", Json.Obj [ ("runs", Json.Arr runs) ]) ]) ] in
  let old_result = result [ run 4010. (Array.to_list old_batches) ] in
  let lines, ok = Verdict.table ~bench ~old_result ~new_result:(result [ run 3710. (Array.to_list shifted) ]) in
  Alcotest.(check int) "a metric row and a fail_ratio row" 2 (List.length lines);
  Alcotest.(check bool) "a worse verdict fails the comparison" false ok;
  (* 11 failures in 20 000 attempts raise the pooled ratio by 0.00055 *)
  let same = run 4010. (Array.to_list old_batches) in
  let _, ok = Verdict.table ~bench ~old_result ~new_result:(result [ same; run ~failed:11. 4010. (Array.to_list old_batches) ]) in
  Alcotest.(check bool) "failures within the absolute bound pass" true ok;
  let _, ok = Verdict.table ~bench ~old_result ~new_result:(result [ same; run ~failed:21. 4010. (Array.to_list old_batches) ]) in
  Alcotest.(check bool) "failures past the absolute bound fail" false ok

let () =
  Alcotest.run "servebench"
    [
      ( "compare",
        [
          Alcotest.test_case "ks two-sample pinned" `Quick ks_pinned;
          Alcotest.test_case "verdicts" `Quick decisions;
          Alcotest.test_case "table" `Quick compare_table;
          Alcotest.test_case "json round trip" `Quick json_round_trip;
        ] );
    ]
