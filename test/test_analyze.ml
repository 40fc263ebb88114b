(* The static analyzer's contract: `dpkit analyze` must price a
   workload bit-identically to a live serving run — same per-query
   charges, same composed totals — while never touching column data.
   These tests run the same workload through Engine.submit (live) and
   Analyzer.analyze (static) under all three composition backends and
   compare the float bits of the spent budgets. *)

open Dp_mechanism
module A = Dp_engine.Analyzer
module E = Dp_engine.Engine
module Registry = Dp_engine.Registry
module Ledger = Dp_engine.Ledger
module Planner = Dp_engine.Planner
module Query = Dp_engine.Query

let workload =
  [
    ("count", None);
    ("count(age>=65)", Some 0.05);
    ("mean(income)", Some 0.2);
    ("histogram(age,8)", Some 0.2);
    ("quantile(income,0.5)", Some 0.1);
    ("cdf(score,-1,0,1)", Some 0.15);
    ("sum(score)", Some 0.05);
  ]

let items () =
  List.map
    (fun (text, eps) ->
      match Query.parse text with
      | Ok q -> A.Stat { text; query = q; epsilon = eps }
      | Error e -> Alcotest.failf "parse %s: %s" text e)
    workload

let policy backend =
  {
    (Registry.default_policy ~total:(Privacy.approx ~epsilon:10. ~delta:1e-6))
    with
    backend;
  }

(* The synthetic dataset's schema, written down independently — the
   analyzer must price from bounds alone, never from values. *)
let schema backend =
  match
    Registry.schema ~name:"d" ~rows:500 ~policy:(policy backend)
      [
        { Registry.col = "age"; lo = 18.; hi = 80. };
        { Registry.col = "income"; lo = 0.; hi = 200_000. };
        { Registry.col = "score"; lo = -4.; hi = 4. };
      ]
  with
  | Ok s -> s
  | Error e -> Alcotest.fail e

let live_spent backend =
  let eng = E.create ~seed:7 () in
  (match E.register_synthetic eng ~name:"d" ~rows:500 ~policy:(policy backend) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  List.iter
    (fun (text, eps) ->
      match E.submit_text eng ?epsilon:eps ~dataset:"d" text with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "submit %s: %a" text E.pp_error e)
    workload;
  match E.report eng ~dataset:"d" with
  | Ok r -> r.E.spent
  | Error e -> Alcotest.failf "report: %a" E.pp_error e

let static_report backend =
  match A.analyze (schema backend) (items ()) with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let bits = Int64.bits_of_float

let check_bits what a b =
  Alcotest.(check int64) (what ^ " epsilon bits") (bits a.Privacy.epsilon)
    (bits b.Privacy.epsilon);
  Alcotest.(check int64) (what ^ " delta bits") (bits a.Privacy.delta)
    (bits b.Privacy.delta)

let test_bit_exact backend () =
  let live = live_spent backend in
  let r = static_report backend in
  Alcotest.(check bool) "verdict PASS" true r.A.pass;
  Alcotest.(check int) "all accepted" (List.length workload) r.A.accepted;
  check_bits "static vs live spent" live r.A.spent

(* Ledger.preview is the one-call form of the same odometer: feeding it
   the specs' charges must reproduce the live spent exactly. *)
let test_preview backend () =
  let s = schema backend in
  let charges =
    List.map
      (fun (it : A.item) ->
        match it with
        | A.Train _ | A.Stream _ -> Alcotest.fail "stat workload only"
        | A.Stat { query; epsilon; _ } -> (
            let eps =
              Option.value epsilon ~default:s.Registry.policy.default_epsilon
            in
            match Planner.spec s ~epsilon:eps query with
            | Ok sp -> sp.Planner.charge
            | Error e -> Alcotest.fail e))
      (items ())
  in
  let previewed =
    Ledger.preview ~total:s.Registry.policy.total ~backend charges
  in
  check_bits "preview vs live spent" (live_spent backend) previewed

(* The analyzer reports all three composed totals; each must equal the
   live total under a policy using that backend (same workload, same
   per-backend mechanism selection). *)
let test_composed_cross_backend () =
  let r = static_report Ledger.Basic in
  List.iter
    (fun (c : A.composed) -> check_bits "composed" (live_spent c.A.backend) c.A.spent)
    r.A.composed

let test_spec_is_static () =
  (* A schema with column bounds but an absurd row count still prices:
     nothing reads values. *)
  let s = schema Ledger.Basic in
  let s = { s with Registry.rows = 1_000_000_000 } in
  match Planner.spec s ~epsilon:0.1 (Query.Mean { column = "income" }) with
  | Error e -> Alcotest.fail e
  | Ok sp ->
      Alcotest.(check (float 0.)) "mean sensitivity scales with rows"
        (200_000. /. 1e9) sp.Planner.sensitivity

let test_parse_schema () =
  let text =
    "# demo\ndataset d rows=10 eps=2 backend=advanced slack=0.01\n\
     column age lo=0 hi=99\n"
  in
  (match A.parse_schema text with
  | Error e -> Alcotest.fail e
  | Ok s ->
      Alcotest.(check string) "name" "d" s.Registry.name;
      Alcotest.(check int) "rows" 10 s.Registry.rows;
      (match s.Registry.policy.backend with
      | Ledger.Advanced { slack } ->
          Alcotest.(check (float 0.)) "slack" 0.01 slack
      | _ -> Alcotest.fail "expected advanced backend"));
  (match A.parse_schema "dataset d rows=0\ncolumn a lo=0 hi=1\n" with
  | Ok _ -> Alcotest.fail "rows=0 accepted"
  | Error e ->
      Alcotest.(check bool) "error cites line 1" true
        (String.length e >= 7 && String.sub e 0 7 = "line 1:"));
  match A.parse_schema "column a lo=1 hi=0\n" with
  | Ok _ -> Alcotest.fail "lo>hi accepted"
  | Error _ -> ()

(* A schema is refused exactly when `register` would refuse its line,
   with the same reason, and the refusal is a value: neither parsing nor
   pricing raises. *)
let test_schema_refuses_policy () =
  List.iter
    (fun (name, opts) ->
      let text =
        Printf.sprintf "dataset %s %s\ncolumn age lo=18 hi=80\n" name opts
      in
      match A.parse_schema text with
      | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "%S: %s" opts e)
            true
            (String.starts_with ~prefix:"line 1: bad-argument " e)
      | Ok s -> (
          match A.analyze s (items ()) with
          | _ -> Alcotest.failf "schema %S admitted" opts
          | exception e ->
              Alcotest.failf "schema %S admitted, then analyze raised %s" opts
                (Printexc.to_string e))
      | exception e ->
          Alcotest.failf "parse_schema %S raised %s" opts (Printexc.to_string e))
    [
      ("d", "backend=advanced slack=2");
      ("d", "backend=rdp delta=2");
      ("d", "delta=2");
      ("d", "universe=1");
      ("d", "universe=0");
      ("d", "default-eps=0");
      ("seven~flip9", "rows=7");
    ]

let test_parse_workload () =
  (match A.parse_workload "# w\ncount eps=0.5\nmean(income)\n" with
  | Error e -> Alcotest.fail e
  | Ok [ A.Stat a; A.Stat b ] ->
      Alcotest.(check string) "q1" "count" (Query.normalize a.query);
      Alcotest.(check (option (float 0.))) "q1 eps" (Some 0.5) a.epsilon;
      Alcotest.(check (option (float 0.))) "q2 default" None b.epsilon
  | Ok l -> Alcotest.failf "expected 2 stat items, got %d" (List.length l));
  (match A.parse_workload "train target=score eps=0.2 chains=2\n" with
  | Ok [ A.Train { train_opts; _ } ] ->
      Alcotest.(check (option (option string)))
        "target parsed" (Some (Some "score"))
        (List.assoc_opt "target" train_opts)
  | Ok _ -> Alcotest.fail "expected one train item"
  | Error e -> Alcotest.fail e);
  match A.parse_workload "train bogus=1\n" with
  | Ok _ -> Alcotest.fail "unknown train option accepted"
  | Error e ->
      Alcotest.(check bool) "error cites line 1" true
        (String.length e >= 7 && String.sub e 0 7 = "line 1:")

(* A workload that overdraws must FAIL with the tail rejected, and the
   rejected rows must charge nothing — exactly like the live gate. *)
let test_overdraft_fail () =
  let s =
    match
      Registry.schema ~name:"d" ~rows:100
        ~policy:(Registry.default_policy ~total:(Privacy.pure 0.25))
        [ { Registry.col = "age"; lo = 0.; hi = 99. } ]
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let items =
    List.map
      (fun text ->
        match Query.parse text with
        | Ok q -> A.Stat { text; query = q; epsilon = Some 0.1 }
        | Error e -> Alcotest.fail e)
      [ "count"; "sum(age)"; "mean(age)"; "count(age>=50)" ]
  in
  match A.analyze s items with
  | Error e -> Alcotest.fail e
  | Ok r ->
      Alcotest.(check bool) "FAIL" false r.A.pass;
      Alcotest.(check int) "accepted" 2 r.A.accepted;
      Alcotest.(check int) "rejected" 2 r.A.rejected;
      Alcotest.(check (float 0.)) "spent stops at gate" 0.2
        r.A.spent.Privacy.epsilon;
      List.iter
        (fun (row : A.row) ->
          if not row.accepted then
            Alcotest.(check (float 0.)) "rejected row charges nothing" 0.
              row.A.marginal.Privacy.epsilon)
        r.A.rows

let () =
  let backends =
    [
      ("basic", Ledger.Basic);
      ("advanced", Ledger.Advanced { slack = 1e-5 });
      ("rdp", Ledger.Rdp { delta = 1e-6 });
    ]
  in
  Alcotest.run "analyze"
    [
      ( "bit-exact",
        List.map
          (fun (n, b) ->
            Alcotest.test_case ("static = live, " ^ n) `Quick
              (test_bit_exact b))
          backends );
      ( "preview",
        List.map
          (fun (n, b) ->
            Alcotest.test_case ("preview = live, " ^ n) `Quick (test_preview b))
          backends );
      ( "cross-backend",
        [
          Alcotest.test_case "all composed totals match live" `Quick
            test_composed_cross_backend;
        ] );
      ( "static",
        [ Alcotest.test_case "spec never reads values" `Quick test_spec_is_static ] );
      ( "parsing",
        [
          Alcotest.test_case "schema files" `Quick test_parse_schema;
          Alcotest.test_case "schema refused as register is" `Quick
            test_schema_refuses_policy;
          Alcotest.test_case "workload files" `Quick test_parse_workload;
        ] );
      ( "verdict",
        [ Alcotest.test_case "overdraft FAILs" `Quick test_overdraft_fail ] );
    ]
