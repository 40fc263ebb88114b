(* Served private learning: the train query class end to end. The
   contracts under test are the ISSUE's acceptance gates — the
   convergence gate decides release vs withhold, handles are durable
   and recoverable bit-identically, prediction is free post-processing,
   and the static analyzer prices a train workload float-bit-identical
   to a live run. *)

open Dp_mechanism
open Dp_engine
module Train = Dp_train.Train
module Gates = Dp_train.Gates
module Model_store = Dp_train.Model_store
module A = Analyzer

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let ok_r label = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "%s: %s" label (Format.asprintf "%a" Engine.pp_error e)

let params opts =
  match Train.params_of_opts ~default_epsilon:0.1 opts with
  | Ok p -> p
  | Error e -> Alcotest.fail e

let policy ?(epsilon = 10.) () =
  Registry.default_policy ~total:(Privacy.approx ~epsilon ~delta:1e-6)

let fresh ?(seed = 42) ?policy:(p = policy ()) () =
  let eng = Engine.create ~seed () in
  (match Engine.register_synthetic eng ~name:"d" ~rows:400 ~policy:p with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  eng

let spent eng =
  (ok_r "report" (Engine.report eng ~dataset:"d")).Engine.spent

let bits = Int64.bits_of_float

(* A raw point in the synthetic schema's feature order (age, income —
   score is the default target). *)
let point = [| 40.; 50_000. |]

(* Objective perturbation: deterministic gate, so the handle lifecycle
   can be tested without betting on chain mixing. *)
let objpert eps = params [ ("backend", Some "objpert"); ("eps", Some eps) ]

(* Gibbs with a frozen proposal: the chains never leave their
   overdispersed initial points, so split-Rhat is infinite and the gate
   must withhold — deterministically. *)
let frozen eps =
  params
    [
      ("eps", Some eps); ("steps", Some "16"); ("burn", Some "0");
      ("step-std", Some "1e-12");
    ]

(* --- params --------------------------------------------------------- *)

let test_params_validation () =
  let bad opts msg =
    match Train.params_of_opts ~default_epsilon:0.1 opts with
    | Ok _ -> Alcotest.failf "accepted: %s" msg
    | Error _ -> ()
  in
  bad [ ("eps", Some "0") ] "eps=0";
  bad [ ("eps", Some "-1") ] "negative eps";
  bad [ ("steps", Some "7") ] "steps below the split minimum";
  bad [ ("chains", Some "1") ] "single gibbs chain (gate needs >= 2)";
  bad [ ("backend", Some "objpert"); ("chains", Some "2") ] "objpert chains<>1";
  bad [ ("backend", Some "sgd") ] "unknown backend";
  bad [ ("rhat-max", Some "0.9") ] "rhat-max < 1";
  let p = params [] in
  Alcotest.(check int) "gibbs default chains" 2 p.Train.chains;
  Alcotest.(check string) "default target" "score" p.Train.target;
  let p = objpert "0.5" in
  Alcotest.(check int) "objpert chains" 1 p.Train.chains

let test_spec_pricing () =
  (* the ledger ask: chains * eps for Gibbs, eps for objpert — from
     schema facts only *)
  let cols = [ "age"; "income"; "score" ] in
  let p = params [ ("eps", Some "0.3"); ("chains", Some "4") ] in
  let sp = ok (Train.spec ~rows:400 ~cols p) in
  Alcotest.(check int64) "gibbs face = chains * eps" (bits 1.2)
    (bits sp.Train.face.Privacy.epsilon);
  Alcotest.(check (float 0.)) "pure dp" 0. sp.Train.face.Privacy.delta;
  let sp = ok (Train.spec ~rows:400 ~cols (objpert "0.3")) in
  Alcotest.(check int64) "objpert face = eps" (bits 0.3)
    (bits sp.Train.face.Privacy.epsilon);
  (match Train.spec ~rows:400 ~cols (params [ ("target", Some "zip") ]) with
  | Ok _ -> Alcotest.fail "unknown target accepted"
  | Error _ -> ());
  match Train.spec ~rows:400 ~cols:[ "score" ] (params []) with
  | Ok _ -> Alcotest.fail "no-feature schema accepted"
  | Error _ -> ()

(* --- gate ----------------------------------------------------------- *)

let lcg_chain seed n d =
  let s = ref (seed land 0x3FFFFFFF) in
  Array.init n (fun _ ->
      Array.init d (fun _ ->
          s := ((!s * 1103515245) + 12345) land 0x3FFFFFFF;
          (float_of_int !s /. float_of_int 0x3FFFFFFF) -. 0.5))

let test_gate_thresholds () =
  (* well-mixed deterministic chains pass both thresholds *)
  let good = [| lcg_chain 1 256 3; lcg_chain 7 256 3 |] in
  let r = Gates.check ~rhat_max:1.1 ~ess_min:20. good in
  Alcotest.(check bool) "mixed chains converge" true (Gates.converged r);
  Alcotest.(check int) "per-coordinate verdicts" 3 (Array.length r.Gates.coords);
  (* the same chains against an unattainable ESS threshold withhold *)
  let r = Gates.check ~rhat_max:1.1 ~ess_min:1e9 good in
  Alcotest.(check bool) "ess threshold binds" false (Gates.converged r);
  (* frozen disagreeing chains: infinite Rhat, withheld *)
  let stuck =
    [| Array.make 64 [| 0.; 0. |]; Array.make 64 [| 1.; 1. |] |]
  in
  let r = Gates.check ~rhat_max:1.1 ~ess_min:1. stuck in
  Alcotest.(check bool) "stuck chains withheld" false (Gates.converged r);
  Alcotest.(check bool) "rhat infinite" true (Gates.worst_rhat r = infinity);
  (* the deterministic report is vacuously converged *)
  let r = Gates.deterministic ~rhat_max:1.1 ~ess_min:20. in
  Alcotest.(check bool) "deterministic passes" true (Gates.converged r);
  Alcotest.(check (float 0.)) "deterministic rhat" 1. (Gates.worst_rhat r);
  Alcotest.(check bool) "deterministic ess" true (Gates.min_ess r = infinity)

(* --- handle lifecycle ----------------------------------------------- *)

let test_handle_lifecycle () =
  let eng = fresh () in
  let t = ok_r "train" (Engine.train eng ~dataset:"d" (objpert "0.5")) in
  let m = t.Engine.model in
  Alcotest.(check string) "first handle" "d/m1" m.Model_store.handle;
  Alcotest.(check string) "backend" "objective-perturbation"
    m.Model_store.backend;
  Alcotest.(check bool) "theta released" true (m.Model_store.theta <> None);
  Alcotest.(check int64) "charged = face" (bits 0.5)
    (bits t.Engine.charged.Privacy.epsilon);
  (* the handle resolves, and handles number sequentially *)
  (match Engine.find_model eng "d/m1" with
  | None -> Alcotest.fail "handle does not resolve"
  | Some m' ->
      Alcotest.(check string) "same model" m.Model_store.handle
        m'.Model_store.handle);
  let t2 = ok_r "train 2" (Engine.train eng ~dataset:"d" (objpert "0.25")) in
  Alcotest.(check string) "second handle" "d/m2"
    t2.Engine.model.Model_store.handle;
  (* prediction works on raw points and is deterministic *)
  let v1 = ok_r "predict" (Engine.predict eng "d/m1" point) in
  let v2 = ok_r "predict" (Engine.predict eng "d/m1" point) in
  Alcotest.(check bool) "finite margin" true (Float.is_finite v1);
  Alcotest.(check int64) "deterministic" (bits v1) (bits v2);
  (* unknown handles and malformed points are typed errors *)
  (match Engine.predict eng "d/m99" point with
  | Error (Engine.Unknown_model _) -> ()
  | _ -> Alcotest.fail "expected Unknown_model");
  (match Engine.predict eng "nosuch/m1" point with
  | Error (Engine.Unknown_model _) -> ()
  | _ -> Alcotest.fail "expected Unknown_model for unknown dataset");
  match Engine.predict eng "d/m1" [| 1. |] with
  | Error (Engine.Bad_query _) -> ()
  | _ -> Alcotest.fail "expected Bad_query on dimension mismatch"

let test_unconverged_withheld () =
  let eng = fresh () in
  let before = spent eng in
  (match Engine.train eng ~dataset:"d" (frozen "0.2") with
  | Ok _ -> Alcotest.fail "frozen chains must not release"
  | Error (Engine.Unconverged { handle; worst_rhat; charged; _ }) ->
      Alcotest.(check string) "withheld handle issued" "d/m1" handle;
      Alcotest.(check bool) "rhat over threshold" true (worst_rhat > 1.1);
      (* the charge stands: 2 chains x 0.2 under basic composition *)
      Alcotest.(check int64) "charge stands" (bits 0.4)
        (bits charged.Privacy.epsilon)
  | Error e ->
      Alcotest.failf "expected Unconverged: %s"
        (Format.asprintf "%a" Engine.pp_error e));
  let after = spent eng in
  Alcotest.(check int64) "spent advanced by the face" (bits 0.4)
    (bits (after.Privacy.epsilon -. before.Privacy.epsilon));
  (* the withheld handle occupies its slot: resolvable, theta-less,
     refuses predictions, and does not shift later handle names *)
  (match Engine.find_model eng "d/m1" with
  | None -> Alcotest.fail "withheld handle must resolve"
  | Some m ->
      Alcotest.(check bool) "no theta" true (m.Model_store.theta = None));
  (match Engine.predict eng "d/m1" point with
  | Error (Engine.Bad_query _) -> ()
  | _ -> Alcotest.fail "withheld model must refuse predictions");
  let t = ok_r "train" (Engine.train eng ~dataset:"d" (objpert "0.1")) in
  Alcotest.(check string) "slot not reused" "d/m2"
    t.Engine.model.Model_store.handle

let test_predict_is_free () =
  (* a total budget that exactly covers one objpert release: after it,
     training is refused but prediction still serves, charging nothing *)
  let eng =
    fresh ~policy:(Registry.default_policy ~total:(Privacy.pure 0.5)) ()
  in
  ignore (ok_r "train" (Engine.train eng ~dataset:"d" (objpert "0.5")));
  let s1 = spent eng in
  (match Engine.train eng ~dataset:"d" (objpert "0.1") with
  | Error (Engine.Budget_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "overdraft accepted"
  | Error e ->
      Alcotest.failf "expected Budget_exceeded: %s"
        (Format.asprintf "%a" Engine.pp_error e));
  for _ = 1 to 10 do
    ignore (ok_r "free predict" (Engine.predict eng "d/m1" point))
  done;
  let s2 = spent eng in
  Alcotest.(check int64) "prediction charged nothing"
    (bits s1.Privacy.epsilon) (bits s2.Privacy.epsilon)

(* A lease refusal is refused before any charge, like a query's: one
   rejected decision, logged with the train's mechanism and face. *)
let test_lease_refusal_logged () =
  let eng = fresh () in
  Engine.set_lease_gate eng
    (Some
       (fun ~dataset:_ ~face ->
         Engine.Lease_denied { requested = face; remaining = Privacy.pure 0. }));
  (match Engine.train eng ~dataset:"d" (objpert "0.3") with
  | Error (Engine.Budget_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "trained without a lease"
  | Error e ->
      Alcotest.failf "expected Budget_exceeded: %s"
        (Format.asprintf "%a" Engine.pp_error e));
  Alcotest.(check int) "rejected" 1
    (ok_r "report" (Engine.report eng ~dataset:"d")).Engine.rejected;
  match List.rev (Engine.records eng ~dataset:"d") with
  | [] -> Alcotest.fail "the refusal was not logged"
  | r :: _ ->
      Alcotest.(check (option string)) "mechanism"
        (Some "objective-perturbation") r.Audit_log.mechanism;
      Alcotest.(check int64) "face" (bits 0.3)
        (bits r.Audit_log.requested.Privacy.epsilon);
      Alcotest.(check bool) "verdict" true
        (r.Audit_log.verdict = Audit_log.Rejected "budget-exceeded")

(* --- static = live --------------------------------------------------- *)

let train_opts =
  [
    ("eps", Some "0.3"); ("chains", Some "3"); ("steps", Some "16");
    ("burn", Some "0"); ("step-std", Some "1e-12");
  ]

let test_analyze_matches_live () =
  (* the same mixed workload — a stat and a train — priced statically
     and served live must spend bit-identical epsilon; convergence of
     the live run is irrelevant to the charge *)
  let schema =
    ok
      (Registry.schema ~name:"d" ~rows:400 ~policy:(policy ())
         [
           { Registry.col = "age"; lo = 18.; hi = 80. };
           { Registry.col = "income"; lo = 0.; hi = 200_000. };
           { Registry.col = "score"; lo = -4.; hi = 4. };
         ])
  in
  let items =
    [
      A.Stat
        {
          text = "count";
          query = ok (Query.parse "count");
          epsilon = Some 0.1;
        };
      A.Train { text = "train"; train_opts };
    ]
  in
  let r = ok (A.analyze schema items) in
  Alcotest.(check bool) "static verdict PASS" true r.A.pass;
  let eng = fresh () in
  ignore (ok_r "count" (Engine.submit_text eng ~epsilon:0.1 ~dataset:"d" "count"));
  (match Engine.train eng ~dataset:"d" (params train_opts) with
  | Ok _ | Error (Engine.Unconverged _) -> ()
  | Error e ->
      Alcotest.failf "train: %s" (Format.asprintf "%a" Engine.pp_error e));
  let live = spent eng in
  Alcotest.(check int64) "epsilon bits" (bits live.Privacy.epsilon)
    (bits r.A.spent.Privacy.epsilon);
  Alcotest.(check int64) "delta bits" (bits live.Privacy.delta)
    (bits r.A.spent.Privacy.delta);
  (* the train row carries the gibbs face, not the per-chain eps *)
  let train_row = List.nth r.A.rows 1 in
  Alcotest.(check string) "mechanism" "gibbs" train_row.A.mechanism;
  Alcotest.(check int64) "row face = chains * eps" (bits (3. *. 0.3))
    (bits train_row.A.face.Privacy.epsilon)

(* --- recovery -------------------------------------------------------- *)

let temp_journal () = Filename.temp_file "dpkit_train_test" ".wal"

let with_journal f =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_recovery_bit_identical () =
  with_journal (fun path ->
      let eng = Engine.create ~seed:5 () in
      ignore (ok (Engine.open_journal eng path));
      (match
         Engine.register_synthetic eng ~name:"d" ~rows:400 ~policy:(policy ())
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      let t = ok_r "train" (Engine.train eng ~dataset:"d" (objpert "0.4")) in
      (match Engine.train eng ~dataset:"d" (frozen "0.2") with
      | Error (Engine.Unconverged _) -> ()
      | _ -> Alcotest.fail "expected withheld second model");
      let theta1 = Option.get t.Engine.model.Model_store.theta in
      let pred1 = ok_r "predict" (Engine.predict eng "d/m1" point) in
      let spent1 = spent eng in
      (* restart on the same journal: a fresh engine must resolve the
         same handles with bit-identical thetas and spend *)
      let eng2 = Engine.create ~seed:5 () in
      let rec2 = ok (Engine.open_journal eng2 path) in
      Alcotest.(check int) "models recovered" 2 rec2.Engine.models_recovered;
      Alcotest.(check bool) "replay verified" true rec2.Engine.verified;
      let m1 =
        match Engine.find_model eng2 "d/m1" with
        | Some m -> m
        | None -> Alcotest.fail "released handle lost"
      in
      let theta2 = Option.get m1.Model_store.theta in
      Alcotest.(check (array int64)) "theta bits"
        (Array.map bits theta1) (Array.map bits theta2);
      let pred2 =
        ok_r "predict after recovery" (Engine.predict eng2 "d/m1" point)
      in
      Alcotest.(check int64) "prediction bits" (bits pred1) (bits pred2);
      (match Engine.find_model eng2 "d/m2" with
      | Some m ->
          Alcotest.(check bool) "withheld stays withheld" true
            (m.Model_store.theta = None)
      | None -> Alcotest.fail "withheld handle lost");
      let eng2_spent =
        (ok_r "report" (Engine.report eng2 ~dataset:"d")).Engine.spent
      in
      Alcotest.(check int64) "spent epsilon bits"
        (bits spent1.Privacy.epsilon) (bits eng2_spent.Privacy.epsilon))

let () =
  Alcotest.run "train"
    [
      ( "params",
        [
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "static pricing" `Quick test_spec_pricing;
        ] );
      ( "gate",
        [ Alcotest.test_case "thresholds" `Quick test_gate_thresholds ] );
      ( "handles",
        [
          Alcotest.test_case "lifecycle" `Quick test_handle_lifecycle;
          Alcotest.test_case "unconverged withheld" `Quick
            test_unconverged_withheld;
          Alcotest.test_case "predict is free" `Quick test_predict_is_free;
          Alcotest.test_case "lease refusal logged" `Quick
            test_lease_refusal_logged;
        ] );
      ( "static = live",
        [
          Alcotest.test_case "analyze prices train bit-identically" `Quick
            test_analyze_matches_live;
        ] );
      ( "durability",
        [
          Alcotest.test_case "kill and restart resolves identical handles"
            `Quick test_recovery_bit_identical;
        ] );
    ]
