(* Statistical DP certification: seed-deterministic verdicts for the
   planner faces and the train face, deliberate-breakage detection
   (half-scale noise, seeded-restart noise reuse), and the
   Clopper–Pearson / likelihood-ratio machinery underneath. Every draw
   is seeded, so each assertion here is exact, not probabilistic. *)

open Dp_certify

let seed = 20120330

let source_exn = function
  | Ok s -> s
  | Error m -> Alcotest.failf "source: %s" m

let query s =
  match Dp_engine.Query.parse s with
  | Ok q -> q
  | Error m -> Alcotest.failf "query: %s" m

let run_face ?(trials = 500) ?(eps = 1.0) ?backend ?break_ q =
  let src =
    source_exn (Certify.of_query ?backend ?break_ ~seed ~eps (query q))
  in
  Certify.run ~trials src (Dp_rng.Prng.create seed)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ------------------------------------------------------------------ *)

let test_laplace_count_certified () =
  let (r : Certify.report) = run_face "count(age>40)" in
  Alcotest.(check bool) "count certified" true r.ok;
  Alcotest.(check int) "all four checks ran" 4 (List.length r.checks);
  let (r : Certify.report) = run_face "sum(income)" in
  Alcotest.(check bool) "sum certified" true r.ok;
  Alcotest.(check int) "trials recorded" 500 r.trials;
  Alcotest.(check bool) "machine-readable ok verdict" true
    (starts_with "ok certified source=sum(income) trials=500"
       (Certify.verdict_line r))

let test_vector_and_quantile_faces () =
  let (r : Certify.report) = run_face "histogram(age,8)" in
  Alcotest.(check bool) "histogram certified" true r.ok;
  let (r : Certify.report) = run_face "quantile(income,0.5)" in
  Alcotest.(check bool) "quantile certified" true r.ok;
  Alcotest.(check bool) "quantile model check ran and passed" true
    (List.exists (fun (c : Certify.check) -> c.check = "model" && c.ok) r.checks)

let test_rdp_count_certified () =
  let (r : Certify.report) = run_face ~backend:(`Rdp 1e-6) "count(age>40)" in
  Alcotest.(check bool) "discrete gaussian count certified" true r.ok;
  Alcotest.(check bool) "rdp claim carries a delta" true
    (r.delta_claimed > 0.)

let test_half_scale_detected () =
  List.iter
    (fun q ->
      let (r : Certify.report) = run_face ~break_:`Half_scale q in
      Alcotest.(check bool) (q ^ " flagged") false r.ok;
      Alcotest.(check bool) (q ^ " err verdict") true
        (starts_with "err certify-failed" (Certify.verdict_line r)))
    [ "count(age>40)"; "sum(income)"; "quantile(income,0.5)" ]

let test_train_face () =
  let honest =
    source_exn (Certify.gibbs_source ~seed ~eps:0.5 ())
  in
  let (r : Certify.report) =
    Certify.run ~trials:400 honest (Dp_rng.Prng.create seed)
  in
  Alcotest.(check bool) "train certified" true r.ok;
  let broken =
    source_exn (Certify.gibbs_source ~break_:`Half_scale ~seed ~eps:0.5 ())
  in
  let (r : Certify.report) =
    Certify.run ~trials:400 broken (Dp_rng.Prng.create seed)
  in
  Alcotest.(check bool) "half-scale train flagged" false r.ok

let test_recovery_reuse_detected () =
  let src = source_exn (Certify.of_query ~seed ~eps:1.0 (query "count(age>40)")) in
  let s1 = Certify.collect ~trials:200 src (Dp_rng.Prng.create 7) in
  (* a seeded restart replays the identical noise stream *)
  let s2 = Certify.collect ~trials:200 src (Dp_rng.Prng.create 7) in
  let r =
    Certify.recovery_check ~bucket:Certify.iround ~pre:s1.Certify.a
      ~post:s2.Certify.a ()
  in
  Alcotest.(check bool) "reuse detected" true r.Certify.reuse;
  Alcotest.(check bool) "recovery refused" false r.Certify.recovery_ok;
  Alcotest.(check bool) "err recovery verdict" true
    (starts_with "err certify-failed recovery" (Certify.recovery_line r));
  (* a re-keyed restart draws fresh noise from the same distribution *)
  let s3 = Certify.collect ~trials:200 src (Dp_rng.Prng.create 8) in
  let r =
    Certify.recovery_check ~bucket:Certify.iround ~pre:s1.Certify.a
      ~post:s3.Certify.a ()
  in
  Alcotest.(check bool) "fresh noise accepted" true r.Certify.recovery_ok;
  Alcotest.(check bool) "ok recovery verdict" true
    (starts_with "ok certified recovery" (Certify.recovery_line r))

let test_recovery_drift_detected () =
  (* a restart that comes back with the wrong noise scale has a
     different output distribution — the two-sample leg must refuse *)
  let src = source_exn (Certify.of_query ~seed ~eps:1.0 (query "count(age>40)")) in
  let broken =
    source_exn
      (Certify.of_query ~break_:`Half_scale ~seed ~eps:1.0
         (query "count(age>40)"))
  in
  let pre = Certify.collect ~trials:400 src (Dp_rng.Prng.create 7) in
  let post = Certify.collect ~trials:400 broken (Dp_rng.Prng.create 8) in
  let r =
    Certify.recovery_check ~bucket:Certify.iround ~pre:pre.Certify.a
      ~post:post.Certify.a ()
  in
  Alcotest.(check bool) "drift detected" true r.Certify.drifted;
  Alcotest.(check bool) "recovery refused" false r.Certify.recovery_ok

let test_clopper_pearson () =
  let lo, hi = Binomial.clopper_pearson ~k:0 ~n:50 ~alpha:0.05 in
  Alcotest.(check (float 0.)) "k=0 lower is 0" 0. lo;
  Alcotest.(check bool) "k=0 upper positive" true (hi > 0. && hi < 0.1);
  let lo, hi = Binomial.clopper_pearson ~k:50 ~n:50 ~alpha:0.05 in
  Alcotest.(check (float 0.)) "k=n upper is 1" 1. hi;
  Alcotest.(check bool) "k=n lower below 1" true (lo < 1. && lo > 0.9);
  (* the textbook interval for 5 successes in 10 trials *)
  let lo, hi = Binomial.clopper_pearson ~k:5 ~n:10 ~alpha:0.05 in
  Alcotest.(check bool) "contains the point estimate" true
    (lo < 0.5 && 0.5 < hi);
  Alcotest.(check (float 1e-3)) "known lower" 0.1871 lo;
  Alcotest.(check (float 1e-3)) "known upper" 0.8129 hi

let test_lr_flags_blatant_violation () =
  (* disjoint supports: the likelihood ratio is infinite, so any small
     claimed eps must be rejected with confidence *)
  let s1 = Array.make 300 0. and s2 = Array.make 300 1. in
  let t = Lr_test.run ~eps:0.5 ~bucket:Certify.iround s1 s2 in
  Alcotest.(check bool) "violation found" false t.Lr_test.ok;
  Alcotest.(check bool) "eps lower bound beats the claim" true
    (t.Lr_test.eps_lb > 0.5);
  Alcotest.(check bool) "at least one outcome flagged" true
    (t.Lr_test.violations >= 1)

let () =
  Alcotest.run "dp_certify"
    [
      ( "faces",
        [
          Alcotest.test_case "laplace count+sum certified" `Quick
            test_laplace_count_certified;
          Alcotest.test_case "histogram and quantile certified" `Quick
            test_vector_and_quantile_faces;
          Alcotest.test_case "rdp count certified" `Quick
            test_rdp_count_certified;
          Alcotest.test_case "half-scale break detected" `Quick
            test_half_scale_detected;
          Alcotest.test_case "train face (gibbs posterior)" `Quick
            test_train_face;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "seeded noise reuse detected" `Quick
            test_recovery_reuse_detected;
          Alcotest.test_case "distribution drift detected" `Quick
            test_recovery_drift_detected;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "clopper-pearson" `Quick test_clopper_pearson;
          Alcotest.test_case "lr test flags disjoint supports" `Quick
            test_lr_flags_blatant_violation;
        ] );
    ]
