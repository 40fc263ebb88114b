(* Systematic failure injection: every public constructor must reject
   NaN, infinities, out-of-domain parameters and malformed shapes with
   Invalid_argument — never crash, loop, or silently accept. *)

let rejects name f =
  Alcotest.test_case name `Quick (fun () ->
      try
        f ();
        Alcotest.failf "%s: accepted invalid input" name
      with
      | Invalid_argument _ -> ()
      | Dp_mechanism.Privacy.Budget_exceeded _ -> ())

let g () = Dp_rng.Prng.create 0

let mechanism_cases =
  [
    rejects "laplace nan epsilon" (fun () ->
        ignore (Dp_mechanism.Laplace.create ~sensitivity:1. ~epsilon:nan));
    rejects "laplace zero epsilon" (fun () ->
        ignore (Dp_mechanism.Laplace.create ~sensitivity:1. ~epsilon:0.));
    rejects "laplace negative sensitivity" (fun () ->
        ignore (Dp_mechanism.Laplace.create ~sensitivity:(-1.) ~epsilon:1.));
    rejects "gaussian delta 0" (fun () ->
        ignore (Dp_mechanism.Gaussian_mech.create ~l2_sensitivity:1. ~epsilon:1. ~delta:0.));
    rejects "gaussian delta 1" (fun () ->
        ignore (Dp_mechanism.Gaussian_mech.create ~l2_sensitivity:1. ~epsilon:1. ~delta:1.));
    rejects "exponential empty candidates" (fun () ->
        ignore
          (Dp_mechanism.Exponential.create ~candidates:[||]
             ~quality:(fun _ -> 0.) ~sensitivity:1. ~epsilon:1. ()));
    rejects "exponential nan quality" (fun () ->
        ignore
          (Dp_mechanism.Exponential.create ~candidates:[| 0 |]
             ~quality:(fun _ -> nan) ~sensitivity:1. ~epsilon:1. ()));
    rejects "exponential prior length" (fun () ->
        ignore
          (Dp_mechanism.Exponential.create ~candidates:[| 0; 1 |]
             ~log_prior:[| 0. |] ~quality:float_of_int ~sensitivity:1.
             ~epsilon:1. ()));
    rejects "geometric negative sensitivity" (fun () ->
        ignore (Dp_mechanism.Geometric_mech.create ~sensitivity:(-1) ~epsilon:1.));
    rejects "rr zero epsilon" (fun () ->
        ignore (Dp_mechanism.Randomized_response.create ~epsilon:0.));
    rejects "sparse vector bad positives" (fun () ->
        ignore
          (Dp_mechanism.Sparse_vector.create ~epsilon:1. ~threshold:0.
             ~max_positives:0 (g ())));
    rejects "subsample q > 1" (fun () ->
        ignore (Dp_mechanism.Subsample.amplified_epsilon ~epsilon:1. ~q:1.5));
    rejects "binary mechanism horizon 0" (fun () ->
        ignore (Dp_mechanism.Binary_mechanism.create ~epsilon:1. ~horizon:0 (g ())));
    rejects "grr k=1" (fun () ->
        ignore (Dp_mechanism.Local_dp.Grr.create ~epsilon:1. ~k:1));
    rejects "rdp order 1" (fun () ->
        ignore (Dp_mechanism.Rdp.gaussian ~l2_sensitivity:1. ~std:1. 1.));
    rejects "rdp to_dp delta 0" (fun () ->
        ignore
          (Dp_mechanism.Rdp.to_dp ~delta:0.
             (Dp_mechanism.Rdp.gaussian ~l2_sensitivity:1. ~std:1.)));
    rejects "ptr delta 1" (fun () ->
        ignore
          (Dp_mechanism.Propose_test_release.release_scalar ~epsilon:1.
             ~delta:1. ~distance:1 ~local_bound:1. ~value:0. (g ())));
    rejects "range queries empty" (fun () ->
        ignore (Dp_mechanism.Range_queries.flat_release ~epsilon:1. [||] (g ())));
    rejects "smooth sensitivity empty" (fun () ->
        ignore
          (Dp_mechanism.Smooth_sensitivity.median_smooth_sensitivity ~beta:1.
             ~lo:0. ~hi:1. [||]));
    rejects "accountant overspend" (fun () ->
        let acc =
          Dp_mechanism.Privacy.Accountant.create
            ~total:(Dp_mechanism.Privacy.pure 1.)
        in
        Dp_mechanism.Privacy.Accountant.spend acc (Dp_mechanism.Privacy.pure 2.));
    rejects "group k=0" (fun () ->
        ignore (Dp_mechanism.Privacy.group ~k:0 (Dp_mechanism.Privacy.pure 1.)));
  ]

let pac_bayes_cases =
  [
    rejects "gibbs beta 0" (fun () ->
        ignore
          (Dp_pac_bayes.Gibbs.of_risks ~predictors:[| 0 |] ~beta:0.
             ~risks:[| 0.1 |] ()));
    rejects "gibbs nan risk" (fun () ->
        ignore
          (Dp_pac_bayes.Gibbs.of_risks ~predictors:[| 0 |] ~beta:1.
             ~risks:[| nan |] ()));
    rejects "gibbs risks length" (fun () ->
        ignore
          (Dp_pac_bayes.Gibbs.of_risks ~predictors:[| 0; 1 |] ~beta:1.
             ~risks:[| 0.1 |] ()));
    rejects "catoni risk > 1" (fun () ->
        ignore
          (Dp_pac_bayes.Bounds.catoni ~beta:1. ~n:10 ~delta:0.05 ~emp_risk:1.5
             ~kl:0.));
    rejects "catoni delta 0" (fun () ->
        ignore
          (Dp_pac_bayes.Bounds.catoni ~beta:1. ~n:10 ~delta:0. ~emp_risk:0.5
             ~kl:0.));
    rejects "catoni negative kl" (fun () ->
        ignore
          (Dp_pac_bayes.Bounds.catoni ~beta:1. ~n:10 ~delta:0.05 ~emp_risk:0.5
             ~kl:(-1.)));
    rejects "mcmc empty init" (fun () ->
        ignore
          (Dp_pac_bayes.Mcmc.run ~log_density:(fun _ -> 0.) ~init:[||]
             ~n_samples:10 (g ())));
    rejects "mcmc infinite density at init" (fun () ->
        ignore
          (Dp_pac_bayes.Mcmc.run
             ~log_density:(fun _ -> infinity)
             ~init:[| 0. |] ~n_samples:10 (g ())));
    rejects "gaussian gibbs radius 0" (fun () ->
        let d =
          Dp_dataset.Dataset.create [| [| 1. |] |] [| 0.5 |]
        in
        ignore (Dp_pac_bayes.Gaussian_gibbs.fit ~beta:1. ~radius:0. d));
    rejects "bound_opt prior mismatch" (fun () ->
        ignore
          (Dp_pac_bayes.Bound_opt.minimize ~risks:[| 0.1; 0.2 |] ~prior:[| 1. |]
             ~beta:1. ()));
    rejects "gibbs channel too large" (fun () ->
        ignore
          (Dp_pac_bayes.Gibbs_channel.build
             ~universe_probs:(Array.make 10 0.1) ~n:10 ~predictors:[| 0 |]
             ~beta:1.
             ~loss:(fun _ _ -> 0.)
             ()));
  ]

let info_cases =
  [
    rejects "entropy non-distribution" (fun () ->
        ignore (Dp_info.Entropy.entropy [| 0.5; 0.6 |]));
    rejects "entropy negative" (fun () ->
        ignore (Dp_info.Entropy.entropy [| -0.5; 1.5 |]));
    rejects "kl length mismatch" (fun () ->
        ignore (Dp_info.Entropy.kl_divergence [| 1. |] [| 0.5; 0.5 |]));
    rejects "channel ragged" (fun () ->
        ignore
          (Dp_info.Channel.create ~input:[| 0.5; 0.5 |]
             ~matrix:[| [| 1. |]; [| 0.5; 0.5 |] |]));
    rejects "channel bad row" (fun () ->
        ignore
          (Dp_info.Channel.create ~input:[| 1. |] ~matrix:[| [| 0.3; 0.3 |] |]));
    rejects "rate_risk ragged" (fun () ->
        ignore
          (Dp_info.Rate_risk.solve ~input:[| 0.5; 0.5 |]
             ~risk:[| [| 0.1 |]; [| 0.1; 0.2 |] |]
             ~beta:1. ()));
    rejects "fano k=1" (fun () ->
        ignore (Dp_info.Fano.fano_error_lower_bound ~mi:0. ~k:1));
    rejects "renyi alpha=1" (fun () ->
        ignore
          (Dp_info.Entropy.renyi_divergence ~alpha:1. [| 0.5; 0.5 |]
             [| 0.5; 0.5 |]));
    rejects "mi_estimate symbol range" (fun () ->
        ignore (Dp_info.Mi_estimate.plugin ~xs:[| 5 |] ~ys:[| 0 |] ~kx:2 ~ky:2));
    rejects "cascade height mismatch" (fun () ->
        let ch =
          Dp_info.Channel.create ~input:[| 1. |] ~matrix:[| [| 0.5; 0.5 |] |]
        in
        ignore (Dp_info.Channel_ops.cascade ch ~post:[| [| 1. |] |]));
  ]

let learn_cases =
  [
    rejects "erm lambda 0" (fun () ->
        let d = Dp_dataset.Dataset.create [| [| 1. |] |] [| 1. |] in
        ignore (Dp_learn.Erm.train ~lambda:0. ~loss:Dp_learn.Loss_fn.logistic d));
    rejects "quantile q > 1" (fun () ->
        ignore
          (Dp_learn.Quantile.estimate ~epsilon:1. ~q:1.5 ~lo:0. ~hi:1.
             [| 0.5 |] (g ())));
    rejects "quantile empty" (fun () ->
        ignore
          (Dp_learn.Quantile.estimate ~epsilon:1. ~q:0.5 ~lo:0. ~hi:1. [||]
             (g ())));
    rejects "mean lo >= hi" (fun () ->
        ignore (Dp_learn.Mean_estimator.non_private ~lo:1. ~hi:1. [| 0.5 |]));
    rejects "density bins 0" (fun () ->
        ignore
          (Dp_learn.Density.fit_private ~epsilon:1. ~lo:0. ~hi:1. ~bins:0
             [| 0.5 |] (g ())));
    rejects "naive bayes bad label" (fun () ->
        let d = Dp_dataset.Dataset.create [| [| 0. |] |] [| 0.5 |] in
        ignore (Dp_learn.Naive_bayes.fit ~lo:(-1.) ~hi:1. d));
    rejects "kmeans k=0" (fun () ->
        ignore (Dp_learn.Kmeans.fit ~k:0 [| [| 0.; 0. |] |] (g ())));
    rejects "pca ragged" (fun () ->
        ignore (Dp_learn.Pca.fit ~j:1 [| [| 1. |]; [| 1.; 2. |] |]));
    rejects "multiclass label range" (fun () ->
        ignore
          (Dp_learn.Multiclass.train ~classes:2 ~loss:Dp_learn.Loss_fn.logistic
             ~features:[| [| 0. |] |] ~labels:[| 7 |] ()));
    rejects "dp-sgd bad delta" (fun () ->
        let d = Dp_dataset.Dataset.create [| [| 0. |] |] [| 1. |] in
        ignore
          (Dp_learn.Dp_sgd.train ~noise_multiplier:1. ~delta:2.
             ~loss:Dp_learn.Loss_fn.logistic d (g ())));
    rejects "model select empty" (fun () ->
        ignore
          (Dp_learn.Model_select.select ~epsilon:1. ~candidates:[||]
             ~score:(fun _ -> 0.) ~score_sensitivity:1. (g ())));
    rejects "synthetic release bad label" (fun () ->
        let d = Dp_dataset.Dataset.create [| [| 0. |] |] [| 3. |] in
        ignore
          (Dp_learn.Synthetic_release.fit ~epsilon:1. ~lo:(-1.) ~hi:1. d (g ())));
  ]

let other_cases =
  [
    rejects "dataset ragged" (fun () ->
        ignore (Dp_dataset.Dataset.create [| [| 1. |]; [| 1.; 2. |] |] [| 1.; 1. |]));
    rejects "auditor zero trials" (fun () ->
        ignore
          (Dp_audit.Auditor.audit_discrete ~trials:0 ~outcomes:2
             ~epsilon_theory:1.
             ~run:(fun _ -> 0)
             ~run':(fun _ -> 0)
             (g ())));
    rejects "tradeoff fpr > 1" (fun () ->
        ignore (Dp_audit.Tradeoff.region_floor ~epsilon:1. ~fpr:1.5));
    rejects "histogram bins 0" (fun () ->
        ignore (Dp_stats.Histogram.create ~lo:0. ~hi:1. ~bins:0));
    rejects "contingency 0 rows" (fun () ->
        ignore (Dp_stats.Contingency.create ~rows:0 ~cols:2));
    rejects "sampler uniform inverted" (fun () ->
        ignore (Dp_rng.Sampler.uniform ~lo:1. ~hi:0. (g ())));
    rejects "sampler gamma shape 0" (fun () ->
        ignore (Dp_rng.Sampler.gamma ~shape:0. ~scale:1. (g ())));
    rejects "prng int bound 0" (fun () -> ignore (Dp_rng.Prng.int (g ()) 0));
    rejects "vec dim mismatch" (fun () ->
        ignore (Dp_linalg.Vec.dot [| 1. |] [| 1.; 2. |]));
    rejects "cholesky non-square" (fun () ->
        ignore (Dp_linalg.Decomp.cholesky (Dp_linalg.Mat.zeros 2 3)));
    rejects "special log_gamma 0" (fun () ->
        ignore (Dp_math.Special.log_gamma 0.));
    rejects "logspace empty normalize" (fun () ->
        ignore (Dp_math.Logspace.normalize_log_weights [||]));
    rejects "csv bad float" (fun () ->
        let path = Filename.temp_file "dpkit_bad" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc "a,b\n1.0,not-a-number\n");
            ignore (Dp_dataset.Csv.read ~path)));
    rejects "libsvm bad feature" (fun () ->
        let path = Filename.temp_file "dpkit_bad" ".libsvm" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc "1 garbage\n");
            ignore (Dp_dataset.Csv.read_libsvm ~path ())));
  ]

let () =
  Alcotest.run "dp_robustness"
    [
      ("mechanisms", mechanism_cases);
      ("pac-bayes", pac_bayes_cases);
      ("info", info_cases);
      ("learn", learn_cases);
      ("misc", other_cases);
    ]
