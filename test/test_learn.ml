open Dp_learn
open Dp_dataset

let check_close ?(tol = 1e-9) msg expected actual =
  if not (Dp_math.Numeric.approx_equal ~rel_tol:tol ~abs_tol:tol expected actual)
  then Alcotest.failf "%s: expected %.15g, got %.15g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Loss functions *)

let test_logistic_loss () =
  let theta = [| 1.; 0. |] and x = [| 1.; 0. |] in
  check_close ~tol:1e-12 "value at margin 1"
    (log (1. +. exp (-1.)))
    (Loss_fn.logistic.Loss_fn.value ~theta ~x ~y:1.);
  (* gradient check by finite differences *)
  let fd_check loss theta x y =
    let g = loss.Loss_fn.grad ~theta ~x ~y in
    Array.iteri
      (fun j _ ->
        let h = 1e-6 in
        let tp = Array.copy theta and tm = Array.copy theta in
        tp.(j) <- tp.(j) +. h;
        tm.(j) <- tm.(j) -. h;
        let fd =
          (loss.Loss_fn.value ~theta:tp ~x ~y -. loss.Loss_fn.value ~theta:tm ~x ~y)
          /. (2. *. h)
        in
        check_close ~tol:1e-4 (Printf.sprintf "grad[%d]" j) fd g.(j))
      g
  in
  fd_check Loss_fn.logistic [| 0.5; -0.3 |] [| 0.8; 0.1 |] 1.;
  fd_check Loss_fn.logistic [| 0.5; -0.3 |] [| 0.8; 0.1 |] (-1.);
  fd_check Loss_fn.squared [| 0.5; -0.3 |] [| 0.8; 0.1 |] 0.7;
  fd_check (Loss_fn.huber ~delta:1.) [| 2.; 0. |] [| 1.; 0. |] 0.1

let test_hinge_loss () =
  let theta = [| 1.; 0. |] in
  check_close "hinge inside margin" 0.5
    (Loss_fn.hinge.Loss_fn.value ~theta ~x:[| 0.5; 0. |] ~y:1.);
  check_close "hinge satisfied" 0.
    (Loss_fn.hinge.Loss_fn.value ~theta ~x:[| 2.; 0. |] ~y:1.);
  let g = Loss_fn.hinge.Loss_fn.grad ~theta ~x:[| 2.; 0. |] ~y:1. in
  check_close "zero subgradient" 0. g.(0)

let test_zero_one_and_clip () =
  check_close "zero one correct" 0.
    (Loss_fn.zero_one ~theta:[| 1. |] ~x:[| 1. |] ~y:1.);
  check_close "zero one wrong" 1.
    (Loss_fn.zero_one ~theta:[| 1. |] ~x:[| 1. |] ~y:(-1.));
  (* clip keeps the squared loss within its declared range *)
  let v =
    Loss_fn.clip Loss_fn.squared ~theta:[| 100. |] ~x:[| 1. |] ~y:0.
  in
  check_close "clipped at top" 8. v;
  check_close "range width" 8. (Loss_fn.range_width Loss_fn.squared)

(* ------------------------------------------------------------------ *)
(* ERM *)

let classification_data seed n =
  let g = Dp_rng.Prng.create seed in
  let d = Synthetic.two_gaussians ~separation:3. ~std:1. ~dim:3 ~n g in
  Dataset.clip_rows_l2 ~radius:1. d

let test_erm_learns () =
  let d = classification_data 1 400 in
  let m = Erm.train ~lambda:1e-3 ~loss:Loss_fn.logistic d in
  Alcotest.(check bool) "converged" true m.Erm.converged;
  let acc = Erm.accuracy m.Erm.theta d in
  Alcotest.(check bool) (Printf.sprintf "train acc %.3f" acc) true (acc > 0.85);
  (* hinge learns the same task *)
  let m2 = Erm.train ~lambda:1e-3 ~loss:Loss_fn.hinge d in
  Alcotest.(check bool) "hinge accuracy" true (Erm.accuracy m2.Erm.theta d > 0.85)

let test_erm_regularization_shrinks () =
  let d = classification_data 2 200 in
  let weak = Erm.train ~lambda:1e-4 ~loss:Loss_fn.logistic d in
  let strong = Erm.train ~lambda:10. ~loss:Loss_fn.logistic d in
  Alcotest.(check bool) "shrinkage" true
    (Dp_linalg.Vec.norm2 strong.Erm.theta < Dp_linalg.Vec.norm2 weak.Erm.theta)

let test_erm_projected () =
  let d = classification_data 3 200 in
  let m = Erm.train ~lambda:1e-4 ~radius:0.5 ~loss:Loss_fn.logistic d in
  Alcotest.(check bool) "feasible" true
    (Dp_linalg.Vec.norm2 m.Erm.theta <= 0.5 +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Private ERM *)

let test_output_perturbation_accuracy_tradeoff () =
  let d = classification_data 4 2000 in
  let g = Dp_rng.Prng.create 5 in
  let np = Erm.train ~lambda:0.01 ~loss:Loss_fn.logistic d in
  let acc_np = Erm.accuracy np.Erm.theta d in
  let acc_at eps =
    (* average 5 runs to tame noise *)
    Dp_math.Summation.mean
      (Array.init 5 (fun _ ->
           let m =
             Private_erm.output_perturbation ~epsilon:eps ~lambda:0.01
               ~loss:Loss_fn.logistic d g
           in
           Erm.accuracy m.Private_erm.theta d))
  in
  let hi = acc_at 50. and lo = acc_at 0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "high eps near non-private (%.3f vs %.3f)" hi acc_np)
    true
    (hi > acc_np -. 0.05);
  Alcotest.(check bool)
    (Printf.sprintf "low eps worse (%.3f < %.3f)" lo hi)
    true (lo < hi);
  (* budget recorded *)
  let m =
    Private_erm.output_perturbation ~epsilon:1. ~lambda:0.01
      ~loss:Loss_fn.logistic d g
  in
  check_close "budget" 1. m.Private_erm.budget.Dp_mechanism.Privacy.epsilon

let test_objective_perturbation () =
  let d = classification_data 6 2000 in
  let g = Dp_rng.Prng.create 7 in
  let m =
    Private_erm.objective_perturbation ~epsilon:2. ~lambda:0.01
      ~loss:Loss_fn.logistic d g
  in
  let acc = Erm.accuracy m.Private_erm.theta d in
  Alcotest.(check bool) (Printf.sprintf "acc %.3f" acc) true (acc > 0.8);
  (* hinge has no smoothness constant -> must refuse *)
  try
    ignore
      (Private_erm.objective_perturbation ~epsilon:1. ~lambda:0.01
         ~loss:Loss_fn.hinge d g);
    Alcotest.fail "accepted non-smooth loss"
  with Invalid_argument _ -> ()

let test_gibbs_erm () =
  let d = classification_data 8 500 in
  let g = Dp_rng.Prng.create 9 in
  let m =
    Private_erm.gibbs ~epsilon:20. ~radius:3. ~loss:Loss_fn.logistic d g
  in
  Alcotest.(check bool) "in ball" true
    (Dp_linalg.Vec.norm2 m.Private_erm.theta <= 3. +. 1e-9);
  let acc = Erm.accuracy m.Private_erm.theta d in
  Alcotest.(check bool) (Printf.sprintf "gibbs acc %.3f" acc) true (acc > 0.75);
  (* beta calibration: 2 beta range / n = eps *)
  let beta = Private_erm.gibbs_beta ~epsilon:1. ~n:100 ~loss_range:4. in
  check_close "beta" (100. /. 8.) beta

let test_gibbs_posterior_concentration () =
  (* More privacy (smaller eps) => flatter posterior => draws more
     spread out. Measure the spread of posterior samples. *)
  let d = classification_data 10 300 in
  let spread eps seed =
    let g = Dp_rng.Prng.create seed in
    let samples =
      Private_erm.gibbs_posterior_samples ~epsilon:eps ~radius:3.
        ~loss:Loss_fn.logistic ~n_samples:300 d g
    in
    let firsts = Array.map (fun s -> s.(0)) samples in
    Dp_stats.Describe.std firsts
  in
  let tight = spread 50. 11 and loose = spread 0.5 12 in
  Alcotest.(check bool)
    (Printf.sprintf "spread %.3f < %.3f" tight loose)
    true (tight < loose)

(* ------------------------------------------------------------------ *)
(* Mean & density *)

let test_mean_estimator () =
  let g = Dp_rng.Prng.create 13 in
  let xs = Array.init 1000 (fun _ -> Dp_rng.Sampler.uniform ~lo:0. ~hi:1. g) in
  let truth = Mean_estimator.non_private ~lo:0. ~hi:1. xs in
  (* average of many private releases converges to the truth *)
  let est =
    Dp_math.Summation.mean
      (Array.init 200 (fun _ ->
           Mean_estimator.laplace ~epsilon:1. ~lo:0. ~hi:1. xs g))
  in
  if Float.abs (est -. truth) > 0.005 then
    Alcotest.failf "private mean biased: %g vs %g" est truth;
  check_close "expected error" 0.001
    (Mean_estimator.expected_absolute_error ~epsilon:1. ~lo:0. ~hi:1. ~n:1000);
  (* clamping: outliers cannot blow up the estimate *)
  let wild = Array.append xs [| 1e9 |] in
  let m = Mean_estimator.non_private ~lo:0. ~hi:1. wild in
  Alcotest.(check bool) "clamped" true (m <= 1.)

let test_density_estimation () =
  let g = Dp_rng.Prng.create 14 in
  let weights = [| 0.5; 0.5 |] and means = [| -1.5; 1.5 |] and stds = [| 0.5; 0.5 |] in
  let xs = Synthetic.gaussian_mixture_1d ~weights ~means ~stds ~n:20_000 g in
  let truth = Synthetic.mixture_density ~weights ~means ~stds in
  let np = Density.fit_non_private ~lo:(-4.) ~hi:4. ~bins:40 xs in
  let p = Density.fit_private ~epsilon:1. ~lo:(-4.) ~hi:4. ~bins:40 xs g in
  let err_np = Density.l1_error np ~true_density:truth in
  let err_p = Density.l1_error p ~true_density:truth in
  Alcotest.(check bool) (Printf.sprintf "np err %.3f small" err_np) true (err_np < 0.1);
  (* with n=20k and eps=1 the private error is close to non-private *)
  Alcotest.(check bool) (Printf.sprintf "p err %.3f reasonable" err_p) true (err_p < 0.2);
  (* tiny data + tiny epsilon => worse *)
  let xs_small = Array.sub xs 0 200 in
  let p_bad = Density.fit_private ~epsilon:0.05 ~lo:(-4.) ~hi:4. ~bins:40 xs_small g in
  let err_bad = Density.l1_error p_bad ~true_density:truth in
  Alcotest.(check bool)
    (Printf.sprintf "worse at small eps (%.3f > %.3f)" err_bad err_p)
    true (err_bad > err_p);
  (* log likelihood sane *)
  let ll = Density.log_likelihood np (Array.sub xs 0 1000) in
  Alcotest.(check bool) "ll finite" true (Float.is_finite ll)

(* ------------------------------------------------------------------ *)
(* Ridge *)

let regression_data seed n =
  let g = Dp_rng.Prng.create seed in
  Synthetic.linear_regression ~theta:[| 0.5; -0.3 |] ~noise_std:0.05 ~n g

let test_ridge () =
  let d = regression_data 15 500 in
  let theta = Ridge.fit ~lambda:1e-6 d in
  check_close ~tol:0.05 "theta0" 0.5 theta.(0);
  check_close ~tol:0.05 "theta1" (-0.3) theta.(1);
  (* heavier regularization shrinks *)
  let heavy = Ridge.fit ~lambda:10. d in
  Alcotest.(check bool) "shrinks" true
    (Dp_linalg.Vec.norm2 heavy < Dp_linalg.Vec.norm2 theta)

let test_ridge_private () =
  let d = regression_data 16 2000 in
  let g = Dp_rng.Prng.create 17 in
  let mse_of theta = Erm.mean_squared_error theta d in
  let np = Ridge.fit ~lambda:0.01 d in
  let out =
    Dp_math.Summation.mean
      (Array.init 10 (fun _ ->
           mse_of (Ridge.fit_output_perturbed ~epsilon:20. ~lambda:0.01 d g)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "output-perturbed mse %.4f near np %.4f" out (mse_of np))
    true
    (out < mse_of np +. 0.1);
  let gm = Ridge.fit_gibbs ~epsilon:20. ~radius:1. d g in
  Alcotest.(check bool) "gibbs mse" true (mse_of gm < 0.5)

(* ------------------------------------------------------------------ *)
(* Quantile: the rejection sampler draws the mechanism's exact law *)

let sorted_clamped ~lo ~hi xs =
  let sorted = Array.map (Dp_math.Numeric.clamp ~lo ~hi) xs in
  Array.stable_sort Float.compare sorted;
  sorted

(* The mechanism's output CDF, computed the long way: gap k between
   order statistics carries mass len_k * exp(-eps/2 * |k - q*n|),
   uniform within the gap (exponents shifted by their minimum over
   non-empty gaps, as the sampler shifts them). *)
let quantile_cdf ~epsilon ~q ~lo ~hi sorted =
  let n = Array.length sorted in
  let edge j = if j = 0 then lo else if j > n then hi else sorted.(j - 1) in
  let dist k = Float.abs (float_of_int k -. (q *. float_of_int n)) in
  let shift = ref infinity in
  for k = 0 to n do
    if edge (k + 1) > edge k then shift := Float.min !shift (dist k)
  done;
  let mass =
    Array.init (n + 1) (fun k ->
        (edge (k + 1) -. edge k) *. exp (-.epsilon /. 2. *. (dist k -. !shift)))
  in
  let total = Dp_math.Summation.sum mass in
  let below = Array.make (n + 2) 0. in
  for k = 0 to n do
    below.(k + 1) <- below.(k) +. (mass.(k) /. total)
  done;
  fun x ->
    (* x's gap: the number of order statistics <= x *)
    let k = Array.fold_left (fun acc v -> if v <= x then acc + 1 else acc) 0 sorted in
    below.(k) +. (mass.(k) /. total *. (x -. edge k) /. (edge (k + 1) -. edge k))

(* Pearson chi-square of [draws] releases against the exact law, on 50
   bins of equal exact probability (the probability integral
   transform). *)
let quantile_chi2 ~epsilon ~q ~lo ~hi xs ~seed =
  let sorted = sorted_clamped ~lo ~hi xs in
  let cdf = quantile_cdf ~epsilon ~q ~lo ~hi sorted in
  let bins = 50 and draws = 50_000 in
  let observed = Array.make bins 0. in
  let g = Dp_rng.Prng.create seed in
  for _ = 1 to draws do
    let x = Quantile.estimate_sorted ~epsilon ~q ~lo ~hi sorted g in
    let b = min (bins - 1) (int_of_float (cdf x *. float_of_int bins)) in
    observed.(b) <- observed.(b) +. 1.
  done;
  Dp_stats.Gof.chi_square_gof
    ~expected:(Array.make bins (float_of_int draws /. float_of_int bins))
    ~observed

let test_quantile_exact_law () =
  let g = Dp_rng.Prng.create 42 in
  let uniform = Array.init 300 (fun _ -> Dp_rng.Prng.float g) in
  (* a tight cluster with five far outliers on each side: the cluster's
     gaps are ~1e-5 wide and the outliers' ~500, so blocks run far out *)
  let clustered =
    Array.init 300 (fun i ->
        if i < 5 then 1. +. Dp_rng.Prng.float g
        else if i < 10 then 999. -. Dp_rng.Prng.float g
        else 500. +. (0.01 *. Dp_rng.Prng.float g))
  in
  (* each setting's blocks span ceil(2/eps) >= 2 ranks, so rejection
     runs in every one; pinned statistic and p-value at seed 7 *)
  List.iter
    (fun (name, epsilon, q, hi, xs, statistic, p_value) ->
      let (r : Dp_stats.Gof.result) =
        quantile_chi2 ~epsilon ~q ~lo:0. ~hi xs ~seed:7
      in
      if r.p_value <= 0.001 then
        Alcotest.failf "%s: chi2 %.3f on 49 df, p = %.3g: releases do not follow the exact law"
          name r.statistic r.p_value;
      check_close ~tol:1e-6 (name ^ " statistic") statistic r.statistic;
      check_close ~tol:1e-6 (name ^ " p-value") p_value r.p_value)
    [
      ("uniform eps=0.05 q=0.5", 0.05, 0.5, 1., uniform, 52.506, 0.3397792);
      ("uniform eps=0.3 q=0.1", 0.3, 0.1, 1., uniform, 43.26, 0.7040436);
      ("clustered eps=1 q=0.5", 1., 0.5, 1000., clustered, 54.64, 0.2689427);
      ("clustered eps=0.2 q=0.97", 0.2, 0.97, 1000., clustered, 57.164, 0.1978285);
    ]

(* Half the rows at 0 and half at 0.5 on [0, 1], q = 0: the only
   non-empty gaps are [0, 0.5) at 4000 ranks from the target and
   [0.5, 1) at 8000, whose mass is about e^-2000 of the total. Unshifted
   weights would underflow to zero on both. *)
let test_quantile_far_ties () =
  let xs = Array.init 8000 (fun i -> if i < 4000 then 0. else 0.5) in
  let g = Dp_rng.Prng.create 11 in
  for _ = 1 to 1000 do
    let x = Quantile.estimate_sorted ~epsilon:1. ~q:0. ~lo:0. ~hi:1. xs g in
    if not (x >= 0. && x < 0.5) then
      Alcotest.failf "release %h outside [0, 0.5)" x
  done

(* An all-equal column on a bound has one non-empty gap, [lo, hi),
   up to n ranks from the target: every release lands in it, uniformly. *)
let test_quantile_all_equal () =
  let g = Dp_rng.Prng.create 12 in
  List.iter
    (fun (v, q) ->
      let xs = Array.make 5000 v in
      let draws =
        Array.init 2000 (fun _ ->
            Quantile.estimate_sorted ~epsilon:1. ~q ~lo:0. ~hi:1. xs g)
      in
      Array.iter
        (fun x ->
          if not (x >= 0. && x < 1.) then
            Alcotest.failf "column at %g, q = %g: release %h outside [0, 1)" v q x)
        draws;
      let r = Dp_stats.Gof.ks_one_sample ~cdf:(fun x -> x) draws in
      Alcotest.(check bool)
        (Printf.sprintf "column at %g, q = %g: uniform (KS p = %.3g)" v q r.p_value)
        true (r.p_value > 0.001))
    [ (0., 0.); (0., 0.5); (0., 1.); (1., 0.); (1., 0.5); (1., 1.) ]

(* ------------------------------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"logistic loss nonnegative and decreasing in margin"
      ~count:200
      (pair (float_range (-2.) 2.) (float_range (-2.) 2.))
      (fun (a, b) ->
        let v m = Loss_fn.logistic.Loss_fn.value ~theta:[| m |] ~x:[| 1. |] ~y:1. in
        let lo = Float.min a b and hi = Float.max a b in
        v lo >= v hi -. 1e-12 && v lo >= 0.);
    Test.make ~name:"clip stays in range" ~count:200
      (triple (float_range (-100.) 100.) (float_range (-1.) 1.)
         (float_range (-1.) 1.))
      (fun (t, x, y) ->
        let v = Loss_fn.clip Loss_fn.squared ~theta:[| t |] ~x:[| x |] ~y in
        v >= 0. && v <= 8.);
    Test.make ~name:"private mean within clamp range + noise scale"
      ~count:50
      (pair (int_range 0 10_000) (int_range 10 200))
      (fun (seed, n) ->
        let g = Dp_rng.Prng.create seed in
        let xs = Array.init n (fun _ -> Dp_rng.Prng.float g) in
        let v = Mean_estimator.laplace ~epsilon:1. ~lo:0. ~hi:1. xs g in
        (* mean in [0,1], noise has scale 1/(n eps) <= 0.1; 60 scales
           of slack make false failures negligible *)
        v > -6. && v < 7.);
    Test.make ~name:"noisy histogram never has negative counts" ~count:50
      (int_range 0 10_000)
      (fun seed ->
        let g = Dp_rng.Prng.create seed in
        let xs = Array.init 50 (fun _ -> Dp_rng.Prng.float g) in
        let e = Density.fit_private ~epsilon:0.5 ~lo:0. ~hi:1. ~bins:8 xs g in
        Array.for_all (fun c -> c >= 0.)
          e.Density.histogram.Dp_stats.Histogram.counts);
  ]

let () =
  Alcotest.run "dp_learn"
    [
      ( "losses",
        [
          Alcotest.test_case "logistic + gradients" `Quick test_logistic_loss;
          Alcotest.test_case "hinge" `Quick test_hinge_loss;
          Alcotest.test_case "zero-one & clip" `Quick test_zero_one_and_clip;
        ] );
      ( "erm",
        [
          Alcotest.test_case "learns" `Quick test_erm_learns;
          Alcotest.test_case "regularization" `Quick
            test_erm_regularization_shrinks;
          Alcotest.test_case "projection" `Quick test_erm_projected;
        ] );
      ( "private erm",
        [
          Alcotest.test_case "output perturbation" `Slow
            test_output_perturbation_accuracy_tradeoff;
          Alcotest.test_case "objective perturbation" `Slow
            test_objective_perturbation;
          Alcotest.test_case "gibbs" `Slow test_gibbs_erm;
          Alcotest.test_case "gibbs concentration" `Slow
            test_gibbs_posterior_concentration;
        ] );
      ( "mean & density",
        [
          Alcotest.test_case "mean estimator" `Quick test_mean_estimator;
          Alcotest.test_case "density estimation" `Quick
            test_density_estimation;
        ] );
      ( "ridge",
        [
          Alcotest.test_case "fit" `Quick test_ridge;
          Alcotest.test_case "private variants" `Slow test_ridge_private;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "exact law under chi-square" `Quick
            test_quantile_exact_law;
          Alcotest.test_case "far ties do not underflow" `Quick
            test_quantile_far_ties;
          Alcotest.test_case "all-equal column" `Quick test_quantile_all_equal;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
