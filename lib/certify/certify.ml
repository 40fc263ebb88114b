open Dp_engine
open Dp_mechanism

exception Draw_failed of string

type source = {
  name : string;
  eps : float;
  delta : float;
  bucket : float -> int;
  label : int -> string;
  llr : (float -> float) option;
  bin_prob : (int -> float) option;
  draw1 : Dp_rng.Prng.t -> float;
  draw2 : Dp_rng.Prng.t -> float;
}

type samples = { a : float array; b : float array }

let collect ~trials source g =
  if trials <= 0 then invalid_arg "Certify.collect: trials must be positive";
  (* split per side so the two streams stay independent of trial count *)
  let g1 = Dp_rng.Prng.split g in
  let g2 = Dp_rng.Prng.split g in
  let a = Array.make trials 0. and b = Array.make trials 0. in
  for i = 0 to trials - 1 do
    a.(i) <- source.draw1 g1
  done;
  for i = 0 to trials - 1 do
    b.(i) <- source.draw2 g2
  done;
  { a; b }

type check = { check : string; ok : bool; detail : string }

type report = {
  source : string;
  trials : int;
  eps_claimed : float;
  delta_claimed : float;
  alpha : float;
  eps_hat : float;
  eps_lb : float;
  checks : check list;
  ok : bool;
}

(* (ε, δ)-DP bounds total variation: P(S) ≤ e^ε Q(S) + δ on every
   event and symmetrically, which maximizes at
   TV ≤ (e^ε − 1 + 2δ)/(e^ε + 1) — tanh(ε/2) at δ = 0. *)
let tv_bound ~eps ~delta =
  let e = exp eps in
  if Float.is_finite e then Float.min 1. ((e -. 1. +. (2. *. delta)) /. (e +. 1.))
  else 1.

(* One-sided DKW fluctuation of an empirical CDF at confidence α. *)
let dkw ~n ~alpha = sqrt (log (2. /. alpha) /. (2. *. float_of_int n))

let lr_check ~alpha source s =
  let lr =
    Lr_test.run ~eps:source.eps ~delta:source.delta ~alpha ~label:source.label
      ~bucket:source.bucket s.a s.b
  in
  ( lr,
    {
      check = "lr";
      ok = lr.Lr_test.ok;
      detail =
        Printf.sprintf "outcomes=%d eps-lb=%.6f violations=%d"
          lr.Lr_test.distinct lr.Lr_test.eps_lb lr.Lr_test.violations;
    } )

let ks_check ~alpha source s =
  let r = Dp_stats.Gof.ks_two_sample s.a s.b in
  let bound =
    tv_bound ~eps:source.eps ~delta:source.delta
    +. dkw ~n:(Array.length s.a) ~alpha
    +. dkw ~n:(Array.length s.b) ~alpha
  in
  {
    check = "ks";
    ok = r.Dp_stats.Gof.statistic <= bound;
    detail =
      Printf.sprintf "statistic=%.6f bound=%.6f p-same=%.4f"
        r.Dp_stats.Gof.statistic bound r.Dp_stats.Gof.p_value;
  }

(* χ² of the observed outcome counts on D against the claimed model's
   closed-form distribution. Low-expectation buckets (and the never-
   observed remainder of the support) pool into one cell, keeping the
   χ² approximation honest. *)
let model_check ~alpha source s =
  match source.bin_prob with
  | None -> None
  | Some prob ->
      let n = Array.length s.a in
      let fn = float_of_int n in
      let counts = Hashtbl.create 64 in
      Array.iter
        (fun v ->
          let k = source.bucket v in
          Hashtbl.replace counts k
            (1 + try Hashtbl.find counts k with Not_found -> 0))
        s.a;
      let keys = List.sort compare (Hashtbl.fold (fun k _ l -> k :: l) counts []) in
      let kept, pooled_obs, kept_p =
        List.fold_left
          (fun (kept, pooled, kp) k ->
            let o = float_of_int (Hashtbl.find counts k) in
            let p = prob k in
            let e = fn *. p in
            if e >= 5. then ((e, o) :: kept, pooled, kp +. p)
            else (kept, pooled +. o, kp))
          ([], 0., 0.) keys
      in
      let rest_p = Float.max 0. (1. -. kept_p) in
      let cells =
        if rest_p > 0. || pooled_obs > 0. then
          (Float.max (fn *. rest_p) (fn *. 1e-12), pooled_obs) :: kept
        else kept
      in
      if List.length cells < 2 then
        Some
          {
            check = "model";
            ok = true;
            detail = "degenerate (single outcome cell)";
          }
      else
        let expected = Array.of_list (List.map fst cells) in
        let observed = Array.of_list (List.map snd cells) in
        let r = Dp_stats.Gof.chi_square_gof ~expected ~observed in
        Some
          {
            check = "model";
            ok = r.Dp_stats.Gof.p_value >= alpha;
            detail =
              Printf.sprintf "cells=%d statistic=%.4f p=%.4f"
                (Array.length expected) r.Dp_stats.Gof.statistic
                r.Dp_stats.Gof.p_value;
          }

let tail_check ~alpha source s =
  match source.llr with
  | None -> None
  | Some llr ->
      let k, lo, hi = Lr_test.loss_tail ~llr ~eps:source.eps ~alpha s.a in
      Some
        {
          check = "tail";
          ok = lo <= source.delta;
          detail =
            Printf.sprintf "beyond-eps=%d mass=[%.6f,%.6f] delta=%.2e" k lo hi
              source.delta;
        }

let analyze ?(alpha = 0.05) source s =
  (* the verdict is the conjunction of up to four tests, so each runs at
     a Bonferroni share of α — a truly (ε, δ)-DP face fails the *whole*
     certification with probability at most α *)
  let a = alpha /. 4. in
  let lr, lr_c = lr_check ~alpha:a source s in
  let checks =
    [ Some lr_c; Some (ks_check ~alpha:a source s);
      model_check ~alpha:a source s; tail_check ~alpha:a source s ]
    |> List.filter_map Fun.id
  in
  {
    source = source.name;
    trials = Array.length s.a;
    eps_claimed = source.eps;
    delta_claimed = source.delta;
    alpha;
    eps_hat = lr.Lr_test.eps_hat;
    eps_lb = lr.Lr_test.eps_lb;
    checks;
    ok = List.for_all (fun (c : check) -> c.ok) checks;
  }

let run ?alpha ~trials source g = analyze ?alpha source (collect ~trials source g)

let verdict_line r =
  let status (c : check) = if c.ok then "ok" else "FAIL" in
  let checks =
    String.concat ","
      (List.map (fun c -> Printf.sprintf "%s:%s" c.check (status c)) r.checks)
  in
  if r.ok then
    Printf.sprintf
      "ok certified source=%s trials=%d eps-claimed=%.6f eps-hat=%.6f \
       eps-lb=%.6f alpha=%.6f checks=%s"
      r.source r.trials r.eps_claimed r.eps_hat r.eps_lb r.alpha checks
  else
    Printf.sprintf
      "err certify-failed source=%s trials=%d eps-claimed=%.6f eps-hat=%.6f \
       eps-lb=%.6f alpha=%.6f checks=%s failed=%s"
      r.source r.trials r.eps_claimed r.eps_hat r.eps_lb r.alpha checks
      (String.concat ","
         (List.filter_map
            (fun (c : check) -> if c.ok then None else Some c.check)
            r.checks))

(* ------------------------------------------------------------------ *)
(* Crash-recovery comparison *)

type recovery = {
  n : int;
  match_fraction : float;
  ks : Dp_stats.Gof.result;
  chi2 : Dp_stats.Gof.result option;
  reuse : bool;
  drifted : bool;
  recovery_ok : bool;
}

(* Distribution tests cannot see a replayed noise stream — a restart
   that re-serves the pre-crash draws has exactly the right
   distribution. Positional equality can: two independent continuous
   (or wide discrete) streams essentially never agree coordinate-wise,
   so a high match fraction is the signature of noise reuse. *)
let recovery_check ?(alpha = 0.05) ?bucket ~pre ~post () =
  let n1 = Array.length pre and n2 = Array.length post in
  if n1 = 0 || n2 = 0 then invalid_arg "Certify.recovery_check: empty sample";
  let n = min n1 n2 in
  let matches = ref 0 in
  for i = 0 to n - 1 do
    if pre.(i) = post.(i) then incr matches
  done;
  let match_fraction = float_of_int !matches /. float_of_int n in
  let ks = Dp_stats.Gof.ks_two_sample pre post in
  let chi2 =
    Option.map
      (fun bucket ->
        let lo = ref max_int and hi = ref min_int in
        let key v = bucket v in
        Array.iter (fun v -> let k = key v in lo := min !lo k; hi := max !hi k) pre;
        Array.iter (fun v -> let k = key v in lo := min !lo k; hi := max !hi k) post;
        let width = !hi - !lo + 1 in
        let count xs =
          let c = Array.make width 0. in
          Array.iter (fun v -> let k = key v - !lo in c.(k) <- c.(k) +. 1.) xs;
          c
        in
        Dp_stats.Gof.chi_square_two_sample (count pre) (count post))
      bucket
  in
  let reuse = n >= 10 && match_fraction >= 0.9 in
  let drifted =
    ks.Dp_stats.Gof.p_value < alpha
    || match chi2 with
       | Some r -> r.Dp_stats.Gof.p_value < alpha
       | None -> false
  in
  { n; match_fraction; ks; chi2; reuse; drifted;
    recovery_ok = (not reuse) && not drifted }

let recovery_line r =
  let chi2 =
    match r.chi2 with
    | Some c -> Printf.sprintf " chi2-p=%.4f" c.Dp_stats.Gof.p_value
    | None -> ""
  in
  if r.recovery_ok then
    Printf.sprintf
      "ok certified recovery n=%d match-fraction=%.4f ks-p=%.4f%s" r.n
      r.match_fraction r.ks.Dp_stats.Gof.p_value chi2
  else
    Printf.sprintf
      "err certify-failed recovery n=%d match-fraction=%.4f ks-p=%.4f%s \
       failed=%s"
      r.n r.match_fraction r.ks.Dp_stats.Gof.p_value chi2
      (String.concat ","
         ((if r.reuse then [ "noise-reuse" ] else [])
         @ if r.drifted then [ "distribution-drift" ] else []))

(* ------------------------------------------------------------------ *)
(* In-process sources: the real served release path (Planner.plan on
   Registry datasets), on the canonical BASE~flip0 neighbour pair. *)

type broken = [ `None | `Half_scale ]

let huge_budget = Privacy.approx ~epsilon:1e12 ~delta:0.5

let iround v = int_of_float (Float.round v)

let grid_bucket ~mid ~width v =
  int_of_float (Float.floor ((v -. mid) /. width))

let scalar_value (ds : Registry.dataset) query =
  let col name =
    match Registry.column ds name with
    | Some c -> c
    | None -> invalid_arg "Certify: missing column"
  in
  match query with
  | Query.Count None -> Some (float_of_int ds.Registry.rows)
  | Query.Count (Some { column; op; threshold }) ->
      Some
        (float_of_int
           (Synopsis.count (Registry.synopsis ds (col column)) op threshold))
  | Query.Sum { column } ->
      Some (Dp_math.Summation.sum (col column).Registry.values)
  | Query.Mean { column } ->
      Some (Dp_math.Summation.mean (col column).Registry.values)
  | _ -> None

(* Mean of a small pilot of releases per coordinate, used only to pick
   the projection coordinate for vector answers (post-processing, so
   any projection is privacy-safe to certify). *)
let pilot_means run g =
  let reps = 64 in
  let acc = ref [||] in
  for _ = 1 to reps do
    match run g with
    | Planner.Vector v ->
        if Array.length !acc = 0 then acc := Array.make (Array.length v) 0.;
        Array.iteri (fun i x -> !acc.(i) <- !acc.(i) +. x) v
    | Planner.Scalar _ -> invalid_arg "Certify: scalar answer in vector pilot"
  done;
  Array.map (fun s -> s /. float_of_int reps) !acc

let project j = function
  | Planner.Scalar v -> v
  | Planner.Vector v ->
      if j < Array.length v then v.(j)
      else raise (Draw_failed "projection index out of range")

let of_query ?(rows = 64) ?(backend = `Basic) ?(break_ = `None) ~seed ~eps
    query =
  if eps <= 0. || not (Float.is_finite eps) then
    Error "certify: eps must be positive and finite"
  else
    let policy =
      {
        (Registry.default_policy ~total:huge_budget) with
        Registry.cache = false;
        backend =
          (match backend with
          | `Basic -> Ledger.Basic
          | `Rdp delta -> Ledger.Rdp { delta });
      }
    in
    let data_seed = seed lxor 0x43455254 (* "CERT" *) in
    let base = "certify" in
    match
      ( Registry.synthetic ~name:base ~rows ~policy  (* flow:allow F3 — certify seeds the engine under test *)
          (Dp_rng.Prng.create data_seed),
        Registry.synthetic ~name:(base ^ "~flip0") ~rows ~policy  (* flow:allow F3 — neighbour pair shares the data seed *)
          (Dp_rng.Prng.create data_seed) )
    with
    | exception Invalid_argument msg -> Error msg
    | ds1, ds2 -> (
        (* a deliberately broken mechanism under test: half-scale noise
           is the mechanism calibrated for 2ε served under a claim of ε *)
        let mech_eps = match break_ with `None -> eps | `Half_scale -> 2. *. eps in
        match
          (Planner.plan ds1 ~epsilon:mech_eps query,
           Planner.plan ds2 ~epsilon:mech_eps query)
        with
        | Error msg, _ | _, Error msg -> Error msg
        | Ok p1, Ok p2 ->
            let name = Query.normalize query in
            let v1 = scalar_value ds1 query and v2 = scalar_value ds2 query in
            let delta =
              match (backend, query) with
              | `Rdp _, Query.Quantile _ -> 0.
              | `Rdp d, _ -> d
              | `Basic, _ -> 0.
            in
            let default =
              {
                name;
                eps;
                delta;
                bucket = iround;
                label = string_of_int;
                llr = None;
                bin_prob = None;
                draw1 = (fun g -> project 0 (p1.Planner.run g));
                draw2 = (fun g -> project 0 (p2.Planner.run g));
              }
            in
            let source =
              match (query, backend, v1, v2) with
              | Query.Count _, `Basic, Some c1, Some c2 ->
                  let m = Geometric_mech.create ~sensitivity:1 ~epsilon:eps in
                  let c1 = iround c1 and c2 = iround c2 in
                  {
                    default with
                    llr =
                      Some
                        (fun y ->
                          Geometric_mech.log_likelihood_ratio m ~value1:c1
                            ~value2:c2 (iround y));
                    bin_prob = Some (fun k -> Geometric_mech.pmf m ~value:c1 k);
                  }
              | Query.Count _, `Rdp d, Some c1, Some c2 ->
                  let sigma = sqrt (2. *. log (1.25 /. d)) /. eps in
                  let m = Discrete_gaussian.create ~sensitivity:1 ~sigma in
                  let claimed = Discrete_gaussian.budget m ~delta:d in
                  let c1 = iround c1 and c2 = iround c2 in
                  {
                    default with
                    eps = claimed.Privacy.epsilon;
                    delta = claimed.Privacy.delta;
                    llr =
                      Some
                        (fun y ->
                          Discrete_gaussian.log_likelihood_ratio m ~value1:c1
                            ~value2:c2 (iround y));
                    bin_prob =
                      Some (fun k -> Discrete_gaussian.pmf m (k - c1));
                  }
              | (Query.Sum _ | Query.Mean _), `Basic, Some f1, Some f2 ->
                  let sens = p1.Planner.spec.Planner.sensitivity in
                  let m = Laplace.create ~sensitivity:sens ~epsilon:eps in
                  let mid = 0.5 *. (f1 +. f2) in
                  let width = 0.5 *. Laplace.scale m in
                  let bucket = grid_bucket ~mid ~width in
                  {
                    default with
                    bucket;
                    llr =
                      Some
                        (fun y ->
                          Laplace.log_likelihood_ratio m ~value1:f1 ~value2:f2 y);
                    bin_prob =
                      Some
                        (fun k ->
                          let lo = mid +. (float_of_int k *. width) in
                          Laplace.cdf m ~value:f1 (lo +. width)
                          -. Laplace.cdf m ~value:f1 lo);
                  }
              | Query.Quantile { column; _ }, _, _, _ ->
                  let c =
                    match Registry.column ds1 column with
                    | Some c -> c
                    | None -> invalid_arg "Certify: missing column"
                  in
                  let width = (c.Registry.hi -. c.Registry.lo) /. 64. in
                  { default with bucket = grid_bucket ~mid:c.Registry.lo ~width }
              | (Query.Histogram _ | Query.Cdf _), _, _, _ ->
                  (* vector answer: certify the coordinate the neighbour
                     pair moves most (a fixed post-processing) *)
                  let gp = Dp_rng.Prng.create (data_seed lxor 0x50494c54) in
                  let m1 = pilot_means p1.Planner.run gp in
                  let m2 = pilot_means p2.Planner.run gp in
                  let j = ref 0 in
                  Array.iteri
                    (fun i x ->
                      if Float.abs (x -. m2.(i)) > Float.abs (m1.(!j) -. m2.(!j))
                      then j := i)
                    m1;
                  let j = !j in
                  let mid = 0.5 *. (m1.(j) +. m2.(j)) in
                  let width = Float.max (0.5 /. eps) 1e-6 in
                  {
                    default with
                    bucket = grid_bucket ~mid ~width;
                    draw1 = (fun g -> project j (p1.Planner.run g));
                    draw2 = (fun g -> project j (p2.Planner.run g));
                  }
              | _ -> default
            in
            Ok source)

(* ------------------------------------------------------------------ *)
(* The train face: the Gibbs posterior over a finite predictor grid is
   the engine's training mechanism (paper Theorem 4.1 — the exponential
   mechanism with quality −R̂), and its posterior probabilities are
   computable, so the certification gets exact closed forms. *)

let gibbs_source ?(predictors = 17) ?(rows = 64) ?(break_ = `None) ~seed ~eps
    () =
  if eps <= 0. || not (Float.is_finite eps) then
    Error "certify: eps must be positive and finite"
  else if predictors < 2 then Error "certify: need at least 2 predictors"
  else
    let policy = { (Registry.default_policy ~total:huge_budget) with cache = false } in
    let data_seed = seed lxor 0x43455254 in
    match
      ( Registry.synthetic ~name:"certify" ~rows ~policy
          (Dp_rng.Prng.create data_seed),
        Registry.synthetic ~name:"certify~flip0" ~rows ~policy
          (Dp_rng.Prng.create data_seed) )
    with
    | exception Invalid_argument msg -> Error msg
    | ds1, ds2 ->
        let col ds name =
          match Registry.column ds name with
          | Some c -> c.Registry.values
          | None -> invalid_arg "Certify: missing column"
        in
        let thresholds =
          Array.init predictors (fun i ->
              -4. +. (8. *. float_of_int i /. float_of_int (predictors - 1)))
        in
        let risk ds =
          let score = col ds "score" and income = col ds "income" in
          let n = Array.length score in
          fun t ->
            let wrong = ref 0 in
            for i = 0 to n - 1 do
              let predicted = score.(i) > t and actual = income.(i) > 50_000. in
              if predicted <> actual then incr wrong
            done;
            float_of_int !wrong /. float_of_int n
        in
        (* ΔR̂ = 1/n under record replacement; Theorem 4.1 gives privacy
           2βΔR̂, so β = ε·n/2 realizes the claimed ε. The deliberately
           broken half-scale variant *samples* from the 2ε posterior
           while the closed forms keep describing the claimed ε one —
           the model check must notice the mismatch. *)
        let fit ~at ds =
          let n = Array.length (col ds "score") in
          Dp_pac_bayes.Gibbs.fit ~predictors:thresholds
            ~beta:(at *. float_of_int n /. 2.)
            ~empirical_risk:(risk ds) ()
        in
        let run_eps =
          match break_ with `None -> eps | `Half_scale -> 2. *. eps
        in
        let g1 = fit ~at:run_eps ds1 and g2 = fit ~at:run_eps ds2 in
        let c1 = fit ~at:eps ds1 and c2 = fit ~at:eps ds2 in
        let lp1 = Dp_pac_bayes.Gibbs.log_probabilities c1 in
        let lp2 = Dp_pac_bayes.Gibbs.log_probabilities c2 in
        let p1 = Dp_pac_bayes.Gibbs.probabilities c1 in
        let index_of t =
          let j = ref 0 in
          Array.iteri (fun i x -> if x = t then j := i) thresholds;
          !j
        in
        Ok
          {
            name = "train";
            eps;
            delta = 0.;
            bucket = iround;
            label = string_of_int;
            llr =
              Some
                (fun y ->
                  let k = iround y in
                  if k < 0 || k >= predictors then nan else lp1.(k) -. lp2.(k));
            bin_prob =
              Some (fun k -> if k < 0 || k >= predictors then 0. else p1.(k));
            draw1 =
              (fun g -> float_of_int (index_of (Dp_pac_bayes.Gibbs.sample g1 g)));
            draw2 =
              (fun g -> float_of_int (index_of (Dp_pac_bayes.Gibbs.sample g2 g)));
          }

(* ------------------------------------------------------------------ *)
(* The stream append face: the tree-mechanism continual counter at the
   one prefix that decomposes into a single dyadic node. With horizon 8
   the first four appends close exactly the level-2 block [1..4], so
   read(4) is the true prefix count plus one Laplace(1/ε) node draw — a
   clean scalar face for the per-node closed forms. The neighbour pair
   flips the first bit (event-level adjacency), moving that node's true
   sum by 1. Every release runs the real Counter prepare/commit path;
   the extra lower-level node draws are burned deterministically. *)

let stream_source ?(break_ = `None) ~eps () =
  if eps <= 0. || not (Float.is_finite eps) then
    Error "certify: eps must be positive and finite"
  else
    let bits1 = [ 1; 0; 1; 1 ] and bits2 = [ 0; 0; 1; 1 ] in
    (* half-scale breakage: the counter calibrated for 2ε (scale 1/2ε)
       served under a claim of ε *)
    let run_eps = match break_ with `None -> eps | `Half_scale -> 2. *. eps in
    let release bits g =
      let c = Dp_stream.Counter.create ~epsilon:run_eps ~horizon:8 in
      let scale = Dp_stream.Counter.noise_scale c in
      List.iter
        (fun bit ->
          let nodes =
            Dp_stream.Counter.prepare c ~bit ~noise:(fun () ->
                Dp_rng.Sampler.laplace ~mean:0. ~scale g)
          in
          Dp_stream.Counter.commit c ~bit nodes)
        bits;
      Dp_stream.Counter.read c
    in
    let f1 = float_of_int (List.fold_left ( + ) 0 bits1) in
    let f2 = float_of_int (List.fold_left ( + ) 0 bits2) in
    let m = Laplace.create ~sensitivity:1. ~epsilon:eps in
    let mid = 0.5 *. (f1 +. f2) in
    let width = 0.5 *. Laplace.scale m in
    Ok
      {
        name = "stream";
        eps;
        delta = 0.;
        bucket = grid_bucket ~mid ~width;
        label = string_of_int;
        llr =
          Some (fun y -> Laplace.log_likelihood_ratio m ~value1:f1 ~value2:f2 y);
        bin_prob =
          Some
            (fun k ->
              let lo = mid +. (float_of_int k *. width) in
              Laplace.cdf m ~value:f1 (lo +. width) -. Laplace.cdf m ~value:f1 lo);
        draw1 = release bits1;
        draw2 = release bits2;
      }
