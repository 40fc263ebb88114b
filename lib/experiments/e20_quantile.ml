(* E20 — private quantiles through the exponential mechanism: the
   standard continuous-output instance of Theorem 2.3, drawn by the
   exact rejection sampler over blocks of rank gaps. Utility = rank error; expected shape: rank
   error ~ O(log n / eps) independent of the data scale, and the
   Laplace-on-the-empirical-quantile strawman is far worse because its
   sensitivity is the whole data range. *)

let run ?(quick = false) ~seed fmt =
  let g = Dp_rng.Prng.create seed in
  let reps = if quick then 50 else 400 in
  let table =
    Table.create
      ~title:"E20: private median, mean rank error over releases"
      ~columns:
        [ "n"; "eps"; "exp-mech rank err"; "laplace rank err"; "exact value" ]
  in
  List.iter
    (fun n ->
      (* heavy-tailed data on [0, 100]: scale matters for the strawman *)
      let xs =
        Array.init n (fun _ ->
            Dp_math.Numeric.clamp ~lo:0. ~hi:100.
              (10. *. Dp_rng.Sampler.gamma ~shape:2. ~scale:1. g))
      in
      let exact = Dp_learn.Quantile.exact ~q:0.5 xs in
      List.iter
        (fun eps ->
          let em =
            Dp_math.Summation.mean
              (Array.init reps (fun _ ->
                   let est =
                     Dp_learn.Quantile.estimate ~epsilon:eps ~q:0.5 ~lo:0.
                       ~hi:100. xs g
                   in
                   float_of_int (Dp_learn.Quantile.rank_error ~q:0.5 ~estimate:est xs)))
          in
          (* strawman: empirical median + Laplace(range/eps) — the
             median's global sensitivity is the full range *)
          let lap =
            Dp_math.Summation.mean
              (Array.init reps (fun _ ->
                   let m =
                     Dp_mechanism.Laplace.create ~sensitivity:100. ~epsilon:eps
                   in
                   let est =
                     Dp_math.Numeric.clamp ~lo:0. ~hi:100.
                       (Dp_mechanism.Laplace.release m ~value:exact g)
                   in
                   float_of_int (Dp_learn.Quantile.rank_error ~q:0.5 ~estimate:est xs)))
          in
          Table.add_rowf table [ float_of_int n; eps; em; lap; exact ])
        [ 0.1; 0.5; 2. ])
    (if quick then [ 200 ] else [ 200; 2000 ]);
  Table.print fmt table;
  Format.fprintf fmt
    "(the exponential mechanism's rank error is tiny and ~independent@.\
    \ of n; the Laplace strawman, whose sensitivity is the whole data@.\
    \ range, is near-useless at small eps.)@."
