open Dp_math

let exact ~q xs = Dp_stats.Describe.quantile xs q

let rank_error ~q ~estimate xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quantile.rank_error: empty data";
  let rank = Array.fold_left (fun acc x -> if x <= estimate then acc + 1 else acc) 0 xs in
  abs (rank - int_of_float (Float.round (q *. float_of_int n)))

(* The quality is constant on each gap between consecutive order
   statistics, including the [lo, x_(1)] and [x_(n), hi] end gaps: gap
   k in [0, n] holds the outputs x with exactly k data points <= x. *)
let gap_bounds ~lo ~hi sorted k =
  let n = Array.length sorted in
  ( (if k = 0 then lo else sorted.(k - 1)),
    if k = n then hi else sorted.(k) )

let gap_log_lengths ~lo ~hi sorted =
  let n = Array.length sorted in
  let out = Array.make (n + 1) neg_infinity in
  for k = 0 to n do
    let a, b = gap_bounds ~lo ~hi sorted k in
    if b -. a > 0. then out.(k) <- log (b -. a)
  done;
  out

(* exponential mechanism over rank utility, implemented inline: a
   declared dataflow sanitizer (see lib/flow/spec.ml allowlist) *)
let[@dp.sanitizer] estimate_sorted ~epsilon ~q ~lo ~hi ~log_gaps sorted g =
  let epsilon = Numeric.check_pos "Quantile.estimate epsilon" epsilon in
  let q = Numeric.check_prob "Quantile.estimate q" q in
  if lo >= hi then invalid_arg "Quantile.estimate: lo >= hi";
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quantile.estimate: empty data";
  if Array.length log_gaps <> n + 1 then
    invalid_arg "Quantile.estimate_sorted: log_gaps must have n + 1 entries";
  let target = q *. float_of_int n in
  (* paper normalization: weight exp(exponent * quality), privacy
     2*exponent*dq with dq = 1 -> exponent = eps/2. Gap k has quality
     -(|k - target|) and measure its length. *)
  let exponent = epsilon /. 2. in
  (* a loop into a float array: a closure returning each weight would
     box it, and this runs once per gap on every release *)
  let log_weights = Array.make (n + 1) neg_infinity in
  for k = 0 to n do
    let log_len = log_gaps.(k) in
    if log_len > neg_infinity then
      log_weights.(k) <-
        (-.exponent *. Float.abs (float_of_int k -. target)) +. log_len
  done;
  let k = Dp_rng.Sampler.categorical_log ~log_weights g in
  let a, b = gap_bounds ~lo ~hi sorted k in
  Dp_rng.Sampler.uniform ~lo:a ~hi:b g

let estimate ~epsilon ~q ~lo ~hi xs g =
  if lo >= hi then invalid_arg "Quantile.estimate: lo >= hi";
  let sorted = Array.map (Numeric.clamp ~lo ~hi) xs in
  Array.stable_sort Float.compare sorted;
  estimate_sorted ~epsilon ~q ~lo ~hi
    ~log_gaps:(gap_log_lengths ~lo ~hi sorted)
    sorted g
