open Dp_math

let exact ~q xs = Dp_stats.Describe.quantile xs q

let rank_error ~q ~estimate xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quantile.rank_error: empty data";
  let rank = Array.fold_left (fun acc x -> if x <= estimate then acc + 1 else acc) 0 xs in
  abs (rank - int_of_float (Float.round (q *. float_of_int n)))

(* The quality is constant on each gap between consecutive order
   statistics, including the [lo, x_(1)] and [x_(n), hi] end gaps: gap
   k in [0, n] is [edge k, edge (k + 1)), the outputs x with exactly k
   data points <= x. A tie makes a gap empty. *)
let[@inline] edge ~lo ~hi sorted j =
  if j = 0 then lo else if j > Array.length sorted then hi else sorted.(j - 1)

(* The first j in [j0, j1) with edge j > v, or edge j >= v when
   [reach]; j1 if there is none. Edges do not decrease in j. *)
let first_edge ~lo ~hi sorted ~reach v j0 j1 =
  let a = ref j0 and b = ref j1 in
  while !a < !b do
    let mid = (!a + !b) / 2 in
    let e = edge ~lo ~hi sorted mid in
    if e > v || (reach && e = v) then b := mid else a := mid + 1
  done;
  !a

(* A run of gaps [first, last] and the total envelope of the regions
   built up to and including it. *)
type region = { first : int; last : int; upto : float }

(* Exponential mechanism over rank utility, sampled exactly by
   rejection: a declared dataflow sanitizer (see lib/flow/spec.ml
   allowlist).

   Paper normalization: weight exp(exponent * quality), privacy
   2 * exponent * dq with dq = 1, so exponent = eps / 2. Gap k has
   quality -d_k = -|k - target|, so the output density on gap k is
   proportional to exp(-exponent * d_k).

   Every exponent is measured from d_star, the distance of the nearest
   non-empty gap, so ties far from the target cannot underflow all
   the weights to zero. Gaps are grouped outward from the target into
   blocks of ceil(2 / eps) ranks; a block's envelope
   exp(-exponent * (d_min - d_star)) * span bounds its mass from above
   and is within a factor e of it. Blocks are added until the two
   remaining tails' envelopes sum to at most 2^-30 of those found, and
   each tail is one more region. A try picks a region in proportion
   to its envelope, draws x uniformly on its span and accepts x with
   probability exp(-exponent * (d_k - d_min)) for x's gap k, so an
   accepted x has exactly the mechanism's density. *)
let[@dp.sanitizer] estimate_sorted ~epsilon ~q ~lo ~hi sorted g =
  let epsilon = Numeric.check_pos "Quantile.estimate epsilon" epsilon in
  let q = Numeric.check_prob "Quantile.estimate q" q in
  if lo >= hi then invalid_arg "Quantile.estimate: lo >= hi";
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quantile.estimate: empty data";
  let edge = edge ~lo ~hi sorted and first_edge = first_edge ~lo ~hi sorted in
  let exponent = epsilon /. 2. and target = q *. float_of_int n in
  (* no region straddles the target, so this is its nearest rank's
     distance *)
  let d_min first last =
    Float.max (float_of_int first -. target) (target -. float_of_int last)
  in
  (* the nearest non-empty gap at or above k ([n + 1] if none), and at
     or below k ([-1] if none): one binary search over a run of ties *)
  let up k =
    if k > n || edge (k + 1) > edge k then k
    else first_edge ~reach:false (edge k) (k + 1) (n + 2) - 1
  in
  let down k =
    if k < 0 || edge (k + 1) > edge k then k
    else first_edge ~reach:true (edge (k + 1)) 0 k - 1
  in
  let split = int_of_float (Float.ceil target) in
  let right = ref (up split) and left = ref (down (split - 1)) in
  let d_star =
    Float.min
      (if !right > n then infinity else float_of_int !right -. target)
      (if !left < 0 then infinity else target -. float_of_int !left)
  in
  let envelope first last =
    let span = edge (last + 1) -. edge first in
    if span > 0. then exp (-.exponent *. (d_min first last -. d_star)) *. span
    else 0.
  in
  let width =
    if 2. /. epsilon > float_of_int n then n + 1
    else int_of_float (Float.ceil (2. /. epsilon))
  in
  let regions = ref [] and total = ref 0. in
  let add first last =
    let w = envelope first last in
    if w > 0. then begin
      total := !total +. w;
      regions := { first; last; upto = !total } :: !regions
    end
  in
  let tail_right () = if !right > n then 0. else envelope !right n in
  let tail_left () = if !left < 0 then 0. else envelope 0 !left in
  let tr = ref (tail_right ()) and tl = ref (tail_left ()) in
  while !tr +. !tl > 0x1p-30 *. !total do
    if !tr >= !tl then begin
      let last = min n (!right + width - 1) in
      add !right last;
      right := up (last + 1);
      tr := tail_right ()
    end
    else begin
      let first = max 0 (!left - width + 1) in
      add first !left;
      left := down (first - 1);
      tl := tail_left ()
    end
  done;
  if !right <= n then add !right n;
  if !left >= 0 then add 0 !left;
  (* the newest region is first; region r owns [next.upto, r.upto) *)
  let rec pick u r = function
    | next :: rest when u < next.upto -> pick u next rest
    | _ -> r
  in
  match !regions with
  | [] -> invalid_arg "Quantile.estimate: non-finite data"
  | newest :: older ->
      let rec draw () =
        let r = pick (Dp_rng.Prng.float g *. !total) newest older in
        let a = edge r.first and b = edge (r.last + 1) in
        let x = Dp_rng.Sampler.uniform ~lo:a ~hi:b g in
        if x >= b then draw ()
        else
          let k = first_edge ~reach:false x (r.first + 1) (r.last + 2) - 1 in
          let d_k = Float.abs (float_of_int k -. target) in
          if Dp_rng.Prng.float g < exp (-.exponent *. (d_k -. d_min r.first r.last))
          then x
          else draw ()
      in
      draw ()

let estimate ~epsilon ~q ~lo ~hi xs g =
  if lo >= hi then invalid_arg "Quantile.estimate: lo >= hi";
  let sorted = Array.map (Numeric.clamp ~lo ~hi) xs in
  Array.stable_sort Float.compare sorted;
  estimate_sorted ~epsilon ~q ~lo ~hi sorted g
