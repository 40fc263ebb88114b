(* Log2-bucketed latency histogram over non-negative integer
   observations (nanoseconds in practice). Bucket b holds values in
   [2^b, 2^(b+1)) with bucket 0 covering [0, 2); 64 buckets span the
   full int range. Everything is an int in a preallocated array, and the
   record path is a shift loop plus a handful of int stores — no boxing,
   no allocation — so instrumented code pays nanoseconds, not GC. *)

let n_buckets = 64

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : int;
  mutable min : int;
  mutable max : int;
}

let create () =
  { buckets = Array.make n_buckets 0; count = 0; sum = 0; min = max_int; max = 0 }

let reset t =
  Array.fill t.buckets 0 n_buckets 0;
  t.count <- 0;
  t.sum <- 0;
  t.min <- max_int;
  t.max <- 0

(* floor log2, via a binary search over int shifts (six steps cover
   the 63-bit range): int refs do not box, float/Int64 paths would. *)
let[@inline] bucket_of v =
  if v < 2 then 0
  else begin
    let x = ref v and b = ref 0 in
    if !x lsr 32 <> 0 then (x := !x lsr 32; b := 32);
    if !x lsr 16 <> 0 then (x := !x lsr 16; b := !b + 16);
    if !x lsr 8 <> 0 then (x := !x lsr 8; b := !b + 8);
    if !x lsr 4 <> 0 then (x := !x lsr 4; b := !b + 4);
    if !x lsr 2 <> 0 then (x := !x lsr 2; b := !b + 2);
    if !x lsr 1 <> 0 then b := !b + 1;
    !b
  end

let record t v =
  let v = if v > 0 then v else 0 in
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min then t.min <- v;
  if v > t.max then t.max <- v

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.min
let max_value t = t.max
let buckets t = Array.copy t.buckets

let mean t = if t.count = 0 then 0. else float_of_int t.sum /. float_of_int t.count

(* Midpoint representative of bucket b; strictly increasing in b, which
   is what makes quantile estimates monotone in q by construction. *)
let representative b = if b = 0 then 1. else 1.5 *. (2. ** float_of_int b)

let quantile t q =
  if t.count = 0 then 0.
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let target = int_of_float (ceil (q *. float_of_int t.count)) in
    let target = if target < 1 then 1 else target in
    let rec walk b acc =
      if b >= n_buckets then representative (n_buckets - 1)
      else
        let acc = acc + t.buckets.(b) in
        if acc >= target then representative b else walk (b + 1) acc
    in
    walk 0 0
  end

let merge a b =
  let t = create () in
  for i = 0 to n_buckets - 1 do
    t.buckets.(i) <- a.buckets.(i) + b.buckets.(i)
  done;
  t.count <- a.count + b.count;
  t.sum <- a.sum + b.sum;
  t.min <- (if a.min < b.min then a.min else b.min);
  t.max <- (if a.max > b.max then a.max else b.max);
  t

(* Observable equality: identical recorded streams (up to reordering)
   compare equal; empty histograms ignore the min sentinel. *)
let equal a b =
  a.count = b.count && a.sum = b.sum
  && (a.count = 0 || (a.min = b.min && a.max = b.max))
  && a.buckets = b.buckets

let of_buckets ~count ~sum ~min_v ~max_v pairs =
  let t = create () in
  List.iter
    (fun (b, n) ->
      if b >= 0 && b < n_buckets && n > 0 then t.buckets.(b) <- t.buckets.(b) + n)
    pairs;
  t.count <- count;
  t.sum <- sum;
  t.min <- (if count = 0 then max_int else min_v);
  t.max <- max_v;
  t

let nonzero t =
  let acc = ref [] in
  for b = n_buckets - 1 downto 0 do
    if t.buckets.(b) > 0 then acc := (b, t.buckets.(b)) :: !acc
  done;
  !acc
