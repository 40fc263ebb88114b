type t = { sorted : float array; sum : float; lo : float; hi : float }

let build ~lo ~hi values =
  let sorted = Array.copy values in
  Array.stable_sort Float.compare sorted;
  { sorted; sum = Dp_math.Summation.sum values; lo; hi }

(* as [Summation.mean] divides the same sum, so means stay bit-identical *)
let mean t = t.sum /. float_of_int (Array.length t.sorted)

(* The first index whose value satisfies [p], for a [p] that is false
   then true along the sorted order; [n] when it never holds. *)
let first t p =
  let lo = ref 0 and hi = ref (Array.length t.sorted) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if p t.sorted.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

let rank_le t x = first t (fun v -> not (v <= x))
let rank_lt t x = first t (fun v -> not (v < x))

let count t op x =
  let n = Array.length t.sorted in
  match op with
  | Query.Le -> rank_le t x
  | Query.Lt -> rank_lt t x
  | Query.Ge -> n - rank_lt t x
  | Query.Gt -> n - rank_le t x

let histogram t ~bins =
  let h = Dp_stats.Histogram.create ~lo:t.lo ~hi:t.hi ~bins in
  (* starts.(i) = first value whose bin is >= i; the bin index is
     non-decreasing in the value, so this partitions the sorted column
     exactly as [of_samples] buckets it *)
  let starts =
    Array.init (bins + 1) (fun i ->
        first t (fun v -> Dp_stats.Histogram.clamped_index h v >= i))
  in
  Array.init bins (fun i -> float_of_int (starts.(i + 1) - starts.(i)))
