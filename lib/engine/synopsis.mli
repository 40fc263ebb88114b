(** Column synopses: a column's values in sorted order plus their sum,
    and the rank queries the planner answers from them.

    Count, histogram and cdf depend on a column only through its sorted
    order, the quantile's exponential mechanism only through its order
    statistics, and sum and mean only through the sum, so one
    O(n log n) build replaces a per-release scan or sort. Every answer
    is computed with the same float operations the scan made, so the
    counts and sums — and therefore the releases — are exactly the
    scan's. *)

type t = private {
  sorted : float array;  (** the column, sorted by [compare] *)
  sum : float;
      (** [Dp_math.Summation.sum] of the column in registration order,
          taken before the sort *)
  lo : float;
  hi : float;
}

val build : lo:float -> hi:float -> float array -> t
(** [build ~lo ~hi values] sorts a copy of [values], which must be
    finite and already clamped into [\[lo, hi\]], and sums [values]
    as given. *)

val mean : t -> float
(** [sum / n]: the [Dp_math.Summation.mean] of the column, bit for
    bit. *)

val rank_le : t -> float -> int
(** [#{v : v <= x}], by binary search. *)

val count : t -> Query.comparison -> float -> int
(** [count t op x]: how many values satisfy [v op x]. *)

val histogram : t -> bins:int -> float array
(** The [Dp_stats.Histogram.of_samples ~lo ~hi ~bins] counts of the
    column: cell i starts at the first value whose clamped bin index is
    at least i, one binary search per cell. *)
