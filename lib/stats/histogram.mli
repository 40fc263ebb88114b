(** Fixed-width histograms.

    Histograms are both a statistics tool (empirical output
    distributions in the privacy auditor) and a learning object (the DP
    density estimator of experiment E9 releases noisy histogram
    counts). *)

type t = {
  lo : float;
  hi : float;
  bins : int;
  counts : float array;  (** may be fractional after noising *)
  total : float;  (** running total of counts (≥ 0 after clamping) *)
}

val create : lo:float -> hi:float -> bins:int -> t
(** Empty histogram on [\[lo, hi)].
    @raise Invalid_argument when [lo >= hi] or [bins <= 0]. *)

val bin_index : t -> float -> int option
(** The bin containing the value, or [None] when out of range. *)

val clamped_index : t -> float -> int
(** The bin {!add} and {!of_samples} count the value in: out-of-range
    values go to the edge bins. Non-decreasing in the value. *)

val add : t -> float -> t
(** Increment the bin containing the value; out-of-range values are
    clamped into the edge bins (so mass is never silently dropped). *)

val of_samples : lo:float -> hi:float -> bins:int -> float array -> t

val count : t -> int -> float

val probability : t -> int -> float
(** Normalized bin mass. @raise Invalid_argument when the histogram is
    empty. *)

val probabilities : t -> float array

val density : t -> int -> float
(** Probability divided by bin width: a piecewise-constant pdf. *)

val density_at : t -> float -> float
(** Density of the bin containing the point; 0 outside the range. *)

val bin_width : t -> float

val bin_center : t -> int -> float

val map_counts : (float -> float) -> t -> t
(** Transform each count (e.g. add Laplace noise); the result's counts
    are clamped at 0 and the total recomputed. *)

val l1_distance : t -> t -> float
(** L1 distance between the normalized histograms.
    @raise Invalid_argument on mismatched binning. *)

val total : t -> float
