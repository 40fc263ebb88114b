(** Private quantile estimation through the exponential mechanism —
    the canonical continuous-range instance of the paper's Theorem 2.3
    (McSherry–Talwar 2007's own motivating example was selection; the
    quantile version is Smith 2011's).

    The quality of a candidate output x for the q-quantile of data
    [D ⊂ [lo, hi]] is [−|#{i : dᵢ ≤ x} − q·n|]; its sensitivity under
    record replacement is 1, and the quality is piecewise constant
    between sorted data points, so the output density is a mixture of
    uniforms over the n + 1 gaps. Sorting the data costs O(n log n)
    and the gap log-lengths n logarithms; both depend on the data
    alone, so a caller that keeps them ({!estimate_sorted}) pays only
    the O(n) Gumbel-max draw per release. *)

val estimate :
  epsilon:float ->
  q:float ->
  lo:float ->
  hi:float ->
  float array ->
  Dp_rng.Prng.t ->
  float
(** [estimate ~epsilon ~q ~lo ~hi xs g]: one ε-DP release of the
    q-quantile. Data are clamped into [\[lo, hi\]], sorted, and handed
    to {!estimate_sorted}. The exponent is calibrated so that
    [2·exponent·Δq = ε] (paper normalization).
    @raise Invalid_argument on empty data, q outside [0,1], or
    [lo >= hi]. *)

val gap_log_lengths : lo:float -> hi:float -> float array -> float array
(** [gap_log_lengths ~lo ~hi sorted]: the n + 1 gap log-lengths of
    sorted data in [\[lo, hi\]] — gap k runs from the k-th order
    statistic ([lo] for k = 0) to the (k+1)-th ([hi] for k = n);
    [neg_infinity] marks an empty gap (ties). *)

val estimate_sorted :
  epsilon:float ->
  q:float ->
  lo:float ->
  hi:float ->
  log_gaps:float array ->
  float array ->
  Dp_rng.Prng.t ->
  float
(** [estimate_sorted ~epsilon ~q ~lo ~hi ~log_gaps sorted g]: the same
    release as {!estimate} on data that is already clamped into
    [\[lo, hi\]] and sorted by [compare], with
    [log_gaps = gap_log_lengths ~lo ~hi sorted]. Draws exactly what
    {!estimate} draws on the unsorted data, so the two agree bit for
    bit under the same generator state.
    @raise Invalid_argument as {!estimate}, or when [log_gaps] does not
    have n + 1 entries. *)

val exact : q:float -> float array -> float
(** Non-private comparison point (type-7 quantile). *)

val rank_error : q:float -> estimate:float -> float array -> int
(** |rank(estimate) − q·n|: the natural utility measure (how many
    ranks off the release is). *)
