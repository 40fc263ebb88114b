(** Private quantile estimation through the exponential mechanism —
    the canonical continuous-range instance of the paper's Theorem 2.3
    (McSherry–Talwar 2007's own motivating example was selection; the
    quantile version is Smith 2011's).

    The quality of a candidate output x for the q-quantile of data
    [D ⊂ [lo, hi]] is [−|#{i : dᵢ ≤ x} − q·n|]; its sensitivity under
    record replacement is 1, and the quality is piecewise constant
    between sorted data points, so the output density is a mixture of
    uniforms over the n + 1 gaps. Sorting the data costs O(n log n)
    and depends on the data alone, so a caller that keeps the sorted
    column ({!estimate_sorted}) pays only an exact rejection draw per
    release: O(blocks + log n) for about 2/ε-rank blocks outward from
    the target rank, not a pass over every gap. *)

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

val estimate_sorted :
  epsilon:float ->
  q:float ->
  lo:float ->
  hi:float ->
  float array ->
  Dp_rng.Prng.t ->
  float
(** [estimate_sorted ~epsilon ~q ~lo ~hi sorted g]: the same release
    as {!estimate} on data that is already clamped into [\[lo, hi\]]
    and sorted by [compare]. Draws exactly what {!estimate} draws on
    the unsorted data, so the two agree bit for bit under the same
    generator state.

    The draw is exact, not an approximation of the mechanism: gaps are
    grouped into blocks of ⌈2/ε⌉ ranks outward from q·n, each block's
    envelope (its largest density times its span) is within a factor e
    of its mass, and a uniform point of a block picked by envelope is
    accepted with its density over the envelope's. Exponents are
    measured from the nearest non-empty gap, so heavy ties far from
    the target cannot underflow the weights. Blocks stop once the two
    remaining tails' envelopes are at most 2⁻³⁰ of those found; each
    tail is one more region. How many blocks and tries a release takes
    depends on the data (see docs/ENGINE.md, timing).
    @raise Invalid_argument as {!estimate}. *)

val exact : q:float -> float array -> float
(** Non-private comparison point (type-7 quantile). *)

val rank_error : q:float -> estimate:float -> float array -> int
(** |rank(estimate) − q·n|: the natural utility measure (how many
    ranks off the release is). *)
