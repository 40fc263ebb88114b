(** Query planning: sensitivity analysis and mechanism selection.

    The planner turns a {!Query.t} against a registered dataset into an
    executable release plan. Sensitivities come from the closed forms
    in [Dp_mechanism.Sensitivity] (Definition 2.2 of the paper):

    - count / predicate count: 1 (one record flips membership);
    - sum(col): [hi − lo] under record replacement;
    - mean(col): [(hi − lo)/n];
    - histogram / cdf: L1 sensitivity 2 (one record moves between two
      cells); the CDF is released as a noisy cell histogram whose
      cumulative sum is post-processed into a monotone CDF, which is
      far tighter than noising the k cumulative counts directly;
    - quantile: rank-quality sensitivity 1 inside the exponential
      mechanism of [Dp_learn.Quantile].

    Mechanism selection is policy-aware: integer-valued queries use the
    geometric mechanism (universally optimal for counts) under basic or
    advanced composition, and the discrete Gaussian under an RDP
    backend, where its Rényi curve composes tightly; real-valued
    queries use Laplace; quantiles use the exponential mechanism.

    Planning is split in two halves. {!spec} is purely static: it maps
    (schema, ε, query) to a mechanism, a sensitivity and a ledger
    charge without ever touching column data or drawing noise — this is
    what makes the privacy cost of a workload a property of the plans
    (paper Theorem 4.2: ε bounds the channel statically), and it is the
    engine of [dpkit analyze]. {!plan} attaches the data-dependent
    fresh-noise closure on top of an identically-priced spec, so a
    static analysis and a live run of the same workload charge the
    ledger bit-identically. The closure reads count, histogram, cdf
    and quantile off the column's {!Synopsis} (by rank, no per-release
    scan or sort) and sum and mean off one pass over the column. *)

type answer = Scalar of float | Vector of float array

type mechanism = Laplace | Geometric | Exponential | Discrete_gaussian

val mechanism_name : mechanism -> string

type spec = {
  query : Query.t;
  mechanism : mechanism;
  sensitivity : float;
  epsilon : float;  (** requested face-value ε of this release *)
  charge : Ledger.charge;
      (** what the ledger is asked for; for the discrete Gaussian this
          is the RDP-converted (ε, δ) at the policy's δ *)
}

type plan = {
  spec : spec;  (** the static half: pricing and mechanism choice *)
  run : Dp_rng.Prng.t -> answer;  (** one fresh noisy release *)
}

val spec : Registry.schema -> epsilon:float -> Query.t -> (spec, string) result
(** Static planning: no data access, no sampling. [Error] explains an
    unknown column, non-positive ε, a non-finite count threshold or
    cdf point, a quantile outside [\[0, 1\]], or a query/schema
    mismatch; it never raises. *)

val plan : Registry.dataset -> epsilon:float -> Query.t -> (plan, string) result
(** [plan ds ~epsilon q] = [spec (Registry.schema_of ds) ~epsilon q]
    plus the release closure; the charge is computed by the same code
    path in both, so they agree exactly. *)
