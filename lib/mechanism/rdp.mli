(** Rényi differential privacy accounting.

    A mechanism is (α, ρ)-RDP when the Rényi divergence of order α
    between its output distributions on any neighbouring pair is ≤ ρ.
    RDP composes by addition at fixed α and converts to (ε, δ)-DP via
    [ε = ρ + log(1/δ)/(α−1)] (Mironov 2017) — for many-fold
    composition this is far tighter than both basic and advanced
    composition (experiment E18). The α → ∞ limit recovers pure ε-DP,
    connecting back to the max-divergence view in [Dp_info.Entropy]. *)

type curve = float -> float
(** An RDP curve: α ↦ ρ(α), defined for α > 1. *)

val gaussian : l2_sensitivity:float -> std:float -> curve
(** The Gaussian mechanism: [ρ(α) = α·Δ²/(2σ²)] — exact.
    @raise Invalid_argument for non-positive std or negative Δ. *)

val laplace : sensitivity:float -> epsilon:float -> curve
(** The Laplace mechanism with scale Δ/ε: exact closed form
    [ρ(α) = (1/(α−1))·log( (α/(2α−1))·e^{(α−1)ε} + ((α−1)/(2α−1))·e^{−αε} )].
    Tends to ε as α → ∞. *)

val pure_dp : epsilon:float -> curve
(** Any ε-DP mechanism satisfies [ρ(α) ≤ min(ε, 2αε²)]-ish; we use the
    standard safe bound ρ(α) = ε (valid for all α). *)

val compose : curve list -> curve
(** Addition at each order. *)

val scale : int -> curve -> curve
(** [scale k c] is k-fold composition of the same mechanism. *)

val alpha_grid : float array
(** The orders every conversion optimizes over: 1.05 to 3.6 in steps of
    0.15, then log-spaced from 4 up to 512. *)

val epsilon_on_grid : delta:float -> (int -> float) -> float
(** [epsilon_on_grid ~delta rho] is [min_i rho i + log(1/δ)/(α_i−1)]
    over [α_i = alpha_grid.(i)], where [rho i] is a curve's value at
    [α_i]: the conversion {!to_dp} makes, for a curve already summed
    pointwise on the grid. *)

val to_dp : delta:float -> curve -> Privacy.budget
(** Convert to (ε, δ)-DP, optimizing the order over {!alpha_grid}:
    [ε = min_α ρ(α) + log(1/δ)/(α−1)].
    @raise Invalid_argument for δ outside (0, 1). *)

val gaussian_sgm_epsilon :
  noise_multiplier:float -> steps:int -> delta:float -> float
(** Convenience for DP-SGD with full-batch-sensitivity-1 steps: the ε
    of [steps] compositions of a Gaussian mechanism with σ =
    noise_multiplier·Δ, via {!to_dp}. *)
