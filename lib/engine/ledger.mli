(** The engine's budget ledger.

    Wraps [Dp_mechanism.Privacy.Accountant] (used verbatim for the
    per-analyst sub-budgets) and generalizes the global accounting to
    three composition backends:

    - [Basic]: ε and δ add (Theorem 2.4-style sequential composition).
    - [Advanced]: the heterogeneous advanced-composition bound
      [ε* = √(2 ln(1/δ') Σεᵢ²) + Σ εᵢ(e^{εᵢ}−1)], δ* = Σδᵢ + δ'
      (Dwork–Rothblum–Vadhan), reported as the minimum of this and the
      basic bound — both are valid, so the minimum is.
    - [Rdp]: Rényi accounting — each charge carries an RDP curve
      (charges without one are wrapped as pure-DP curves), curves are
      accumulated on a fixed α-grid, and spent ε is the best
      [(ε, δ)] conversion over the grid (Mironov 2017), again floored
      by the basic bound.

    All accounting state is O(1) in the number of charges, so the
    ledger sustains serving-rate traffic. Overdrafts are rejected
    structurally with {!rejection} — never a stringly [Failure]. *)

open Dp_mechanism

type backend = Basic | Advanced of { slack : float } | Rdp of { delta : float }

type charge = { budget : Privacy.budget; rdp : Rdp.curve option }
(** One release: its face-value (ε, δ) and, when known, a tighter RDP
    curve for the [Rdp] backend. *)

type rejection = {
  requested : Privacy.budget;
  remaining : Privacy.budget;
      (** remaining global budget, or the analyst's remaining sub-budget
          when [analyst] is set *)
  analyst : string option;
      (** [Some a] when the analyst sub-budget was the binding
          constraint rather than the global budget *)
}

type t

val create :
  total:Privacy.budget -> backend:backend -> ?analyst_epsilon:float -> unit -> t
(** [analyst_epsilon] caps each analyst's individual ε spend (tracked
    with a per-analyst [Privacy.Accountant] under basic composition).
    @raise Invalid_argument on an invalid backend parameter (advanced
    slack outside (0,1), RDP δ outside (0,1)) or non-positive
    [analyst_epsilon]. *)

val spend : t -> ?analyst:string -> charge -> (unit, rejection) result
(** Atomically charge the global ledger and (when configured) the
    analyst sub-budget; on [Error] nothing is charged. *)

val can_afford : t -> ?analyst:string -> charge -> bool
val spent : t -> Privacy.budget
(** Composed spend under the configured backend. Monotone in charges. *)

val remaining : t -> Privacy.budget
val total : t -> Privacy.budget
val backend : t -> backend
val n_charges : t -> int

val analyst_spent : t -> string -> Privacy.budget
(** Zero for an analyst never seen (or when no sub-budgets are set). *)

val pp_backend : Format.formatter -> backend -> unit

val preview : total:Privacy.budget -> backend:backend -> charge list -> Privacy.budget
(** Composed spend of a hypothetical charge sequence under [backend],
    with no affordability gate — the static ε-odometer of
    [dpkit analyze]. Applies exactly the accumulator updates of a live
    {!spend} sequence, so a workload's previewed total is bit-identical
    to the {!spent} of a ledger that served it.
    @raise Invalid_argument on an invalid backend parameter. *)

(** {2 Durable replay}

    The journal cannot serialize an RDP curve (a closure), but the
    ledger only ever evaluates curves on its fixed α-grid — so the
    grid-evaluated array is a complete, serializable substitute. *)

val rho_of_charge : charge -> float array option
(** The charge's curve evaluated on {!Rdp.alpha_grid}, the fixed grid
    every RDP curve is accumulated on; [None] for pure-DP
    charges (their implied curve is recomputable from ε alone). *)

val replay_charge :
  t -> ?analyst:string -> face:Privacy.budget -> rho:float array option ->
  unit -> unit
(** Re-apply a journaled charge during recovery, bypassing the
    affordability check (the journal only contains charges that were
    committed live, so re-checking could only under-count). Applies the
    same accumulator updates as the live [spend], so the recovered
    {!spent} equals the live one exactly.
    @raise Invalid_argument when [rho] does not match {!Rdp.alpha_grid}. *)
