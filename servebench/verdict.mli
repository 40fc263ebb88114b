(** Regression verdicts between two sets of scenario runs.

    A result file holds, per workload, the runs appended to it by
    [--out]. A change in an end-to-end metric's median over the runs
    counts only past the bound [BENCHMARK.json] fixes for it. Past the
    bound, a two-sample KS test must also reject "same distribution" at
    5% before the change is called better or worse. The test runs over
    the pooled per-batch samples where the metric has them, else over
    the per-run values. Batches of one run are serially correlated, so
    the test is a filter against obvious noise, not a calibrated
    p-value. *)

type direction = Higher | Lower
type verdict = Better | Worse | Unresolved | Same

val verdict_name : verdict -> string

val ks : float array -> float array -> Dp_stats.Gof.result option
(** {!Dp_stats.Gof.ks_two_sample}; [None] unless both samples have at
    least two values. *)

val decide :
  better:direction ->
  bound:float ->
  old_value:float ->
  new_value:float ->
  Dp_stats.Gof.result option ->
  verdict
(** [Same] within the bound (relative to [old_value]); past it,
    [Unresolved] without a test or with a KS p-value of at least 0.05,
    else [Better] or [Worse] by the direction of the change. *)

val fail_ratio_bound : float
(** How far a change may raise a workload's share of failed operations
    (non-ok replies and timeouts over attempted, pooled over its runs),
    as an absolute difference. Failures are not an end-to-end metric of
    [BENCHMARK.json], whose metrics are never 0, so the bound lives
    here. *)

val decide_absolute : bound:float -> old_value:float -> new_value:float -> verdict
(** [Worse] when [new_value] exceeds [old_value] by more than [bound],
    [Better] when it falls short by more, else [Same]. *)

val table :
  bench:Json.t -> old_result:Json.t -> new_result:Json.t -> string list * bool
(** One line per (workload, end-to-end metric) present in both results:
    the run counts, both medians, the relative change against the bound,
    the KS statistic and p-value, and the verdict; then one [fail_ratio]
    line per workload against {!fail_ratio_bound}. The flag is [true]
    when no verdict is [Worse]. *)
