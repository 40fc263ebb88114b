(** Static workload analysis: the ε-odometer behind [dpkit analyze].

    Costs a query workload against a dataset {e schema} — name, row
    count, column bounds, privacy policy — with no access to column
    data and no sampling. Each query is priced by {!Planner.spec} (the
    same static half a live [plan] is built on) and pushed through a
    real {!Ledger}, so per-query charges and composed totals are
    bit-identical to what a live serving run of the same workload
    would record: the analysis is the paper's static channel-capacity
    bound (ε bounds leakage before any answer is computed), made
    executable.

    Totals are reported under all three composition backends (basic,
    advanced, RDP) so a workload author can see what switching the
    policy backend would buy. *)

open Dp_mechanism

val parse_schema : string -> (Registry.schema, string) result
(** Parse a schema file:
    {v
    # comment
    dataset NAME [rows=N] [eps=E] [delta=D] [backend=basic|advanced|rdp]
                 [slack=S] [default-eps=E] [analyst-eps=E] [universe=U]
                 [low-water=E] [no-cache]
    column NAME lo=L hi=H
    v}
    The [dataset] line is read as a [register] line
    ({!Protocol.dataset_of_opts}): refused exactly when [register] is,
    for the same reason. Errors carry a [line N:] prefix. *)

type item =
  | Stat of {
      text : string;  (** the query expression as written *)
      query : Query.t;
      epsilon : float option;  (** [eps=] override; [None] = policy default *)
    }
  | Train of {
      text : string;  (** the request line as written *)
      train_opts : (string * string option) list;
          (** validated {!Dp_train.Train.keys} options; turned into
              params against the schema's default ε at analysis time *)
    }
  | Stream of {
      text : string;  (** the request line as written *)
      stream_opts : (string * string option) list;
          (** validated {!Dp_stream.Stream.keys} options; one line
              prices a whole continual-observation stream — the open's
              face charge covers every append and read *)
    }

val parse_workload : string -> (item list, string) result
(** Parse a workload file: one [QUERY \[eps=E\]],
    [train \[key=value...\]], or [stream \[key=value...\]] per line
    ([#] comments and blank lines ignored), query syntax as in
    {!Query.parse}, train/stream options as in the serve protocol's
    [train] / [stream new] commands (no analyst). *)

type row = {
  index : int;  (** 1-based position in the workload *)
  query : string;
      (** canonical form ({!Query.normalize} /
          {!Dp_train.Train.normalize}) *)
  mechanism : string;
      (** {!Planner.mechanism_name} or {!Dp_train.Train.backend_name} *)
  sensitivity : float;
  epsilon : float;  (** face-value ε requested *)
  face : Privacy.budget;  (** the ledger charge's face value *)
  marginal : Privacy.budget;
      (** increase of the composed spend caused by this query — what
          the live engine reports as [charged]; can be far below [face]
          under advanced/RDP composition, and zero for a rejected
          query *)
  accepted : bool;
}

type composed = {
  backend : Ledger.backend;
  spent : Privacy.budget;  (** composed total of the whole workload *)
  rejected : int;  (** queries the budget gate would reject *)
}

type report = {
  schema : Registry.schema;
  rows : row list;  (** under the schema's own policy backend *)
  accepted : int;
  rejected : int;
  spent : Privacy.budget;  (** composed spend under the policy backend *)
  remaining : Privacy.budget;
  composed : composed list;  (** basic, advanced, RDP — in that order *)
  pass : bool;  (** no query rejected under the policy backend *)
}

val analyze : Registry.schema -> item list -> (report, string) result
(** Cost the workload. [Error] only for a query the planner itself
    rejects (unknown column, bad ε) — a budget overdraft is not an
    error, it is a [FAIL] verdict with the offending rows marked
    rejected. Analyst sub-budgets are not modeled (the workload file
    carries no analyst identity). *)

val pp_report : Format.formatter -> report -> unit
(** Deterministic plain-text rendering (diffable in tests). *)
