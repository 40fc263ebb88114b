(** The named privacy-invariant rules.

    Token-level rules (R1, R4, R5, R7) run per file via {!run}; the
    interface-coverage rule (R3) runs once over the scanned file set
    via {!r3}. Scoping is by path segment — e.g. R5 only fires in
    [lib/engine], R7 in [lib/engine], [lib/mechanism] and [lib/net] —
    see {!all} for the catalogue. Raw rows reaching an output, charge-
    before-release and RNG provenance are dataflow properties, checked
    by [dpkit flow] (F1, F2, F3); the ids R2, R6, R8, R9 are retired. *)

type ctx = {
  file : string;  (** path as reported, '/'-separated *)
  segs : string list;  (** [file] split on '/' *)
  tokens : Lexer.token array;
}

val all : (string * string) list
(** [(id, summary)] for every rule, in id order. *)

val run : ctx -> Report.finding list
(** All token-level rules on one file, in source order per rule. *)

val r3 : files:string list -> string list -> Report.finding list
(** [r3 ~files scanned]: findings for every [lib/**/*.ml] in [scanned]
    with no matching [.mli] in [files] (the full scanned set). *)
