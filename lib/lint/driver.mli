(** Walking, lexing and rule dispatch — the engine of [dpkit lint]. *)

val scan_dir : string -> string list
(** All [.ml]/[.mli] files under a directory, as sorted '/'-separated
    paths relative to it. Below the root it skips what dune skips:
    every directory whose name starts with ['.'] or ['_'] ([_build],
    [.git], [_opam], [.bench_build], …) and [node_modules]. The root
    itself is always walked, also when it is ["."]. [dpkit flow] lists
    its files through this walk too. *)

val lint :
  ?exempt:Config.t -> root:string -> string list -> Report.finding list
(** Lint the given root-relative files: token rules per file (with
    [lint:allow] comment suppressions applied), R3 over the whole set,
    then {!Config} exemptions, sorted by file/line/rule. *)

val lint_dir : ?exempt:Config.t -> string -> Report.finding list
(** [lint ~root (scan_dir root)]. *)
