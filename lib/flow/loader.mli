(** File discovery and compiler-libs parsing for [dpkit flow]. *)

type file = {
  path : string;  (** as reported in findings ('/'-separated) *)
  modname : string;  (** capitalized basename: foo_bar.ml -> Foo_bar *)
  segs : string list;  (** path segments, for subsystem scoping *)
  structure : Parsetree.structure;
  allows : (int * string) list;
      (** [flow:allow RULE] comment suppressions: (line, rule) *)
}

type t = {
  files : file list;
  errors : string list;  (** unparseable files, reported not analyzed *)
}

val load : string list -> t
(** Parse every .ml file under the given paths (directories or single
    files), in sorted path order. Directories are walked by
    {!Dp_lint.Driver.scan_dir}, so [_build], [.git], [.bench_build]
    and every other directory dune skips are skipped here too. *)

val modname_of_path : string -> string
val has_seg : file -> string -> bool
