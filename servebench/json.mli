(** The little JSON the scenario reads and writes: result files and
    [BENCHMARK.json]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, one line. Numbers print in the shortest form that reads
    back to the same float; non-finite numbers print as [null]. *)

val parse : string -> (t, string) result

val member : string -> t -> t option

val set : string -> t -> t -> t
(** [set k v obj] replaces member [k] of [obj], or appends it; a
    non-object becomes [{k: v}]. *)

val to_float : t -> float option
val to_list : t -> t list
(** Elements of an array; [[]] for anything else. *)
