(** The privacy-dataflow catalogue.

    One module names everything the three flow analyses treat
    specially: which calls create protected values (row data, PRNG
    streams), which consume or launder them, which calls charge the
    ledger, which sites release an answer, and which path segments
    delimit each subsystem. When the codebase grows a new mechanism,
    sink, or subsystem, this is the one file to touch. *)

val checks : (string * string) list
(** [(id, one-line description)] for F1, F2 and F3 — the flow twin of
    {!Dp_lint.Rules.all}. *)

(** {1 F1: row taint} *)

val row_sources : (string * string) list
(** Calls whose result is raw protected data, as [(module, ident)]. *)

val row_fields : string list
(** Record fields holding raw per-individual values; reading one
    taints the result. *)

val public_fields : string list
(** Fields that are public metadata by design (row counts, charged
    epsilons); projecting one out of a tainted record declassifies. *)

val sanitizer_modules : string list
(** Mechanism modules: a call into one consumes its tainted inputs and
    returns a private answer. *)

val sanitizer_allowlist : (string * string) list
(** Functions allowed to carry a [[@dp.sanitizer]] attribute. The
    attribute alone is not enough — an annotation outside this list is
    itself an F1 finding, so laundering cannot be introduced by a
    stray attribute. *)

type sink_kind = Reply | Journal | Log | Metrics

val sink_kind_name : sink_kind -> string

val sinks : ((string * string) * sink_kind) list
(** Observable outputs, as [((module, ident), kind)]; module [""]
    matches unqualified stdlib printers. *)

val declassifiers : (string * string) list
(** Calls whose result is public even on protected input (lengths,
    schema facts). *)

val f1_scope_segs : string list
(** Path segments where F1 findings are reported; mechanism internals
    and pure math are out of scope. *)

(** {1 F2: charge-before-release} *)

val chargers : (string * string) list
(** Calls that put the current path in the Charged state. *)

val release_field : string
(** Applying a closure read from this field releases an answer. *)

val release_construct : string
(** Constructing this variant releases an answer. *)

val f2_scope_segs : string list

val diverging : (string * string) list
(** Tail calls that terminate a path without releasing. *)

(** {1 F3: RNG provenance} *)

val stream_creators : (string * string) list
val stream_fields : string list

val stream_consumers : (string * string) list
(** Calls that consume a stream and return plain data. *)

val domain_of_segs : string list -> string option
(** Owning subsystem of a file, from its path segments. *)

val domain_of_module : string -> string option
(** Owning subsystem of a call target whose source is outside the
    analyzed set, from its module prefix. *)

val neutral_modules : string list
(** Modules inside a domain's directory that are shared
    infrastructure: passing a stream to them is not a crossing. *)

val composition_roots : (string * string) list
(** Process entry points inside a domain, as [(module, function)]: like
    code outside every domain, they may wire streams across subsystems. *)
