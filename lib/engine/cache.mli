(** The answer cache.

    A repeated identical query (same dataset, same normal form, same
    requested ε) is answered by replaying the stored noisy answer:
    post-processing of an already-released value, so it costs zero
    additional budget and — because the answer is bit-identical — leaks
    nothing the first release did not. Lookups count hits and misses so
    the engine can report a hit-rate.

    Entries carry the mechanism and face-value budget of the original
    release so a hit can be audited without re-planning the query:
    planning touches the raw data (a column pass for sum and mean, a
    rank search on the column's synopsis otherwise), and a hit skips it
    along with the ledger charge, the journal and the noise draw. *)

type entry = {
  answer : Planner.answer;
  mechanism : Planner.mechanism;
  requested : Dp_mechanism.Privacy.budget;
      (** Face value of the original release, recorded for the audit
          trail; the hit itself is charged zero. *)
}

type t

val create : unit -> t

val lookup : t -> string -> entry option
(** Increments the hit or miss counter as a side effect. *)

val store : t -> string -> entry -> unit
val hits : t -> int
val misses : t -> int

val hit_rate : t -> float
(** [hits / (hits + misses)]; 0 before any lookup. *)

val size : t -> int
