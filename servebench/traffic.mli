(** Seeded request traffic for the serving scenarios.

    Every request line the scenario sends is drawn here from
    {!Dp_rng.Prng} streams derived from the run seed, so one seed gives
    one fixed sequence of lines per source. A source is what one client
    connection pulls its next request from; two connections may share a
    source, in which case the sequence is fixed and only its split
    between the connections depends on timing. *)

type workload = Query_fresh | Query_scan | Stream_mixed | Pool_sessions

val workloads : workload list
val name : workload -> string
val of_name : string -> workload option

val workers : workload -> int
(** Server processes that execute requests: [dpkit serve --workers N]
    for the pool, 1 otherwise. *)

(** The reply class a request must get. *)
type face =
  | Query_miss  (** fresh query: [cache=miss], charges [eps] *)
  | Query_hit  (** prewarmed query: [cache=hit eps-charged=0] *)
  | Query_pool
      (** pool query: a hit or a miss, depending on which worker's cache
          the connection landed on *)
  | Append  (** journaled stream append: [t=] grows by one *)
  | Stream_read
  | Stream_window
  | Predict

val faces : face list
val face_name : face -> string
val is_query : face -> bool

type request = {
  line : string;
  face : face;
  dataset : string;
  eps : float;  (** face ε a fresh answer charges; 0. for free faces *)
  ends_session : bool;  (** close the connection after this reply *)
}

type source = unit -> request option
(** [None]: the source is exhausted (preload quotas only). *)

type t = {
  rows : int;  (** rows of each registered dataset *)
  setup : string list;
      (** sent once, in order, on a fresh journal before the preload:
          registrations, the stream open and the model train *)
  preload : source array;  (** per connection; untimed journal build-up *)
  timed : source array;  (** per connection; warm-up and window *)
}

val create : workload -> seed:int -> preload_scale:float -> t
(** [preload_scale] shrinks the bulk of the preload (fresh queries and
    appends); prewarmed texts are always preloaded in full. *)

val preview : workload -> seed:int -> lines:int -> string list
(** The setup lines, then the first [lines] lines of each distinct
    preload source and of each distinct timed source, under
    [# workload phase source] headers. Pinned by a checked-in file so
    traffic cannot change silently. *)
