(** The coordinator's grant write-ahead log.

    Charge-before-grant, one level up from the engine journal: every
    lease grant, worker incarnation, and reclaim is framed, written and
    fsynced {e before} the worker (or supervisor) acts on it, so a
    coordinator crash at any point leaves a log from which the exact
    outstanding-lease state is rebuilt. Records carry absolute values —
    cumulative leased ε per incarnation, absolute reclaimed spend per
    shard — so replay is idempotent and a re-sent grant after a dropped
    ack changes nothing.

    Records are framed like the engine journal's, by
    {!Dp_engine.Frame}, which documents the wire format. *)

type record =
  | Dataset of { name : string; eps : float; line : string }
      (** a dataset admitted to arbitration: [eps] is its global
          budget, [line] the full register command re-broadcast to
          restarted workers *)
  | Incarnation of { shard : int; token : int }
      (** a fencing token issued to a (re)started worker — durable
          before the fork, so tokens never repeat across coordinator
          lives *)
  | Grant of {
      shard : int;
      token : int;
      dataset : string;
      leased : float;  (** cumulative ε allowance after this grant *)
      deadline : float;
    }
  | Reclaim of { shard : int; token : int; dataset : string; spent : float }
      (** a dead incarnation folded back: [spent] is the absolute
          face-ε sum replayed from its shard journal *)

type t

val open_ : string -> (t * record list * int, string) result
(** Open (or create) for appending, as {!Dp_engine.Frame.open_} does;
    returns existing records and the torn-tail byte count truncated
    off. *)

val load : string -> (record list * int, string) result
(** Records and torn-tail byte count, read as {!Dp_engine.Frame.load}
    reads: once, without opening the file for writing. A missing file
    is an empty log. *)

val append : t -> record -> (unit, string) result
(** Frame, write and fsync one record. On failure the file is cut back
    to the last clean frame; the caller must treat the grant as not
    made (the worker times out and retries). *)

val path : t -> string
val close : t -> unit
