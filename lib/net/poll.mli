(** The one readiness wait under every event loop: the TCP server (and
    so every pool worker), the pool coordinator, a worker's control-
    channel RPC wait and the client's reply wait. A [poll(2)] stub —
    unlike [select], it has no [FD_SETSIZE] ceiling on descriptor
    numbers, so a server may hold as many connections as its
    descriptor limit allows.

    A wait set is a list of {e slots} rebuilt every loop turn: {!add}
    returns a slot's index and, after {!wait}, {!readable} answers for
    that index, so a loop finds its ready descriptors without searching
    a result list. Only readability is reported: write interest just
    wakes the wait, and the server then tries every pending reply. *)

type t

val create : unit -> t
(** An empty wait set; its storage grows as slots are added and is
    reused across turns. *)

val clear : t -> unit
(** Drop every slot; indices handed out before are void. *)

val add : t -> Unix.file_descr -> read:bool -> write:bool -> int
(** Add a slot and return its index. A slot with neither interest is
    skipped by the wait and never reported, so a connection that hit end
    of stream and has nothing to write does not wake the loop. *)

val wait : t -> float -> unit
(** [wait t timeout_s] blocks until a slot is ready or [timeout_s]
    seconds pass (rounded up to the millisecond). A signal ends the
    wait early with nothing ready: the loop sees its flags on the next
    turn. Other OCaml threads run meanwhile.
    @raise Unix.Unix_error on any failure but [EINTR]. *)

val readable : t -> int -> bool
(** After {!wait}: the slot asked for read and a read will not block
    (data, end of stream, or a pending error). [false] for an index
    outside the set, e.g. [-1] for "not added". *)

val wait_readable : Unix.file_descr -> float -> bool
(** One-slot {!wait}: [fd] became readable within [timeout_s].
    [false] also when a signal ended the wait, so a caller re-checks
    its own deadline. *)
