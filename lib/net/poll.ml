external poll : Unix.file_descr array -> int array -> int -> int -> unit
  = "dp_poll"

(* per slot: interest bits 1 = read, 2 = write; [poll] adds bit 4 when
   the slot is readable *)
type t = {
  mutable fds : Unix.file_descr array;
  mutable flags : int array;
  mutable len : int;
}

let create () = { fds = [||]; flags = [||]; len = 0 }
let clear t = t.len <- 0

let add t fd ~read ~write =
  if t.len = Array.length t.fds then begin
    let cap = Int.max 16 (2 * t.len) in
    let fds = Array.make cap fd and flags = Array.make cap 0 in
    Array.blit t.fds 0 fds 0 t.len;
    Array.blit t.flags 0 flags 0 t.len;
    t.fds <- fds;
    t.flags <- flags
  end;
  t.fds.(t.len) <- fd;
  t.flags.(t.len) <- Bool.to_int read lor (2 * Bool.to_int write);
  t.len <- t.len + 1;
  t.len - 1

let wait t timeout_s =
  poll t.fds t.flags t.len
    (int_of_float (Float.ceil (Float.max 0. timeout_s *. 1000.)))

let readable t slot = slot >= 0 && slot < t.len && t.flags.(slot) land 4 <> 0

let wait_readable fd timeout_s =
  let t = create () in
  let slot = add t fd ~read:true ~write:false in
  wait t timeout_s;
  readable t slot
