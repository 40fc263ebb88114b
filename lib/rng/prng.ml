(* The xoshiro256** state s0..s3 as four native-endian 64-bit words in
   one 32-byte buffer. Reading and writing the words in place keeps the
   int64 arithmetic unboxed; four mutable int64 fields would box a
   fresh value on every write. Offsets are always 0, 8, 16 and 24 of a
   32-byte buffer, so the unchecked accessors stay in bounds. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let make s0 s1 s2 s3 =
  let g = Bytes.create 32 in
  set g 0 s0;
  set g 8 s1;
  set g 16 s2;
  set g 24 s3;
  g

(* SplitMix64: used only to expand a seed into the xoshiro state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed64 seed64 =
  let sm = ref seed64 in
  let s0 = splitmix64 sm in
  let s1 = splitmix64 sm in
  let s2 = splitmix64 sm in
  let s3 = splitmix64 sm in
  (* All-zero state is invalid for xoshiro; SplitMix64 cannot produce
     four zero outputs in a row, but guard anyway. *)
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    make 1L 2L 3L 4L
  else make s0 s1 s2 s3

let create seed = of_seed64 (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next g =
  let open Int64 in
  let s0 = get g 0 and s1 = get g 8 and s2 = get g 16 and s3 = get g 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  set g 0 s0;
  set g 8 s1;
  set g 16 (logxor s2 t);
  set g 24 (rotl s3 45);
  result

let uint64 g = next g

let split g = of_seed64 (next g)

let float g =
  (* Top 53 bits -> [0, 1). *)
  Int64.to_float (Int64.shift_right_logical (next g) 11) *. 0x1.0p-53

let rec float_pos g =
  let u = float g in
  if u > 0. then u else float_pos g

let int g n =
  if n <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling on the top bits to avoid modulo bias. *)
  let n64 = Int64.of_int n in
  let rec go () =
    let r = Int64.shift_right_logical (next g) 1 in
    (* 63-bit nonneg *)
    let v = Int64.rem r n64 in
    if Int64.sub r v > Int64.sub (Int64.sub Int64.max_int n64) 1L then go ()
    else Int64.to_int v
  in
  go ()

let bool g = Int64.logand (next g) 1L = 1L
