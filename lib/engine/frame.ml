let put_int b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ';'

let put_float b x =
  Buffer.add_string b (Printf.sprintf "%h" x);
  Buffer.add_char b ';'

let put_bool b v = Buffer.add_char b (if v then '1' else '0')

let put_str b s =
  put_int b (String.length s);
  Buffer.add_string b s

let put_opt put b = function
  | None -> put_bool b false
  | Some v ->
      put_bool b true;
      put b v

let put_farr b a =
  put_int b (Array.length a);
  Array.iter (put_float b) a

(* ------------------------------------------------------------------ *)

exception Corrupt

type cursor = { s : string; mutable pos : int }

let get_char c =
  if c.pos >= String.length c.s then raise Corrupt;
  let ch = c.s.[c.pos] in
  c.pos <- c.pos + 1;
  ch

let take_until c sep =
  match String.index_from_opt c.s c.pos sep with
  | None -> raise Corrupt
  | Some i ->
      let tok = String.sub c.s c.pos (i - c.pos) in
      c.pos <- i + 1;
      tok

let get_int c =
  match int_of_string_opt (take_until c ';') with
  | Some n -> n
  | None -> raise Corrupt

let get_float c =
  match float_of_string_opt (take_until c ';') with
  | Some x -> x
  | None -> raise Corrupt

let get_bool c =
  match get_char c with '1' -> true | '0' -> false | _ -> raise Corrupt

let get_str c =
  let n = get_int c in
  (* compared by subtraction: [c.pos + n] overflows for n near max_int *)
  if n < 0 || n > String.length c.s - c.pos then raise Corrupt;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let get_opt get c = if get_bool c then Some (get c) else None

let get_farr c =
  let n = get_int c in
  if n < 0 || n > 1_000_000 then raise Corrupt;
  Array.init n (fun _ -> get_float c)

(* ------------------------------------------------------------------ *)
(* Both sides truncate the checksum into an Int32, so comparison
   happens in the Int32 domain. *)

let max_payload = 16 * 1024 * 1024

let adler32 s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun ch ->
      a := (!a + Char.code ch) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  Int32.of_int ((!b lsl 16) lor !a)

let frame payload =
  let hdr = Bytes.create 8 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_be hdr 4 (adler32 payload);
  Bytes.to_string hdr ^ payload

let decode_all decode payload =
  let c = { s = payload; pos = 0 } in
  let r = decode c in
  if c.pos <> String.length payload then raise Corrupt;
  r

(* Longest valid frame prefix of [content]: the records it holds and
   the offset where the first torn or corrupt frame (if any) starts. *)
let scan decode content =
  let size = String.length content in
  let rec go off acc =
    if off + 8 > size then (List.rev acc, off)
    else
      let len = Int32.to_int (String.get_int32_be content off) in
      if len < 0 || len > max_payload || off + 8 + len > size then
        (List.rev acc, off)
      else
        let payload = String.sub content (off + 8) len in
        if String.get_int32_be content (off + 4) <> adler32 payload then
          (List.rev acc, off)
        else
          match decode_all decode payload with
          | r -> go (off + 8 + len) (r :: acc)
          | exception Corrupt -> (List.rev acc, off)
  in
  go 0 []

let read_file path =
  if not (Sys.file_exists path) then Ok ""
  else
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Ok (really_input_string ic (in_channel_length ic)))
    with Sys_error msg -> Error msg

let load decode path =
  Result.map
    (fun content ->
      let records, good = scan decode content in
      (records, String.length content - good))
    (read_file path)

(* ------------------------------------------------------------------ *)

type t = { path : string; fd : Unix.file_descr; mutable clean_off : int }

let path t = t.path
let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* EINVAL means the filesystem does not support fsync on directories;
   nothing more can be done there. *)
let fsync_dir path =
  let fd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

let open_ decode path =
  match read_file path with
  | Error msg -> Error msg
  | Ok content -> (
      let records, good = scan decode content in
      let torn = String.length content - good in
      let existed = Sys.file_exists path in
      try
        let fd =
          Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
        in
        if not existed then fsync_dir path;
        if torn > 0 then Unix.ftruncate fd good;
        Ok ({ path; fd; clean_off = good }, records, torn)
      with
      | Unix.Unix_error (e, fn, _) ->
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
      | Sys_error msg -> Error msg)

let write t s =
  let len = String.length s in
  let rec go off =
    if off < len then
      go (off + Unix.single_write_substring t.fd s off (len - off))
  in
  go 0

let commit t s = t.clean_off <- t.clean_off + String.length s
let cut t = Unix.ftruncate t.fd t.clean_off
let fsync t = Unix.fsync t.fd
