(* Usage: fd_limits.exe DPKIT, with a descriptor limit of at least
   4 096 (the dune rule raises it). The server survives its descriptor
   count:
   (a) 1 100 connections to `serve --tcp 0 --max-conns 2000`, more than
       select's FD_SETSIZE of 1 024, all answer `status`, and SIGTERM
       drains (exit 0, `drained`);
   (b) 2 200 connections to `serve --tcp 0 --workers 2 --journal J
       --max-conns 2000` all answer `status`, and no worker goes down
       before the drain;
   (c) under `ulimit -n 32`, connections past the descriptor limit read
       `err overloaded retry-after=`; once 10 held ones are closed, a
       fresh connection's `status` answers `ok`; SIGTERM drains;
   (d) a 2-worker pool under `ulimit -n 40`: of 80 connections each
       reads `ok status` or `err overloaded retry-after=`, none end of
       stream; once all are closed a fresh connection answers; SIGTERM
       drains. *)

open Spawn

(* a drain may close 2 200 connections *)
let drain = drain ~within:20.

let status fd = snd (request fd "status")
let is_ok s = String.starts_with ~prefix:"ok status" s
let is_shed s = String.starts_with ~prefix:"err overloaded retry-after=" s

(* [n] connections that all answer [status]. The connects are paced by
   a round trip every 50: an overflowing accept queue drops SYNs, and
   each retransmit costs a second. *)
let hold leg server n =
  let conns =
    Array.init n (fun i ->
        let fd =
          try connect server
          with Unix.Unix_error (e, _, _) ->
            fail "(%s) connect %d: %s" leg (i + 1) (Unix.error_message e)
        in
        (if (i + 1) mod 50 = 0 then
           let r = status fd in
           if not (is_ok r) then fail "(%s) connection %d: %S" leg (i + 1) r);
        fd)
  in
  Array.iteri
    (fun i fd ->
      let r = status fd in
      if not (is_ok r) then fail "(%s) connection %d of %d: %S" leg (i + 1) n r)
    conns;
  conns

(* [n] connections made before any is sent a line, so a close after a
   shed meets no unread request; then each one's [status] reply *)
let crowd leg server n =
  let conns = List.init n (fun _ -> connect server) in
  let replies = List.map (fun fd -> (fd, status fd)) conns in
  let held = List.filter (fun (_, r) -> is_ok r) replies in
  let shed = List.filter (fun (_, r) -> is_shed r) replies in
  if held = [] || List.length held + List.length shed <> n then
    fail "(%s) %d held + %d shed of %d:\n%s" leg (List.length held)
      (List.length shed) n
      (String.concat "" (List.map snd replies));
  (replies, held, shed)

let fresh_status server =
  let fd = connect server in
  let r = status fd in
  Unix.close fd;
  if is_ok r then Some r else None

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* (a) *)
  let server = serve "a.log" [ "--max-conns"; "2000"; "--idle-timeout"; "300" ] in
  let conns = hold "a" server 1100 in
  drain server;
  Array.iter Unix.close conns;
  (* (b) *)
  let journal = Filename.concat dir "J" in
  let ((_, log, _) as server) =
    serve "b.log"
      [ "--workers"; "2"; "--journal"; journal; "--max-conns"; "2000";
        "--idle-timeout"; "300" ]
  in
  let conns = hold "b" server 2200 in
  let down () =
    List.exists
      (fun l -> String.starts_with ~prefix:"pool: worker" l)
      (String.split_on_char '\n' (read_file log))
  in
  if down () then fail "(b) a worker went down:\n%s" (read_file log);
  drain server;
  Array.iter Unix.close conns;
  (* (c) *)
  let server =
    serve ~script:"ulimit -n 32 && exec \"$@\"" "c.log" [ "--idle-timeout"; "300" ]
  in
  let replies, held, shed = crowd "c" server 40 in
  if shed = [] then fail "(c) nothing shed of 40 under ulimit -n 32";
  let ten = List.filteri (fun i _ -> i < 10) held in
  let closed, kept = List.partition (fun c -> List.memq c ten) replies in
  List.iter (fun (fd, _) -> Unix.close fd) closed;
  if poll 2. (fun () -> fresh_status server) = None then
    fail "(c) no fresh `status` answered within 2 s of closing 10 connections";
  drain server;
  List.iter (fun (fd, _) -> Unix.close fd) kept;
  let c_held = List.length held and c_shed = List.length shed in
  (* (d) *)
  let server =
    serve ~script:"ulimit -n 40 && exec \"$@\"" "d.log"
      [ "--workers"; "2"; "--journal"; Filename.concat dir "D";
        "--idle-timeout"; "300" ]
  in
  let replies, held, shed = crowd "d" server 80 in
  List.iter (fun (fd, _) -> Unix.close fd) replies;
  if poll 2. (fun () -> fresh_status server) = None then
    fail "(d) no fresh `status` answered within 2 s of closing every connection";
  drain server;
  finish ();
  Printf.printf
    "fd_limits: (a) (b) (c) (d) hold; (c) held %d, shed %d; (d) held %d, shed %d\n"
    c_held c_shed (List.length held) (List.length shed)
