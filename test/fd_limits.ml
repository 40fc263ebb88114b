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
       fresh connection's `status` answers `ok`; SIGTERM drains.
   Replies are read with SO_RCVTIMEO, not select: this process holds
   descriptors above FD_SETSIZE itself. *)

let dpkit = Sys.argv.(1)
let dir = Filename.temp_dir "fd_limits" ""
let now = Unix.gettimeofday
let sessions = ref []

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(* every server is a session of its own, so a failure kills all it forked *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "FAIL: %s\n(logs kept in %s)\n" msg dir;
      List.iter (fun p -> try Unix.kill (-p) Sys.sigkill with _ -> ()) !sessions;
      exit 1)
    fmt

(* [f ()] every 20 ms until it is [Some], for at most [timeout] s *)
let poll timeout f =
  let deadline = now () +. timeout in
  let rec go () =
    match f () with
    | None when now () < deadline -> Unix.sleepf 0.02; go ()
    | r -> r
  in
  go ()

(* a server on an ephemeral port, started by [sh -c script] with the
   server's argv as "$@", logging to [dir/name]: (pid, log, port) *)
let serve name script args =
  let log = Filename.concat dir name in
  (* close-on-exec: the server under `ulimit -n 32` counts every fd *)
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_CLOEXEC ] 0o644
  in
  let argv = [ "sh"; "-c"; script; "sh"; dpkit; "serve"; "--tcp"; "0" ] @ args in
  let pid =
    match Unix.fork () with
    | 0 -> (
        try
          ignore (Unix.setsid ());
          Unix.dup2 out Unix.stdout;
          Unix.dup2 out Unix.stderr;
          Unix.execvp "sh" (Array.of_list argv)
        with _ -> Unix._exit 127)
    | pid -> pid
  in
  Unix.close out;
  sessions := pid :: !sessions;
  let port () =
    List.find_map
      (fun l -> Scanf.sscanf_opt l "listening port=%d" Fun.id)
      (String.split_on_char '\n' (read_file log))
  in
  match poll 4. port with
  | Some port -> (pid, log, port)
  | None -> fail "%s: no `listening` within 4 s:\n%s" name (read_file log)

let drain (pid, log, _) =
  Unix.kill pid Sys.sigterm;
  let exited () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> None | _, st -> Some st
  in
  match poll 20. exited with
  | Some (Unix.WEXITED 0) when String.ends_with ~suffix:"drained\n" (read_file log) -> ()
  | _ -> fail "SIGTERM did not drain within 20 s:\n%s" (read_file log)

let connect (_, _, port) =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* one reply frame: up to the blank line that ends it, to end of
   stream, or to the 5 s receive timeout *)
let read_reply fd =
  let b = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents b in
    if s = "\n" || String.ends_with ~suffix:"\n\n" s then s
    else
      match Unix.read fd chunk 0 4096 with
      | 0
      | (exception
          Unix.Unix_error
            ((Unix.ECONNRESET | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)) ->
          s
      | n -> Buffer.add_subbytes b chunk 0 n; go ()
  in
  go ()

(* a [status] round trip; a peer that already closed may refuse the
   write, and its reply (a shed) is still there to read *)
let status fd =
  (try ignore (Unix.write_substring fd "status\n" 0 7)
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  read_reply fd

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

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let plain = "exec \"$@\"" in
  (* (a) *)
  let server =
    serve "a.log" plain [ "--max-conns"; "2000"; "--idle-timeout"; "300" ]
  in
  let conns = hold "a" server 1100 in
  drain server;
  Array.iter Unix.close conns;
  (* (b) *)
  let journal = Filename.concat dir "J" in
  let ((_, log, _) as server) =
    serve "b.log" plain
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
  (* (c): nothing is sent until every connection is made, so the
     server's close after a shed meets no unread request *)
  let server =
    serve "c.log" "ulimit -n 32 && exec \"$@\"" [ "--idle-timeout"; "300" ]
  in
  let conns = List.init 40 (fun _ -> connect server) in
  let replies = List.map (fun fd -> (fd, status fd)) conns in
  let held = List.filter (fun (_, r) -> is_ok r) replies in
  let shed = List.filter (fun (_, r) -> is_shed r) replies in
  if held = [] || shed = [] || List.length held + List.length shed <> 40 then
    fail "(c) %d held + %d shed of 40:\n%s" (List.length held) (List.length shed)
      (String.concat "" (List.map snd replies));
  let ten = List.filteri (fun i _ -> i < 10) held in
  let closed, kept = List.partition (fun c -> List.memq c ten) replies in
  List.iter (fun (fd, _) -> Unix.close fd) closed;
  let fresh () =
    let fd = connect server in
    let r = status fd in
    Unix.close fd;
    if is_ok r then Some r else None
  in
  if poll 2. fresh = None then
    fail "(c) no fresh `status` answered within 2 s of closing 10 connections";
  drain server;
  List.iter (fun (fd, _) -> Unix.close fd) kept;
  ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ]));
  Printf.printf "fd_limits: (a) (b) (c) hold; (c) held %d, shed %d\n"
    (List.length held) (List.length shed)
