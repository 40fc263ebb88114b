(* Usage: pool_stall.exe DPKIT. Pool workers keep the defences of
   `dpkit serve --tcp`. Against `serve --tcp 0 --workers 2 --journal J`:
   (a) while a client pipelines requests it never reads, fresh
       connections on both workers are answered within 2 s, and SIGTERM
       drains the pool (exit 0, `drained`);
   (b) with that client connected, kill -9 of the coordinator leaves no
       orphan holding a shard lock: a restart on the same journal prints
       `listening`, and `dpkit pool replay` reports `invariant=ok`;
   (c) `--idle-timeout 1` closes a silent connection, and `--max-conns 1`
       sheds a worker's second one with `err overloaded retry-after=`. *)

let dpkit = Sys.argv.(1)
let dir = Filename.temp_dir "pool_stall" ""
let journal = Filename.concat dir "J"
let now = Unix.gettimeofday
let sessions = ref []

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

(* every pool is a session of its own, so a failure kills all it forked *)
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
    | None when now () < deadline -> ignore (Unix.select [] [] [] 0.02); go ()
    | r -> r
  in
  go ()

(* a pool on an ephemeral port, logging to [dir/name]: (pid, log, port) *)
let serve name extra =
  let log = Filename.concat dir name in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let args = [ dpkit; "serve"; "--tcp"; "0"; "--workers"; "2"; "--journal"; journal ] in
  let pid =
    match Unix.fork () with
    | 0 -> (
        try
          ignore (Unix.setsid ());
          Unix.dup2 out Unix.stdout;
          Unix.dup2 out Unix.stderr;
          Unix.execv dpkit (Array.of_list (args @ extra))
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
  | None -> fail "no `listening` within 4 s:\n%s" (read_file log)

let drain (pid, log, _) =
  Unix.kill pid Sys.sigterm;
  let exited () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> None | _, st -> Some st
  in
  match poll 8. exited with
  | Some (Unix.WEXITED 0) when String.ends_with ~suffix:"drained\n" (read_file log) -> ()
  | _ -> fail "SIGTERM did not drain within 8 s:\n%s" (read_file log)

let connect (_, _, port) =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* what arrives within [timeout] s: up to the blank line that ends a
   reply frame, to end of stream, or to the deadline *)
let read_reply fd timeout =
  let deadline = now () +. timeout and b = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents b in
    if s = "\n" || String.ends_with ~suffix:"\n\n" s then (`Frame, s)
    else if Unix.select [ fd ] [] [] (Float.max 0. (deadline -. now ())) = ([], [], [])
    then (`Silent, s)
    else
      match Unix.read fd chunk 0 4096 with
      | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> (`Closed, s)
      | n -> Buffer.add_subbytes b chunk 0 n; go ()
  in
  go ()

(* pipelines `status` lines, 2 000 per write, for [seconds]; never reads *)
let stall pool seconds =
  let fd = connect pool in
  Unix.set_nonblock fd;
  let burst = String.concat "" (List.init 2000 (fun _ -> "status\n")) in
  let len = String.length burst and stop = now () +. seconds in
  let rec go off =
    if now () < stop then
      match Unix.write_substring fd burst off (len - off) with
      | n -> go ((off + n) mod len)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ignore (Unix.select [] [ fd ] [] 0.01); go off
  in
  (* a reply deadline closing it is a defence too *)
  (try go 0 with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  fd

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* (a): a 3 s reply deadline bounds the drain, which must wait out
     the staller's unflushable replies *)
  let pool = serve "a.log" [ "--request-deadline"; "3" ] in
  let staller = stall pool 1.5 in
  (* the staller is connection 1, so these land on workers 1, 0, 1, 0 *)
  for i = 1 to 4 do
    let fd = connect pool in
    ignore (Unix.write_substring fd "status\n" 0 7);
    (match read_reply fd 2. with
    | `Frame, _ -> ()
    | _, s -> fail "(a) connection on worker %d: no reply in 2 s (%S)" (i mod 2) s);
    Unix.close fd
  done;
  drain pool;
  Unix.close staller;
  let ((pid, _, _) as pool) = serve "b.log" [] in
  let staller = stall pool 1. in
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  let pool = serve "b-restart.log" [] in
  let replay = [ "pool"; "replay"; "--journal"; journal; "--workers"; "2" ] in
  if Sys.command (Filename.quote_command dpkit replay ^ " | grep -q invariant=ok") <> 0
  then fail "(b) pool replay did not report invariant=ok";
  drain pool;
  Unix.close staller;
  (* (c): connections 1 and 3 land on worker 0 *)
  let pool = serve "c.log" [ "--idle-timeout"; "1"; "--max-conns"; "1" ] in
  let silent = connect pool in
  let other = connect pool in
  let second = connect pool in
  (match read_reply second 2. with
  | `Frame, s when String.starts_with ~prefix:"err overloaded retry-after=" s -> ()
  | _, s -> fail "(c) worker 0 did not shed its second connection (%S)" s);
  (match read_reply silent 3. with
  | `Closed, "" -> ()
  | _, s -> fail "(c) silent connection open 3 s into a 1 s idle timeout (%S)" s);
  List.iter Unix.close [ silent; other; second ];
  drain pool;
  ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ]));
  print_endline "pool_stall: (a) (b) (c) hold in pool mode"
