(* The harness of the fork-and-exec tests (pool_stall, fd_limits), each
   run as `TEST.exe DPKIT`. Servers run in sessions of their own, so a
   failure kills everything they forked; logs go to a temporary
   directory that is kept on failure. Replies are read with
   SO_RCVTIMEO, never select: fd_limits holds descriptors above
   FD_SETSIZE itself. *)

let dpkit = Sys.argv.(1)

let dir =
  Filename.temp_dir
    (Filename.remove_extension (Filename.basename Sys.executable_name))
    ""

let now = Unix.gettimeofday
let sessions = ref []

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

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

(* `dpkit serve --tcp 0 ARGS` on an ephemeral port, started by
   [sh -c script] with the server's argv as "$@", logging to
   [dir/name]: (pid, log, port) *)
let serve ?(script = "exec \"$@\"") name args =
  let log = Filename.concat dir name in
  (* close-on-exec: a server under a low `ulimit -n` counts every fd *)
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

(* SIGTERM, then exit 0 with `drained` within [within] s *)
let drain ~within (pid, log, _) =
  Unix.kill pid Sys.sigterm;
  let exited () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> None | _, st -> Some st
  in
  match poll within exited with
  | Some (Unix.WEXITED 0) when String.ends_with ~suffix:"drained\n" (read_file log) -> ()
  | _ -> fail "SIGTERM did not drain within %g s:\n%s" within (read_file log)

(* a connection whose every read waits at most [timeout] s *)
let connect ?(timeout = 5.) (_, _, port) =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* one reply frame: up to the blank line that ends it ([`Frame]), to
   end of stream ([`Closed]), or to the receive timeout ([`Silent]) *)
let read_reply fd =
  let b = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents b in
    if s = "\n" || String.ends_with ~suffix:"\n\n" s then (`Frame, s)
    else
      match Unix.read fd chunk 0 4096 with
      | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> (`Closed, s)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          (`Silent, s)
      | n -> Buffer.add_subbytes b chunk 0 n; go ()
  in
  go ()

(* one request line and its reply; a peer that already closed may
   refuse the write, and its reply (a shed) is still there to read *)
let request fd line =
  let line = line ^ "\n" in
  (try ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  read_reply fd

let finish () = ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ]))
