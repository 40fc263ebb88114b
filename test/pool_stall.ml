(* Usage: pool_stall.exe DPKIT. Pool workers keep the defences of
   `dpkit serve --tcp`, and the pool admits a dataset as a single server
   does. Against `serve --tcp 0 --workers 2 --journal J`:
   (a) while a client pipelines requests it never reads, fresh
       connections on both workers are answered within 2 s, and SIGTERM
       drains the pool (exit 0, `drained`);
   (b) with that client connected, kill -9 of the coordinator leaves no
       orphan holding a shard lock: a restart on the same journal prints
       `listening`, and `dpkit pool replay` reports `invariant=ok`;
   (c) `--idle-timeout 1` closes a silent connection, and `--max-conns 1`
       sheds a worker's second one with `err overloaded retry-after=`;
   (d) on a fresh pool, `register x eps=-1`, `register y eps=1e400` and
       `register z eps=100 rows=0` each reply `err bad-argument` and
       `status` still answers; after `register z eps=1 default-eps=0.3`
       at most 3 of 12 fresh `count` queries are answered, and `pool
       replay` reads `eps-total=1` under `invariant=ok`; a pool started
       on a grant WAL holding `Dataset x eps=-1` prints `listening`. *)

open Spawn

(* no drain here waits out more than a 3 s reply deadline *)
let drain = drain ~within:8.

let journal = Filename.concat dir "J"

let pool ?(journal = journal) name extra =
  serve name ([ "--workers"; "2"; "--journal"; journal ] @ extra)

(* one request on a connection of its own *)
let ask server line =
  let fd = connect server in
  let _, reply = request fd line in
  Unix.close fd;
  reply

let replay journal =
  let argv = [ "pool"; "replay"; "--journal"; journal; "--workers"; "2" ] in
  let out = Filename.concat dir "replay.out" in
  ignore (Sys.command (Filename.quote_command dpkit argv ~stdout:out));
  read_file out

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

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
          Unix.sleepf 0.01; go off
  in
  (* a reply deadline closing it is a defence too *)
  (try go 0 with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
  fd

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* (a): a 3 s reply deadline bounds the drain, which must wait out
     the staller's unflushable replies *)
  let server = pool "a.log" [ "--request-deadline"; "3" ] in
  let staller = stall server 1.5 in
  (* the staller is connection 1, so these land on workers 1, 0, 1, 0 *)
  for i = 1 to 4 do
    let fd = connect ~timeout:2. server in
    (match request fd "status" with
    | `Frame, _ -> ()
    | _, s -> fail "(a) connection on worker %d: no reply in 2 s (%S)" (i mod 2) s);
    Unix.close fd
  done;
  drain server;
  Unix.close staller;
  let ((pid, _, _) as server) = pool "b.log" [] in
  let staller = stall server 1. in
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  let server = pool "b-restart.log" [] in
  if not (contains (replay journal) "invariant=ok") then
    fail "(b) pool replay did not report invariant=ok";
  drain server;
  Unix.close staller;
  (* (c): connections 1 and 3 land on worker 0 *)
  let server = pool "c.log" [ "--idle-timeout"; "1"; "--max-conns"; "1" ] in
  let silent = connect ~timeout:3. server in
  let other = connect server in
  let second = connect ~timeout:2. server in
  (match read_reply second with
  | `Frame, s when String.starts_with ~prefix:"err overloaded retry-after=" s -> ()
  | _, s -> fail "(c) worker 0 did not shed its second connection (%S)" s);
  (match read_reply silent with
  | `Closed, "" -> ()
  | _, s -> fail "(c) silent connection open 3 s into a 1 s idle timeout (%S)" s);
  List.iter Unix.close [ silent; other; second ];
  drain server;
  (* (d) *)
  let fresh = Filename.concat dir "D" in
  let server = pool ~journal:fresh "d.log" [] in
  List.iter
    (fun line ->
      let r = ask server line in
      if not (String.starts_with ~prefix:"err bad-argument" r) then
        fail "(d) %S: %S" line r;
      let r = ask server "status" in
      if not (String.starts_with ~prefix:"ok status" r) then
        fail "(d) status after %S: %S" line r)
    [ "register x eps=-1"; "register y eps=1e400"; "register z eps=100 rows=0" ];
  let r = ask server "register z eps=1 default-eps=0.3" in
  if not (String.starts_with ~prefix:"ok registered" r) then
    fail "(d) register z eps=1: %S" r;
  let answered =
    List.length
      (List.filter
         (fun i ->
           String.starts_with ~prefix:"ok "
             (ask server (Printf.sprintf "query z count(age>%d)" (20 + i))))
         (List.init 12 Fun.id))
  in
  if answered > 3 then fail "(d) %d of 12 answered at eps=1, 0.3 each" answered;
  drain server;
  let merged = replay fresh in
  if not (contains merged "invariant=ok" && contains merged "eps-total=1 ") then
    fail "(d) pool replay after the drain:\n%s" merged;
  let poisoned = Filename.concat dir "E" in
  (* what a binary that leased before checking journaled *)
  (match Dp_pool.Grant_wal.open_ (Dp_pool.Pool.wal_path poisoned) with
  | Ok (wal, _, _) ->
      let x = Dp_pool.Grant_wal.Dataset
          { name = "x"; eps = -1.; line = "register x eps=-1" } in
      (match Dp_pool.Grant_wal.append wal x with
      | Ok () -> ()
      | Error msg -> fail "(d) grant wal append: %s" msg);
      Dp_pool.Grant_wal.close wal
  | Error msg -> fail "(d) grant wal: %s" msg);
  drain (pool ~journal:poisoned "e.log" []);
  finish ();
  Printf.printf "pool_stall: (a) (b) (c) (d) hold in pool mode; (d) answered %d of 12\n"
    answered
