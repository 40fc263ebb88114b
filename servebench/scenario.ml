(* Serving scenario benchmark.

   Spawns the real `dpkit serve --tcp 0 --journal J --metrics M` (with
   `--workers 2` for the pool workload), drives one named workload
   through it from two closed-loop TCP connections, checks every reply
   class and the ε accounting, and prints every metric by name with its
   unit. The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   Usage:
     scenario.exe --dpkit BIN --workload NAME|all --seed N --seconds S
                  --trace 0|1 [--out FILE] [--spans FILE]
     scenario.exe --dpkit BIN --smoke [--bench-json FILE]
     scenario.exe compare OLD.json NEW.json [--bench-json FILE]
     scenario.exe traffic --seed N --lines K

   --trace 0 prints the end-to-end metrics; --trace 1 prints the
   per-layer metrics, from outside the program only: the server's
   drained metrics dump, in-process timing of layers' public functions
   ("probes"), and the client's own per-request spans. The server
   collects its metrics whether or not it is asked to dump them, and the
   dump, the probes and the span file all come after the window, so both
   kinds of run measure the same life. `all` runs every workload and
   prints both. --out appends the runs to a result file; `compare` reads
   two of them. *)

module Traffic = Servebench.Traffic
module Json = Servebench.Json
module Verdict = Servebench.Verdict
module Clock = Dp_obs.Clock
module Describe = Dp_stats.Describe

exception Check of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Check msg)) fmt
let ns_of_s s = int_of_float (s *. 1e9)
let s_of_ns ns = float_of_int ns /. 1e9
let ( // ) = Filename.concat

type settings = {
  dpkit : string;
  seed : int;
  seconds : float;  (** measured window of the end-to-end life *)
  warmup_s : float;
  restarts : int;  (** timed restarts on the preloaded journal *)
  preload_scale : float;
  probe_s : float;  (** time budget of each in-process probe *)
  min_samples : int;  (** p99 needs at least this many latencies *)
}

let standard ~dpkit ~seed ~seconds =
  {
    dpkit;
    seed;
    seconds;
    warmup_s = 3.;
    restarts = 5;
    preload_scale = 1.;
    probe_s = 0.25;
    min_samples = 1000;
  }

let smoke_settings ~dpkit =
  {
    dpkit;
    seed = 1;
    seconds = 1.;
    warmup_s = 0.2;
    restarts = 1;
    preload_scale = 0.02;
    probe_s = 0.02;
    min_samples = 1;
  }

(* ------------------------------------------------------------------ *)
(* Files and processes. Everything lives under .bench_run/<pid> in the
   working directory and is removed on every exit path. *)

let run_root = ".bench_run"
let run_dir = run_root // string_of_int (Unix.getpid ())

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (path // f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o700
    end
  in
  go path

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* Journal, shard journals and grant WAL of one server life; lock files
   are per-process and never copied. *)
let journal_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"journal" f && not (Filename.check_suffix f ".lock"))
  |> List.sort compare

let wal_bytes dir =
  List.fold_left (fun acc f -> acc + (Unix.stat (dir // f)).Unix.st_size) 0 (journal_files dir)

(* State and parent pid of a process: the fields of /proc/<pid>/stat
   after the parenthesised command name. *)
let proc_stat pid =
  match read_file ("/proc/" ^ pid ^ "/stat") with
  | s -> (
      let i = String.rindex s ')' in
      match String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) with
      | state :: ppid :: _ -> Option.map (fun pp -> (state, pp)) (int_of_string_opt ppid)
      | _ -> None)
  | exception _ -> None

let descendants pid =
  let procs =
    Sys.readdir "/proc" |> Array.to_list
    |> List.filter_map (fun n ->
           match (int_of_string_opt n, proc_stat n) with Some p, Some (_, pp) -> Some (p, pp) | _ -> None)
  in
  let rec below ps = match List.filter (fun (_, pp) -> List.mem pp ps) procs with
    | [] -> []
    | kids -> let k = List.map fst kids in k @ below k
  in
  below [ pid ]

let rss_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l -> Scanf.sscanf_opt l "VmRSS: %d kB" Fun.id)
      |> Option.value ~default:0
  | exception Sys_error _ -> 0

let alive pid = match proc_stat (string_of_int pid) with Some (state, _) -> state <> "Z" | None -> false

let live_servers : int list ref = ref []

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Kill a server and everything it forked, and wait until all of it is
   gone: the coordinator is our child, its workers are not. *)
let kill_tree pid =
  let kids = descendants pid in
  List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) (pid :: kids);
  ignore (waitpid pid);
  let deadline = Unix.gettimeofday () +. 10. in
  while List.exists alive kids && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  live_servers := List.filter (( <> ) pid) !live_servers

let cleanup () =
  List.iter kill_tree !live_servers;
  rm_rf run_dir;
  match Sys.readdir run_root with [||] -> Unix.rmdir run_root | _ -> () | exception Sys_error _ -> ()

(* Lines from a pipe, read with a deadline so a wedged server fails the
   run instead of hanging it. *)
type pipe = { pfd : Unix.file_descr; pbuf : Buffer.t; mutable eof : bool }

let chunk = Bytes.create 65536

let rec read_line p ~deadline =
  let s = Buffer.contents p.pbuf in
  match String.index_opt s '\n' with
  | Some i ->
      Buffer.clear p.pbuf;
      Buffer.add_string p.pbuf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)
  | None when p.eof -> None
  | None ->
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0. then fail "timed out reading server output";
      (match Unix.select [ p.pfd ] [] [] left with
      | [], _, _ -> ()
      | _ -> (
          match Unix.read p.pfd chunk 0 (Bytes.length chunk) with
          | 0 -> p.eof <- true
          | n -> Buffer.add_subbytes p.pbuf chunk 0 n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      read_line p ~deadline

let rec read_all p ~deadline =
  match read_line p ~deadline with None -> [] | Some l -> l :: read_all p ~deadline

(* Run a command to completion; its stdout lines and exit code. *)
let run_cmd prog args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let p = { pfd = rd; pbuf = Buffer.create 256; eof = false } in
  let lines = Fun.protect ~finally:(fun () -> Unix.close rd) (fun () -> read_all p ~deadline:(Unix.gettimeofday () +. 60.)) in
  match waitpid pid with Unix.WEXITED c -> (lines, c) | _ -> (lines, -1)

(* ------------------------------------------------------------------ *)
(* Server lives *)

type server = { pid : int; out : pipe; port : int; dir : string }

(* The server's stderr goes to its life directory; its tail explains a
   failed start or drain. *)
let server_log dir =
  match String.split_on_char '\n' (String.trim (read_file (dir // "stderr"))) with
  | [ "" ] -> ""
  | lines ->
      let n = List.length lines in
      ": " ^ String.concat " | " (List.filteri (fun i _ -> i >= n - 5) lines)
  | exception Sys_error _ -> ""

let spawn s w dir =
  let args =
    [ "serve"; "--tcp"; "0"; "--journal"; dir // "journal"; "--metrics"; dir // "metrics"; "--seed"; "7" ]
    @ (match Traffic.workers w with 1 -> [] | n -> [ "--workers"; string_of_int n ])
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let err = Unix.openfile (dir // "stderr") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid = Unix.create_process s.dpkit (Array.of_list (s.dpkit :: args)) null wr err in
  List.iter Unix.close [ wr; null; err ];
  live_servers := pid :: !live_servers;
  let out = { pfd = rd; pbuf = Buffer.create 256; eof = false } in
  let deadline = Unix.gettimeofday () +. 60. in
  let rec banner () =
    match read_line out ~deadline with
    | None -> fail "dpkit serve exited before listening%s" (server_log dir)
    | Some l -> (
        match Scanf.sscanf_opt l "listening port=%d" Fun.id with Some p -> p | None -> banner ())
  in
  { pid; out; port = banner (); dir }

(* SIGTERM drain: the server must print `drained` and exit 0. *)
let drain srv =
  Unix.kill srv.pid Sys.sigterm;
  let lines = read_all srv.out ~deadline:(Unix.gettimeofday () +. 60.) in
  Unix.close srv.out.pfd;
  let status = waitpid srv.pid in
  live_servers := List.filter (( <> ) srv.pid) !live_servers;
  if status <> Unix.WEXITED 0 then fail "dpkit serve did not exit 0 after SIGTERM%s" (server_log srv.dir);
  if not (List.mem "drained" lines) then fail "dpkit serve did not print drained%s" (server_log srv.dir)

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let send fd line =
  let s = line ^ "\n" in
  let n = Unix.write_substring fd s 0 (String.length s) in
  if n <> String.length s then fail "short write to server"

(* A reply frame ends with the blank-line terminator; reply lines are
   never empty. *)
let frame_done b =
  let n = Buffer.length b in
  n >= 2 && Buffer.nth b (n - 1) = '\n' && Buffer.nth b (n - 2) = '\n'

let frame_lines b = List.filter (( <> ) "") (String.split_on_char '\n' (Buffer.contents b))

let read_some fd b =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> fail "server closed a connection mid-request"
  | n -> Buffer.add_subbytes b chunk 0 n

let roundtrip fd line =
  send fd line;
  let b = Buffer.create 256 in
  let deadline = Unix.gettimeofday () +. 60. in
  while not (frame_done b) do
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then fail "no reply to %S" line;
    match Unix.select [ fd ] [] [] left with
    | [], _, _ -> ()
    | _ -> read_some fd b
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  frame_lines b

let server_rss_mb pids = float_of_int (List.fold_left (fun acc pid -> acc + rss_kb pid) 0 pids) /. 1024.

(* Set-up time: spawn to the first `ok` reply to `status`, replay,
   crash-merge and worker start-up included. Then one more `status` per
   further worker, which the coordinator hands to the next worker in
   turn, so every worker is ready when the servers' resident memory is
   read. *)
let start s w dir =
  let t0 = Clock.now_ns () in
  let srv = spawn s w dir in
  let status () =
    let fd = connect srv.port in
    match Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> roundtrip fd "status") with
    | first :: _ when String.starts_with ~prefix:"ok status" first -> ()
    | _ -> fail "status did not answer ok"
  in
  status ();
  let setup_s = s_of_ns (Clock.elapsed_ns t0) in
  for _ = 2 to Traffic.workers w do
    status ()
  done;
  (srv, setup_s, server_rss_mb (srv.pid :: descendants srv.pid))

(* ------------------------------------------------------------------ *)
(* Reply checks and ε accounting *)

let field key line =
  let p = key ^ "=" in
  String.split_on_char ' ' line
  |> List.find_map (fun tok ->
         if String.starts_with ~prefix:p tok then
           Some (String.sub tok (String.length p) (String.length tok - String.length p))
         else None)

let float_field key line = Option.bind (field key line) float_of_string_opt

(* Per server life: Σ ε the client saw charged, per dataset, and the t=
   the next append must report. *)
type tally = { charged : (string, float) Hashtbl.t; mutable next_t : int }

let charge tally ds eps =
  Hashtbl.replace tally.charged ds (eps +. Option.value ~default:0. (Hashtbl.find_opt tally.charged ds))

(* The reply's eps-charged is printed to six digits; the exact ε is the
   one the request asked for. *)
let charged_as tally (r : Traffic.request) line =
  match float_field "eps-charged" line with
  | Some c when Float.abs (c -. r.eps) <= 1e-5 *. r.eps -> charge tally r.dataset r.eps
  | _ -> fail "fresh answer charged the wrong ε: %s" line

let free_reply line =
  if field "eps-charged" line <> Some "0" then fail "free reply charged ε: %s" line

(* [true] for an ok reply of the expected class, [false] for a non-ok
   reply (a failed operation); a wrong ok reply fails the run. *)
let check_reply tally (r : Traffic.request) lines =
  match lines with
  | first :: _ when String.starts_with ~prefix:"ok " first ->
      let cache = field "cache" first in
      (match r.face with
      | Query_miss ->
          if cache <> Some "miss" then fail "expected a fresh answer: %s -> %s" r.line first;
          charged_as tally r first
      | Query_hit ->
          if cache <> Some "hit" then fail "expected a cache hit: %s -> %s" r.line first;
          free_reply first
      | Query_pool -> (
          match cache with
          | Some "miss" -> charged_as tally r first
          | Some "hit" -> free_reply first
          | _ -> fail "unexpected query reply: %s" first)
      | Append -> (
          match Option.bind (field "t" first) int_of_string_opt with
          | Some t when t = tally.next_t -> tally.next_t <- t + 1
          | _ -> fail "append out of sequence (want t=%d): %s" tally.next_t first)
      | Stream_read ->
          if not (String.starts_with ~prefix:"ok stream-read " first) then fail "bad stream read: %s" first;
          free_reply first
      | Stream_window ->
          if not (String.starts_with ~prefix:"ok stream-window " first) then fail "bad stream window: %s" first;
          free_reply first
      | Predict ->
          if not (String.starts_with ~prefix:"ok predict " first) then fail "bad predict: %s" first;
          free_reply first);
      true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Dumps *)

type dump = {
  lat : (string, int * int) Hashtbl.t;  (** name -> (count, sum ns), all scopes *)
  counters : (string, int) Hashtbl.t;  (** name -> sum over scopes *)
  spent : (string * float) list;  (** dataset scope -> eps_spent gauge *)
}

let read_dumps files =
  let d = { lat = Hashtbl.create 32; counters = Hashtbl.create 64; spent = [] } in
  let add tbl k v plus = Hashtbl.replace tbl k (match Hashtbl.find_opt tbl k with Some x -> plus x v | None -> v) in
  List.fold_left
    (fun d file ->
      match Dp_obs.Export.parse (String.split_on_char '\n' (read_file file)) with
      | Error msg -> fail "unreadable metrics dump %s: %s" file msg
      | Ok entries ->
          List.fold_left
            (fun d -> function
              | Dp_obs.Export.Latency { name; count; sum; _ } ->
                  add d.lat name (count, sum) (fun (c, s) (c', s') -> (c + c', s + s'));
                  d
              | Dp_obs.Export.Counter { name; value; _ } ->
                  add d.counters name value ( + );
                  d
              | Dp_obs.Export.Gauge { scope; name = "eps_spent"; value } when scope <> "" ->
                  { d with spent = (scope, value) :: d.spent }
              | _ -> d)
            d entries)
    d files

let lat d name = Option.value ~default:(0, 0) (Hashtbl.find_opt d.lat name)
let lat_sum d name = float_of_int (snd (lat d name))
let lat_count d name = float_of_int (fst (lat d name))
let mean_us d name = match lat d name with 0, _ -> 0. | c, s -> float_of_int s /. float_of_int c /. 1e3
let counter d name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt d.counters name))
let ratio a b = if b = 0. then 0. else a /. b

(* Engine-side dumps of a drained life: the server's own file, or one
   file per pool worker. *)
let engine_dumps w dir =
  match Traffic.workers w with
  | 1 -> [ dir // "metrics" ]
  | n -> List.init n (fun k -> Printf.sprintf "%s.shard%d" (dir // "metrics") k)

(* What the server says it spent, per dataset, after the drain: the
   exact eps_spent gauge of the dump, or the pool's offline merge of
   shard journals and grant WAL. *)
let server_spent s w dir =
  match Traffic.workers w with
  | 1 -> (read_dumps (engine_dumps w dir)).spent
  | n ->
      let lines, code =
        run_cmd s.dpkit [ "pool"; "replay"; "--journal"; dir // "journal"; "--workers"; string_of_int n; "--seed"; "7" ]
      in
      if code <> 0 then fail "dpkit pool replay exited %d" code;
      (match lines with
      | h :: _ when field "invariant" h = Some "ok" -> ()
      | _ -> fail "pool replay: lease invariant not ok");
      List.filter_map
        (fun l ->
          match (String.starts_with ~prefix:"pool-merge dataset=" l, field "dataset" l, float_field "spent-hex" l) with
          | true, Some ds, Some v -> Some (ds, v)
          | _ -> None)
        lines

let check_spent s w dir ~(base : (string * float) list) tally =
  let reported = server_spent s w dir in
  let datasets = List.sort_uniq compare (List.map fst base @ Hashtbl.fold (fun k _ acc -> k :: acc) tally.charged []) in
  List.iter
    (fun ds ->
      let want =
        Option.value ~default:0. (List.assoc_opt ds base)
        +. Option.value ~default:0. (Hashtbl.find_opt tally.charged ds)
      in
      let got = Option.value ~default:0. (List.assoc_opt ds reported) in
      if Float.abs (got -. want) > 1e-9 *. Float.max 1. want then
        fail "%s: server spent %.17g but the client saw %.17g charged" ds got want)
    datasets;
  reported

(* ------------------------------------------------------------------ *)
(* The closed loop: each connection has exactly one request outstanding
   and sends the next only after the reply frame's terminator. *)

type slot = {
  src : Traffic.source;
  mutable fd : Unix.file_descr option;
  buf : Buffer.t;
  mutable req : Traffic.request option;
  mutable sent : int;
  mutable opened : int;  (** connect time while the first reply is due *)
}

let request_timeout_ns = ns_of_s 30.

(* Drive [sources] until [stop_at] (no new requests after it) or until
   every source is exhausted; outstanding requests always complete, so
   every charged answer is seen. *)
let drive ~port ~stop_at ~tick ~on_reply ~on_session sources =
  let slots =
    Array.map (fun src -> { src; fd = None; buf = Buffer.create 512; req = None; sent = 0; opened = 0 }) sources
  in
  let issue s =
    if Clock.now_ns () < stop_at then
      match s.src () with
      | None -> ()
      | Some r ->
          let fd =
            match s.fd with
            | Some fd -> fd
            | None ->
                s.opened <- Clock.now_ns ();
                let fd = connect port in
                s.fd <- Some fd;
                fd
          in
          s.req <- Some r;
          s.sent <- Clock.now_ns ();
          send fd r.line
  in
  let complete s fd r =
    let done_ns = Clock.now_ns () in
    let lines = frame_lines s.buf in
    Buffer.clear s.buf;
    s.req <- None;
    on_reply r lines ~sent:s.sent ~done_ns;
    if s.opened > 0 then begin
      on_session (done_ns - s.opened);
      s.opened <- 0
    end;
    if r.Traffic.ends_session then begin
      Unix.close fd;
      s.fd <- None
    end;
    issue s
  in
  Array.iter issue slots;
  let rec loop () =
    let pending = List.filter (fun s -> s.req <> None) (Array.to_list slots) in
    if pending <> [] then begin
      let now = Clock.now_ns () in
      tick now;
      List.iter
        (fun s ->
          if now - s.sent > request_timeout_ns then
            fail "no reply within 30 s to %S" (Option.get s.req).Traffic.line)
        pending;
      let fds = List.map (fun s -> Option.get s.fd) pending in
      let ready, _, _ = try Unix.select fds [] [] 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], []) in
      List.iter
        (fun s ->
          match (s.fd, s.req) with
          | Some fd, Some r when List.mem fd ready ->
              read_some fd s.buf;
              if frame_done s.buf then complete s fd r
          | _ -> ())
        pending;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun s -> Option.iter Unix.close s.fd) slots)
    loop

(* ------------------------------------------------------------------ *)
(* Preload: a fresh journal built by the real server, then copied for
   every measured life. *)

type prepared = {
  traffic : Traffic.t;
  j0 : string;  (** directory holding the preloaded journal files *)
  base : (string * float) list;  (** server-reported spend of the preload *)
  t_base : int;  (** stream appends in the preload *)
}

let life_dir name =
  let dir = run_dir // name in
  rm_rf dir;
  mkdir_p dir;
  dir

let copy_journal ~from dir =
  List.iter (fun f -> write_file (dir // f) (read_file (from // f))) (journal_files from)

(* The reply prefix a setup line must get, and the dataset it charges. *)
let expected_setup line =
  match String.split_on_char ' ' line with
  | "register" :: ds :: _ -> ("ok registered", ds)
  | "stream" :: "new" :: ds :: _ -> ("ok stream handle=" ^ ds ^ "/s1", ds)
  | "train" :: ds :: _ -> ("ok trained model=" ^ ds ^ "/m1", ds)
  | _ -> fail "unknown setup line %S" line

let prepare s w =
  let traffic = Traffic.create w ~seed:s.seed ~preload_scale:s.preload_scale in
  let dir = life_dir (Traffic.name w ^ "-preload") in
  let srv = spawn s w dir in
  let tally = { charged = Hashtbl.create 8; next_t = 1 } in
  let fd = connect srv.port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      List.iter
        (fun line ->
          let prefix, ds = expected_setup line in
          match roundtrip fd line with
          | first :: _ when String.starts_with ~prefix first ->
              Option.iter (charge tally ds) (float_field "eps-charged" first)
          | _ -> fail "setup line %S was refused" line)
        traffic.setup);
  drive ~port:srv.port ~stop_at:max_int ~tick:ignore
    ~on_reply:(fun r lines ~sent:_ ~done_ns:_ ->
      if not (check_reply tally r lines) then fail "preload request failed: %s" r.line)
    ~on_session:ignore traffic.preload;
  drain srv;
  let base = check_spent s w dir ~base:[] tally in
  { traffic; j0 = dir; base; t_base = tally.next_t - 1 }

(* ------------------------------------------------------------------ *)
(* One measured life: warm-up, then the window in 1 s batches. *)

type ops = {
  mutable sent : int array;
  mutable dur : int array;
  mutable face : Traffic.face array;
  mutable n : int;
}

(* Room for the busiest workload's window without growing, so no copy
   lands inside a measured request. *)
let ops_create () =
  let n = 1 lsl 21 in
  { sent = Array.make n 0; dur = Array.make n 0; face = Array.make n Traffic.Query_miss; n = 0 }

let ops_add o ~sent ~dur ~face =
  if o.n = Array.length o.sent then begin
    let grow a fill = Array.append a (Array.make (Array.length a) fill) in
    o.sent <- grow o.sent 0;
    o.dur <- grow o.dur 0;
    o.face <- grow o.face Traffic.Query_miss
  end;
  o.sent.(o.n) <- sent;
  o.dur.(o.n) <- dur;
  o.face.(o.n) <- face;
  o.n <- o.n + 1

type life = {
  dir : string;  (** the life's journal and metrics dump *)
  window_s : float;
  start_ns : int;  (** window start *)
  ops : ops;  (** ok operations completed in the window *)
  attempted : int;
  failed : int;
  life_ops : int;  (** replies over the whole life *)
  life_s : float;  (** warm-up start to the end of the drain *)
  accepts : int;  (** connections the client opened *)
  sessions : float array;  (** connect to first reply, µs *)
  wal_growth : int;
  rss_mb : float;  (** median over the restarts, read when ready *)
  setup_s : float;  (** median over the restarts *)
}

let latencies_ms o ~keep =
  let xs = ref [] in
  for i = o.n - 1 downto 0 do
    if keep i then xs := (float_of_int o.dur.(i) /. 1e6) :: !xs
  done;
  Array.of_list !xs

(* One run's server life: [restarts] timed starts on copies of the
   preloaded journal, the last of which continues with the warm-up, the
   window and the drain. *)
let measure s w (p : prepared) =
  let setups =
    List.init s.restarts (fun i ->
        let dir = life_dir (Printf.sprintf "%s-life%d" (Traffic.name w) i) in
        copy_journal ~from:p.j0 dir;
        let ((srv, _, _) as started) = start s w dir in
        if i < s.restarts - 1 then begin
          drain srv;
          rm_rf dir
        end;
        started)
  in
  let srv, _, _ = List.nth setups (s.restarts - 1) in
  let life_start = Clock.now_ns () in
  let tally = { charged = Hashtbl.create 8; next_t = p.t_base + 1 } in
  let start_ns = life_start + ns_of_s s.warmup_s in
  let stop_ns = start_ns + ns_of_s s.seconds in
  let ops = ops_create () in
  let attempted = ref 0 and failed = ref 0 and life_ops = ref 0 in
  let accepts = ref 1 and sessions = ref [] in
  let wal0 = ref (-1) and wal1 = ref (-1) in
  let tick now =
    if !wal0 < 0 && now >= start_ns then wal0 := wal_bytes srv.dir;
    if !wal1 < 0 && now >= stop_ns then wal1 := wal_bytes srv.dir
  in
  drive ~port:srv.port ~stop_at:stop_ns ~tick
    ~on_reply:(fun r lines ~sent ~done_ns ->
      let ok = check_reply tally r lines in
      incr life_ops;
      if done_ns >= start_ns && done_ns < stop_ns then begin
        incr attempted;
        if ok then ops_add ops ~sent ~dur:(done_ns - sent) ~face:r.Traffic.face else incr failed
      end)
    ~on_session:(fun ns ->
      incr accepts;
      sessions := (float_of_int ns /. 1e3) :: !sessions)
    p.traffic.timed;
  tick max_int;
  drain srv;
  ignore (check_spent s w srv.dir ~base:p.base tally);
  {
    dir = srv.dir;
    window_s = s.seconds;
    start_ns;
    ops;
    attempted = !attempted;
    failed = !failed;
    life_ops = !life_ops;
    life_s = s_of_ns (Clock.elapsed_ns life_start);
    accepts = !accepts;
    sessions = Array.of_list !sessions;
    wal_growth = !wal1 - !wal0;
    rss_mb = Describe.median (Array.of_list (List.map (fun (_, _, rss) -> rss) setups));
    setup_s = Describe.median (Array.of_list (List.map (fun (_, setup, _) -> setup) setups));
  }

(* ------------------------------------------------------------------ *)
(* End-to-end metrics *)

let end_to_end_units =
  [
    ("req_per_s", "1/s");
    ("p50_ms", "ms");
    ("wal_bytes_per_op", "B/op");
    ("rss_mb", "MB");
    ("setup_s", "s");
  ]

(* The traced run's 99th percentile needs at least [min_samples] ok
   operations in the window; every run is held to it. *)
let check_samples s (l : life) =
  if l.ops.n < s.min_samples then
    fail "only %d latency samples in the window (need %d for p99)" l.ops.n s.min_samples

(* The window in 1 s batches: ok operations completed in each, and the
   median latency of each batch that has any. *)
let batches (l : life) =
  let n = int_of_float l.window_s in
  let batch i k = (l.ops.sent.(i) + l.ops.dur.(i) - l.start_ns) / 1_000_000_000 = k in
  let per k = latencies_ms l.ops ~keep:(fun i -> batch i k) in
  let all = List.init n per in
  [
    ("req_per_s", List.map (fun xs -> float_of_int (Array.length xs)) all);
    ("p50_ms", List.filter_map (fun xs -> if xs = [||] then None else Some (Describe.median xs)) all);
  ]

(* Throughput and latency are medians over the batches: a host stall of
   a few seconds moves them less than it moves whole-window figures. *)
let end_to_end s (l : life) batches =
  check_samples s l;
  let median name = Describe.median (Array.of_list (List.assoc name batches)) in
  [
    ("req_per_s", median "req_per_s");
    ("p50_ms", median "p50_ms");
    ("wal_bytes_per_op", ratio (float_of_int l.wal_growth) (float_of_int l.ops.n));
    ("rss_mb", l.rss_mb);
    ("setup_s", l.setup_s);
  ]

(* ------------------------------------------------------------------ *)
(* Probes: the layers' public functions timed in-process over this
   workload's own generated inputs. *)

let time_per_call ~budget f =
  let t0 = Clock.now_ns () in
  let n = ref 0 in
  while !n < 8 || Clock.elapsed_ns t0 < ns_of_s budget do
    f !n;
    incr n
  done;
  float_of_int (Clock.elapsed_ns t0) /. float_of_int !n

let sample_requests w ~seed =
  let t = Traffic.create w ~seed ~preload_scale:1. in
  List.concat_map
    (fun src -> List.filter_map (fun _ -> src ()) (List.init 256 Fun.id))
    (Array.to_list t.timed)
  |> Array.of_list

let probes s w ~rows =
  let budget = s.probe_s in
  let reqs = sample_requests w ~seed:s.seed in
  let lines = Array.map (fun (r : Traffic.request) -> Bytes.of_string (r.line ^ "\n")) reqs in
  let lb = Dp_net.Linebuf.create () in
  let feed_ns =
    time_per_call ~budget (fun i ->
        let b = lines.(i mod Array.length lines) in
        ignore (Dp_net.Linebuf.feed lb b 0 (Bytes.length b)))
  in
  let queries =
    Array.to_list reqs
    |> List.filter_map (fun (r : Traffic.request) ->
           match String.split_on_char ' ' r.line with
           | "query" :: _ :: expr :: _ -> Some (expr, if r.eps > 0. then r.eps else 0.001)
           | _ -> None)
    |> Array.of_list
  in
  let parse_ns =
    time_per_call ~budget (fun i -> ignore (Dp_engine.Query.parse (fst queries.(i mod Array.length queries))))
  in
  let ds =
    Dp_engine.Registry.synthetic ~name:"probe" ~rows
      ~policy:(Dp_engine.Registry.default_policy ~total:(Dp_mechanism.Privacy.pure 1e6))
      (Dp_rng.Prng.create 7)
  in
  let planned =
    Array.map
      (fun (expr, epsilon) ->
        match Dp_engine.Query.parse expr with
        | Error msg -> fail "probe cannot parse %s: %s" expr msg
        | Ok q -> (
            match Dp_engine.Planner.plan ds ~epsilon q with
            | Ok p -> (q, epsilon, p)
            | Error msg -> fail "probe cannot plan %s: %s" expr msg))
      queries
  in
  let plan_ns =
    time_per_call ~budget (fun i ->
        let q, epsilon, _ = planned.(i mod Array.length planned) in
        ignore (Dp_engine.Planner.plan ds ~epsilon q))
  in
  let g = Dp_rng.Prng.create s.seed in
  let release_ns =
    time_per_call ~budget (fun i ->
        let _, _, p = planned.(i mod Array.length planned) in
        ignore (p.Dp_engine.Planner.run g))
  in
  let handoff_ns =
    let lst = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.bind lst (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    Unix.listen lst 1;
    let port = match Unix.getsockname lst with Unix.ADDR_INET (_, p) -> p | _ -> 0 in
    let client = connect port in
    let conn, _ = Unix.accept ~cloexec:true lst in
    let tx, rx = Dp_net.Fd_passing.channel () in
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ lst; client; conn; tx; rx ])
      (fun () ->
        time_per_call ~budget (fun _ ->
            Dp_net.Fd_passing.send tx ~fd:conn "conn";
            match Dp_net.Fd_passing.recv rx with
            | Some { Dp_net.Fd_passing.fd = Some f; _ } -> Unix.close f
            | _ -> fail "fd passing probe lost the descriptor"))
  in
  let grant_ns =
    let l = Dp_pool.Lease.create ~total:1e12 ~shards:2 in
    Dp_pool.Lease.new_incarnation l ~shard:0 ~token:1;
    time_per_call ~budget (fun i ->
        match
          Dp_pool.Lease.grant l ~shard:0 ~token:1
            ~need:((0.5 *. float_of_int i) +. 0.05)
            ~quantum:0.5 ~now:(Unix.gettimeofday ()) ~ttl:5.
        with
        | Dp_pool.Lease.Granted _ -> ()
        | _ -> fail "lease probe was not granted")
  in
  let wal_ns =
    let path = run_dir // "probe.grants" in
    match Dp_pool.Grant_wal.open_ path with
    | Error msg -> fail "grant WAL probe: %s" msg
    | Ok (wal, _, _) ->
        Fun.protect
          ~finally:(fun () ->
            Dp_pool.Grant_wal.close wal;
            rm_rf path)
          (fun () ->
            time_per_call ~budget (fun i ->
                match
                  Dp_pool.Grant_wal.append wal
                    (Dp_pool.Grant_wal.Grant
                       { shard = 0; token = 1; dataset = "probe"; leased = float_of_int i; deadline = 0. })
                with
                | Ok () -> ()
                | Error msg -> fail "grant WAL probe: %s" msg))
  in
  let query_share =
    let n = Array.fold_left (fun acc (r : Traffic.request) -> if Traffic.is_query r.face then acc + 1 else acc) 0 reqs in
    ratio (float_of_int n) (float_of_int (Array.length reqs))
  in
  (feed_ns, parse_ns, plan_ns, release_ns, handoff_ns, grant_ns, wal_ns, query_share)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics of a traced life *)

let per_layer_units =
  [
    ("journal.append_us", "us");
    ("journal.fsync_us", "us");
    ("journal.fsyncs_per_op", "count/op");
    ("cache.lookup_us", "us");
    ("cache.hit_ratio", "ratio");
    ("engine.submit_us", "us");
    ("engine.residual_us", "us");
    ("planner.probe_plan_us", "us");
    ("mechanism.probe_release_us", "us");
    ("linebuf.feed_ns", "ns");
    ("query.parse_ns", "ns");
    ("fd_passing.handoff_us", "us");
    ("lease.grant_us", "us");
    ("grant_wal.append_us", "us");
    ("pool.leases_per_kop", "count/kop");
    ("server.accepts_per_s", "1/s");
    ("client.session_open_us", "us");
    ("client.p99_us", "us");
    ("recon.service_us", "us");
    ("recon.attributed_us", "us");
    ("recon.unattributed_share", "ratio");
  ]

let per_layer s w (p : prepared) (l : life) =
  check_samples s l;
  let d = read_dumps (engine_dumps w l.dir) in
  let pool = match Traffic.workers w with 1 -> d | _ -> read_dumps [ l.dir // "metrics" ] in
  let feed_ns, parse_ns, plan_ns, release_ns, handoff_ns, grant_ns, wal_ns, query_share = probes s w ~rows:p.traffic.rows in
  let ops = float_of_int l.life_ops in
  (* journal appends made inside submits: every append not made by a
     stream append *)
  let submit_journal_ns =
    lat_sum d "journal_append_ns" *. ratio (lat_count d "journal_append_ns" -. lat_count d "append_ns") (lat_count d "journal_append_ns")
  in
  let residual_ns =
    ratio
      (lat_sum d "submit_ns" -. lat_sum d "cache_lookup_ns" -. lat_sum d "plan_ns" -. lat_sum d "charge_ns"
     -. lat_sum d "noise_ns" -. submit_journal_ns)
      (lat_count d "submit_ns")
  in
  let engine_ns =
    List.fold_left (fun acc n -> acc +. lat_sum d n) 0. [ "submit_ns"; "append_ns"; "stream_read_ns"; "predict_ns" ]
  in
  let attributed_us = (ratio engine_ns ops +. feed_ns +. (parse_ns *. query_share)) /. 1e3 in
  let service_us = l.window_s *. float_of_int (Traffic.workers w) *. 1e6 /. float_of_int l.ops.n in
  let hits = counter d "cache_hits" in
  let dump_rows =
    Hashtbl.fold (fun name (c, sum) acc -> (name, c, float_of_int sum /. float_of_int (max c 1) /. 1e3) :: acc) d.lat []
    |> List.sort compare
  in
  let faces =
    List.filter_map
      (fun f ->
        let xs = latencies_ms l.ops ~keep:(fun i -> l.ops.face.(i) = f) in
        if xs = [||] then None
        else Some (Traffic.face_name f, Array.length xs, Describe.quantile xs 0.5 *. 1e3, Describe.quantile xs 0.99 *. 1e3))
      Traffic.faces
  in
  let metrics =
    [
      ("journal.append_us", mean_us d "journal_append_ns");
      ("journal.fsync_us", mean_us d "journal_fsync_ns");
      ("journal.fsyncs_per_op", ratio (counter d "journal_fsyncs") ops);
      ("cache.lookup_us", mean_us d "cache_lookup_ns");
      ("cache.hit_ratio", ratio hits (hits +. counter d "cache_misses"));
      ("engine.submit_us", mean_us d "submit_ns");
      ("engine.residual_us", residual_ns /. 1e3);
      ("planner.probe_plan_us", plan_ns /. 1e3);
      ("mechanism.probe_release_us", release_ns /. 1e3);
      ("linebuf.feed_ns", feed_ns);
      ("query.parse_ns", parse_ns);
      ("fd_passing.handoff_us", handoff_ns /. 1e3);
      ("lease.grant_us", grant_ns /. 1e3);
      ("grant_wal.append_us", wal_ns /. 1e3);
      ("pool.leases_per_kop", ratio (counter pool "pool_leases_granted") ops *. 1e3);
      ("server.accepts_per_s", float_of_int l.accepts /. l.life_s);
      ("client.session_open_us", if l.sessions = [||] then 0. else Describe.median l.sessions);
      ("client.p99_us", Describe.quantile (latencies_ms l.ops ~keep:(fun _ -> true)) 0.99 *. 1e3);
      ("recon.service_us", service_us);
      ("recon.attributed_us", attributed_us);
      ("recon.unattributed_share", 1. -. (attributed_us /. service_us));
    ]
  in
  if counter pool "pool_workers_restarted" > 0. then fail "a pool worker restarted during the traced life";
  if counter d "net_requests_shed" +. counter d "net_conns_shed" > 0. then fail "the server shed load";
  let extra =
    Json.Obj
      [
        ( "dump",
          Json.Obj
            (List.map
               (fun (n, c, m) -> (n, Json.Obj [ ("count", Json.Num (float_of_int c)); ("mean_us", Json.Num m) ]))
               dump_rows) );
        ( "faces",
          Json.Obj
            (List.map
               (fun (f, n, p50, p99) ->
                 ( f,
                   Json.Obj
                     [ ("samples", Json.Num (float_of_int n)); ("p50_us", Json.Num p50); ("p99_us", Json.Num p99) ] ))
               faces) );
        ( "counters",
          Json.Obj
            (List.map
               (fun n -> (n, Json.Num (counter pool n)))
               [ "pool_leases_granted"; "pool_leases_denied"; "pool_workers_restarted"; "pool_grants_journaled" ]
            @ List.map
                (fun n -> (n, Json.Num (counter d n)))
                [
                  "journal_retries"; "net_requests"; "net_requests_shed"; "net_conns_shed"; "queries_answered";
                  "draws_laplace"; "draws_geometric"; "draws_exponential"; "stream_appends"; "predicts_served";
                ]) );
      ]
  in
  (metrics, extra)

(* ------------------------------------------------------------------ *)
(* Spans written at exit *)

let write_spans path w (l : life) =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to l.ops.n - 1 do
        Printf.fprintf oc "%s %s %d %d\n" (Traffic.name w) (Traffic.face_name l.ops.face.(i))
          (l.ops.sent.(i) - l.start_ns) l.ops.dur.(i)
      done)

(* ------------------------------------------------------------------ *)
(* Running workloads *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
  run : Json.t;  (** this run's record in --out *)
}

let with_units units values = List.map (fun (n, v) -> (n, List.assoc n units, v)) values

let metric_obj metrics =
  Json.Obj (List.map (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ])) metrics)

let counts (l : life) =
  Json.Obj
    [
      ("ops_attempted", Json.Num (float_of_int l.attempted));
      ("ops_failed", Json.Num (float_of_int l.failed));
      ("samples", Json.Num (float_of_int l.ops.n));
      ("fail_ratio", Json.Num (ratio (float_of_int l.failed) (float_of_int l.attempted)));
    ]

let print_metrics w metrics =
  List.iter (fun (n, u, v) -> Printf.printf "%-14s %-28s %14.6g %s\n%!" (Traffic.name w) n v u) metrics

let run_header s = [ ("seed", Json.Num (float_of_int s.seed)); ("seconds", Json.Num s.seconds) ]

let end_to_end_outcome s w (l : life) =
  let batches = batches l in
  let metrics = with_units end_to_end_units (end_to_end s l batches) in
  print_metrics w metrics;
  Printf.printf "%-14s ops_attempted=%d ops_failed=%d samples=%d\n%!" (Traffic.name w) l.attempted l.failed l.ops.n;
  {
    attempted = l.attempted;
    failed = l.failed;
    metrics;
    run =
      Json.Obj
        (run_header s
        @ [
            ("end_to_end", metric_obj metrics);
            ("batches", Json.Obj (List.map (fun (n, xs) -> (n, Json.Arr (List.map (fun x -> Json.Num x) xs))) batches));
            ("counts", counts l);
          ]);
  }

let per_layer_outcome s w p (l : life) =
  let values, extra = per_layer s w p l in
  let metrics = with_units per_layer_units values in
  print_metrics w metrics;
  {
    attempted = l.attempted;
    failed = l.failed;
    metrics;
    run = Json.Obj (run_header s @ [ ("per_layer", metric_obj metrics); ("counts", counts l); ("layers", extra) ]);
  }

let measured_life s w ~spans =
  let p = prepare s w in
  let l = measure s w p in
  Option.iter (fun path -> write_spans path w l) spans;
  (p, l)

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int (max attempted 1)));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", metric_obj metrics);
       ])

(* [Some expected names] of an end_to_end/per_layer list in
   BENCHMARK.json, with units. *)
let bench_metrics bench key =
  List.filter_map
    (fun m ->
      match (Json.member "name" m, Json.member "unit" m) with
      | Some (Json.Str n), Some (Json.Str u) -> Some (n, u)
      | _ -> None)
    (Json.to_list (Option.value ~default:Json.Null (Json.member key bench)))

let check_schema bench ~key metrics =
  let want = List.sort compare (bench_metrics bench key) in
  let got = List.sort compare (List.map (fun (n, u, _) -> (n, u)) metrics) in
  if want <> got then fail "result metrics do not match the %s list of BENCHMARK.json" key;
  List.iter (fun (n, _, v) -> if not (Float.is_finite v) then fail "%s is not finite" n) metrics

let load_json path =
  match Json.parse (read_file path) with Ok j -> j | Error msg -> fail "%s: %s" path msg

(* --out FILE collects runs: each one is appended to its workload's
   "runs" (end to end) or "traced" list, so repeated invocations build
   the set of runs that compare summarizes by medians. *)
let append_runs path entries =
  let obj k j = Option.value ~default:(Json.Obj []) (Json.member k j) in
  let doc =
    List.fold_left
      (fun doc (w, key, run) ->
        let workloads = obj "workloads" doc in
        let section = obj (Traffic.name w) workloads in
        let runs = Json.to_list (Option.value ~default:(Json.Arr []) (Json.member key section)) in
        let section = Json.set key (Json.Arr (runs @ [ run ])) section in
        Json.set "workloads" (Json.set (Traffic.name w) section workloads) doc)
      (if Sys.file_exists path then load_json path else Json.Obj [])
      entries
  in
  write_file (path ^ ".tmp") (Json.to_string doc ^ "\n");
  Sys.rename (path ^ ".tmp") path

(* Every workload, each printing its end-to-end and per-layer metrics. *)
let run_all s ~out ~spans ~bench =
  let results =
    List.map
      (fun w ->
        let p, l = measured_life s w ~spans in
        let e2e = end_to_end_outcome s w l in
        let traced = per_layer_outcome s w p l in
        Option.iter
          (fun b ->
            check_schema b ~key:"end_to_end" e2e.metrics;
            check_schema b ~key:"per_layer" traced.metrics)
          bench;
        (w, e2e, traced))
      Traffic.workloads
  in
  Option.iter
    (fun path -> append_runs path (List.concat_map (fun (w, e, t) -> [ (w, "runs", e.run); (w, "traced", t.run) ]) results))
    out;
  let prefixed =
    List.concat_map
      (fun (w, e, t) -> List.map (fun (n, u, v) -> (Traffic.name w ^ "/" ^ n, u, v)) (e.metrics @ t.metrics))
      results
  in
  (* both outcomes describe one life: count its operations once *)
  let sum f = List.fold_left (fun acc (_, e, _) -> acc + f e) 0 results in
  print_endline
    (result_line ~correct:true ~attempted:(sum (fun o -> o.attempted)) ~failed:(sum (fun o -> o.failed)) prefixed)

let run_one s w ~trace ~out ~spans =
  let p, l = measured_life s w ~spans in
  let o = if trace then per_layer_outcome s w p l else end_to_end_outcome s w l in
  Option.iter (fun path -> append_runs path [ (w, (if trace then "traced" else "runs"), o.run) ]) out;
  print_endline (result_line ~correct:true ~attempted:o.attempted ~failed:o.failed o.metrics)

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage () =
  prerr_endline
    "usage: scenario.exe --dpkit BIN --workload NAME|all --seed N --seconds S --trace 0|1 [--out FILE] \
     [--spans FILE]\n\
    \       scenario.exe --dpkit BIN --smoke [--bench-json FILE]\n\
    \       scenario.exe compare OLD.json NEW.json [--bench-json FILE]\n\
    \       scenario.exe traffic --seed N --lines K";
  exit 2

let rec opt key = function k :: v :: _ when k = key -> Some v | _ :: rest -> opt key rest | [] -> None
let int_opt key args = Option.map (fun v -> match int_of_string_opt v with Some n -> n | None -> usage ()) (opt key args)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let bench_json = Option.value ~default:"BENCHMARK.json" (opt "--bench-json" args) in
  match args with
  | "compare" :: old_path :: new_path :: _ -> (
      match
        Verdict.table ~bench:(load_json bench_json) ~old_result:(load_json old_path)
          ~new_result:(load_json new_path)
      with
      | lines, ok ->
          List.iter print_endline lines;
          exit (if ok then 0 else 1)
      | exception Check msg ->
          prerr_endline ("scenario: " ^ msg);
          exit 1)
  | "traffic" :: rest ->
      let seed = Option.value ~default:1 (int_opt "--seed" rest) in
      let lines = Option.value ~default:20 (int_opt "--lines" rest) in
      List.iter
        (fun w -> List.iter print_endline (Traffic.preview w ~seed ~lines))
        Traffic.workloads
  | _ -> (
      let dpkit = match opt "--dpkit" args with Some d -> d | None -> usage () in
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 2));
      Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 2));
      at_exit cleanup;
      mkdir_p run_dir;
      let out = opt "--out" args and spans = opt "--spans" args in
      try
        if List.mem "--smoke" args then
          run_all (smoke_settings ~dpkit) ~out ~spans ~bench:(Some (load_json bench_json))
        else
          let seed = match int_opt "--seed" args with Some n -> n | None -> usage () in
          let seconds = match int_opt "--seconds" args with Some n when n >= 2 -> n | _ -> usage () in
          let trace = match opt "--trace" args with Some "1" -> true | Some "0" -> false | _ -> usage () in
          let s = standard ~dpkit ~seed ~seconds:(float_of_int seconds) in
          match opt "--workload" args with
          | Some "all" -> run_all s ~out ~spans ~bench:None
          | Some name -> (
              match Traffic.of_name name with
              | Some w -> run_one s w ~trace ~out ~spans
              | None -> usage ())
          | None -> usage ()
      with e ->
        let msg =
          match e with
          | Check msg -> msg
          | Unix.Unix_error (err, fn, _) -> fn ^ ": " ^ Unix.error_message err
          | e -> Printexc.to_string e
        in
        prerr_endline ("scenario: check failed: " ^ msg);
        print_endline (result_line ~correct:false ~attempted:1 ~failed:1 []);
        exit 1)
