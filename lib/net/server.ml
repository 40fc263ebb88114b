open Dp_engine

type config = {
  port : int;
  max_conns : int;
  max_inflight : int;
  idle_timeout_s : float;
  reply_deadline_s : float;
}

let default_config =
  {
    port = 0;
    max_conns = 64;
    max_inflight = 128;
    idle_timeout_s = 30.;
    reply_deadline_s = 10.;
  }

(* fixed for every server: the listen backlog, the append-flood shed
   watermark (see [handle_line]) and the base of the retry-after hint *)
let backlog = 64 and max_append_inflight = 32 and retry_after_base_ms = 50

(* A connection's queue holds its request lines in arrival order: an
   admitted line waiting to execute, or a line shed at admission whose
   reply is already known. Shed replies wait their turn, so the reply
   order on a connection is the request order. *)
type entry = Request of Linebuf.line | Shed of string

(* One connection's whole state machine: bounded line reassembly in,
   queued requests, one reply frame at a time out. [out]/[out_pos] is
   the unflushed reply; a conn with a non-empty [out] counts toward the
   admission depth (its reply occupies the pipeline until the client
   drains it). *)
type conn = {
  fd : Unix.file_descr;
  lb : Linebuf.t;
  requests : entry Queue.t;
  mutable admitted : int;  (** [Request] entries in [requests] *)
  mutable out : Bytes.t;
  mutable out_pos : int;
  mutable close_after_flush : bool;
  mutable eof : bool;
  mutable closed : bool;
  mutable last_request : float;  (** completed-request time, not bytes *)
  mutable deadline : float;  (** absolute; 0. = no reply in flight *)
  mutable req_start_ns : int;  (** 0 = no request being served *)
  accept_ns : int;
  mutable replied : bool;  (** first reply fully flushed *)
  mutable slot : int;  (** this turn's {!Poll} slot; -1 = not waited on *)
}

(* A listener keeps one spare descriptor open. At the descriptor limit
   (EMFILE/ENFILE) accept fails and leaves the connection in the
   backlog, so the listener stays readable and the loop would spin:
   the spare is closed to make room, that connection is accepted and
   shed with a typed reply, and the spare is reopened. *)
type listener = {
  sock : Unix.file_descr;
  mutable spare : Unix.file_descr option;
}

type t = {
  eng : Engine.t;
  cfg : config;
  mutable listener : listener option;  (** None: detached or draining *)
  port : int;
  scope : Dp_obs.Metrics.scope;
  faults : Faults.t;
  mutable conns : conn list;
  mutable stopping : bool;
  mutable spare : Unix.file_descr option;
      (** room for a descriptor passed by {!receive}, held from the
          first receive on *)
}

let now_s () = float_of_int (Dp_obs.Clock.now_ns ()) /. 1e9

let detached ?(config = default_config) eng =
  {
    eng;
    cfg = config;
    listener = None;
    port = 0;
    scope = Dp_obs.Metrics.global (Engine.metrics eng);
    faults = Engine.faults eng;
    conns = [];
    stopping = false;
    spare = None;
  }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let open_spare () =
  try Some (Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0)
  with Unix.Unix_error _ -> None

let listen ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd backlog;
    Unix.set_nonblock fd;
    (match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port)
  with
  | port -> Ok ({ sock = fd; spare = open_spare () }, port)
  | exception Unix.Unix_error (e, fn, _) ->
      close_quietly fd;
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let listener_fd l = l.sock

let close_listener l =
  close_quietly l.sock;
  Option.iter close_quietly l.spare;
  l.spare <- None

(* the fd limit says nothing about queue depth: the hint is the base *)
let shed_reply =
  Bytes.of_string
    (Printf.sprintf "err overloaded retry-after=%d\n\n" retry_after_base_ms)

let shed_fd fd =
  (try ignore (Unix.write fd shed_reply 0 (Bytes.length shed_reply))
   with Unix.Unix_error _ -> ());
  close_quietly fd

let accept l =
  match Unix.accept l.sock with
  | fd, _ -> `Conn fd
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
      Option.iter close_quietly l.spare;
      let shed =
        match Unix.accept l.sock with
        | fd, _ ->
            shed_fd fd;
            `Shed
        | exception Unix.Unix_error _ -> `Again
      in
      l.spare <- open_spare ();
      shed
  | exception Unix.Unix_error _ -> `Again

let create ?(config = default_config) eng =
  Result.map
    (fun (l, port) -> { (detached ~config eng) with listener = Some l; port })
    (listen ~port:config.port)

let port t = t.port
let conn_count t = List.length t.conns
let request_stop t = t.stopping <- true

let has_output c = c.out_pos < Bytes.length c.out

(* Admission depth: requests waiting to execute plus replies waiting to
   flush. This is the ONLY input to the shed decision and the
   retry-after hint — never ledger or budget state, so being shed
   reveals nothing about spent epsilon (rejection is otherwise a side
   channel: "overloaded" must not be a euphemism for "budget low"). *)
let depth t =
  List.fold_left
    (fun acc c ->
      if c.closed then acc
      else
        acc + c.admitted
        + (if has_output c || c.req_start_ns > 0 then 1 else 0))
    0 t.conns

let retry_after_ms t =
  min 60_000 (retry_after_base_ms * (1 + depth t))

let overloaded_line t =
  Printf.sprintf "err overloaded retry-after=%d" (retry_after_ms t)

(* Fill the empty output with one reply frame: the reply lines, then
   the blank-line terminator that lets the client know the frame is
   complete. *)
let queue_frame ?(terminated = true) c lines =
  let b = Buffer.create 256 in
  List.iter
    (fun l ->
      Buffer.add_string b l;
      Buffer.add_char b '\n')
    lines;
  if terminated then Buffer.add_char b '\n';
  c.out <- Buffer.to_bytes b;
  c.out_pos <- 0

let close_conn t reason c =
  if not c.closed then begin
    c.closed <- true;
    close_quietly c.fd;
    t.conns <- List.filter (fun c' -> c' != c) t.conns;
    (match reason with
    | `Normal -> ()
    | `Deadline -> Dp_obs.Metrics.incr t.scope Dp_obs.Name.Net_deadline_closed
    | `Drain -> Dp_obs.Metrics.incr t.scope Dp_obs.Name.Net_drained)
  end

let mk_conn fd =
  {
    fd;
    lb = Linebuf.create ();
    requests = Queue.create ();
    admitted = 0;
    out = Bytes.empty;
    out_pos = 0;
    close_after_flush = false;
    eof = false;
    closed = false;
    last_request = now_s ();
    deadline = 0.;
    req_start_ns = 0;
    accept_ns = Dp_obs.Clock.now_ns ();
    replied = false;
    slot = -1;
  }

(* The kernel installs a passed descriptor during the receive itself.
   At the limit it drops it (MSG_CTRUNC) and the client reads end of
   stream, so the spare makes room as it does in [accept]. *)
let receive t sock =
  Option.iter close_quietly t.spare;
  t.spare <- None;
  let received =
    Fun.protect
      ~finally:(fun () -> t.spare <- open_spare ())
      (fun () -> Fd_passing.recv sock)
  in
  match received with
  | Some ({ fd = Some fd; _ } as r) when t.spare = None ->
      shed_fd fd;
      t.spare <- open_spare ();
      Some { r with fd = None }
  | r -> r

(* Admission for every connection, accepted or passed: past
   [max_conns] it is shed, but with a typed reply — the client learns it
   was load, not its request, and when to come back. A passed
   connection without its descriptor ([None]) was shed on the way. *)
let adopt t = function
  | None -> Dp_obs.Metrics.incr t.scope Dp_obs.Name.Net_conns_shed
  | Some fd ->
      Unix.set_nonblock fd;
      (* a reply goes out when it is ready: Nagle would hold the second
         of two pipelined replies behind the peer's delayed ACK (~40 ms) *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true
       with Unix.Unix_error _ -> ());
      let c = mk_conn fd in
      if List.length t.conns >= t.cfg.max_conns then begin
        Dp_obs.Metrics.incr t.scope Dp_obs.Name.Net_conns_shed;
        c.eof <- true;
        c.close_after_flush <- true;
        c.deadline <- now_s () +. t.cfg.reply_deadline_s;
        queue_frame c [ overloaded_line t ]
      end
      else Dp_obs.Metrics.incr t.scope Dp_obs.Name.Net_conns_accepted;
      t.conns <- c :: t.conns

(* an injected accept-fail leaves the connection in the kernel backlog
   for a later turn *)
let accept_phase t l =
  if not (Faults.fire t.faults Faults.Accept_fail) then
    match accept l with
    | `Conn fd -> adopt t (Some fd)
    | `Shed -> Dp_obs.Metrics.incr t.scope Dp_obs.Name.Net_conns_shed
    | `Again -> ()

(* Append floods shed at a lower watermark than everything else: each
   append costs a journal fsync, so a firehose of them would occupy the
   whole pipeline and starve interactive queries long before the global
   bound trips. The test is purely syntactic (first token) plus queue
   depth — still never ledger or budget state. *)
let is_append_line text =
  let t = String.trim text in
  t = "append"
  || String.length t > 6
     && String.sub t 0 7 = "append "

let handle_line t c (l : Linebuf.line) =
  c.last_request <- now_s ();
  let bound =
    if is_append_line l.Linebuf.text then
      min max_append_inflight t.cfg.max_inflight
    else t.cfg.max_inflight
  in
  if depth t >= bound then begin
    Dp_obs.Metrics.incr t.scope Dp_obs.Name.Net_requests_shed;
    Queue.push (Shed (overloaded_line t)) c.requests
  end
  else begin
    Queue.push (Request l) c.requests;
    c.admitted <- c.admitted + 1
  end;
  if c.deadline = 0. then c.deadline <- now_s () +. t.cfg.reply_deadline_s

let read_buf = Bytes.create 4096

let read_phase t c =
  if c.closed || c.eof then ()
  else if Faults.fire t.faults Faults.Read_stall then
    (* drop this readiness notification; the data waits in the socket *)
    ()
  else
    match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
    | 0 ->
        c.eof <- true;
        if Queue.is_empty c.requests && not (has_output c) then
          close_conn t `Normal c
    | n -> List.iter (handle_line t c) (Linebuf.feed c.lb read_buf 0 n)
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_conn t `Normal c

(* A conn can take its next queued entry once its previous reply frame
   is fully flushed — the reply order on a connection is the request
   order. *)
let runnable c = not (c.closed || has_output c || Queue.is_empty c.requests)

(* Execute at most one queued request per conn per loop turn (round-
   robin fairness). *)
let exec_phase t exec c =
  if not (runnable c) then ()
  else
    match Queue.pop c.requests with
    | Shed reply ->
        (* answered at admission: nothing runs, and no fault point
           applies *)
        queue_frame c [ reply ]
    | Request l ->
        c.admitted <- c.admitted - 1;
        c.req_start_ns <- Dp_obs.Clock.now_ns ();
        Dp_obs.Metrics.incr t.scope Dp_obs.Name.Net_requests;
        let text, bytes =
          if Faults.fire t.faults Faults.Garbage_line then
            let g = String.make (Protocol.max_line_bytes + 64) '\xfe' in
            (g, String.length g)
          else (l.Linebuf.text, l.Linebuf.bytes)
        in
        let reply =
          if bytes > Protocol.max_line_bytes then
            [ Protocol.oversized_reply bytes ]
          else exec text
        in
        if Protocol.is_quit text then c.close_after_flush <- true;
        if Faults.fire t.faults Faults.Write_drop then
          (* reply computed (and any charge journaled), zero bytes written:
             the client must retry through a torn connection *)
          close_conn t `Normal c
        else if Faults.fire t.faults Faults.Conn_reset then begin
          (* first line only, no terminator: a torn frame mid-reply *)
          (match reply with
          | first :: _ -> queue_frame ~terminated:false c [ first ]
          | [] -> ());
          c.close_after_flush <- true
        end
        else queue_frame c reply

let write_phase t c =
  if c.closed || not (has_output c) then ()
  else
    match Unix.write c.fd c.out c.out_pos (Bytes.length c.out - c.out_pos) with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        close_conn t `Normal c
    | n ->
        c.out_pos <- c.out_pos + n;
        if not (has_output c) then begin
          c.out <- Bytes.empty;
          c.out_pos <- 0;
          if not c.replied then begin
            c.replied <- true;
            Dp_obs.Metrics.observe t.scope Dp_obs.Name.Net_accept_to_reply_ns
              (Dp_obs.Clock.elapsed_ns c.accept_ns)
          end;
          if c.req_start_ns > 0 then begin
            Dp_obs.Metrics.observe t.scope Dp_obs.Name.Net_reply_ns
              (Dp_obs.Clock.elapsed_ns c.req_start_ns);
            c.req_start_ns <- 0
          end;
          if Queue.is_empty c.requests then c.deadline <- 0.;
          if c.close_after_flush || (c.eof && Queue.is_empty c.requests) then
            close_conn t `Normal c
        end

(* Deadlines and idle timeouts. [last_request] only advances on a
   {e completed} request line (or at accept), never on raw bytes — a
   slow-loris peer dribbling one byte of a never-terminated line per
   second makes no progress by this clock and is closed at the idle
   timeout like any silent connection. *)
let timeout_phase t =
  let now = now_s () in
  List.iter
    (fun c ->
      if c.closed then ()
      else if c.deadline > 0. && now > c.deadline then close_conn t `Deadline c
      else if
        c.deadline = 0.
        && Queue.is_empty c.requests
        && (not (has_output c))
        && now -. c.last_request > t.cfg.idle_timeout_s
      then close_conn t `Deadline c)
    t.conns

let next_wakeup t =
  let now = now_s () in
  List.fold_left
    (fun acc c ->
      let e =
        if c.deadline > 0. then c.deadline
        else c.last_request +. t.cfg.idle_timeout_s
      in
      Float.min acc (Float.max 0.01 (e -. now)))
    1.0 t.conns

let stop_listening t =
  Option.iter close_listener t.listener;
  t.listener <- None

let publish_gauges t =
  Dp_obs.Metrics.set_gauge t.scope Dp_obs.Name.Net_conns_open
    (float_of_int (List.length t.conns));
  Dp_obs.Metrics.set_gauge t.scope Dp_obs.Name.Net_inflight
    (float_of_int (depth t))

let run ?exec ?control t =
  let exec = Option.value exec ~default:(Protocol.exec t.eng) in
  let poll = Poll.create () in
  let rec loop () =
    (* graceful drain: stop accepting and stop reading; finish what is
       already in the pipeline, flush it, then leave *)
    if t.stopping then stop_listening t;
    (* published every turn, including the one that completes the
       drain, so the final metrics snapshot reads 0 *)
    publish_gauges t;
    if t.stopping && t.conns = [] then ()
    else begin
      timeout_phase t;
      if t.stopping then
        List.iter
          (fun c ->
            if
              (not c.closed)
              && Queue.is_empty c.requests
              && (not (has_output c))
              && c.req_start_ns = 0
            then close_conn t `Drain c)
          t.conns;
      if t.stopping && t.conns = [] then ()
      else begin
        Poll.clear poll;
        let add fd = Poll.add poll fd ~read:true ~write:false in
        let lslot = match t.listener with Some l -> add l.sock | None -> -1 in
        let cslot = match control with Some (fd, _) -> add fd | None -> -1 in
        List.iter
          (fun c ->
            c.slot <-
              Poll.add poll c.fd
                ~read:(not (c.eof || t.stopping))
                ~write:(has_output c))
          t.conns;
        (* pipelined entries already queued wait for no fd: only a
           turn with nothing runnable may sleep *)
        let timeout =
          if List.exists runnable t.conns then 0.
          else if t.stopping then 0.02
          else Float.min (next_wakeup t) (if control = None then 1.0 else 0.25)
        in
        Poll.wait poll timeout;
        let ready = Poll.readable poll in
        if ready lslot then Option.iter (accept_phase t) t.listener;
        Option.iter (fun (_, service) -> service (ready cslot)) control;
        (* conns adopted this turn have no slot yet *)
        List.iter (fun c -> if ready c.slot then read_phase t c) t.conns;
        List.iter (fun c -> exec_phase t exec c) t.conns;
        (* opportunistic: try every pending reply, not only those the
           wait saw writable — EAGAIN is handled, and replies queued
           this turn would otherwise wait a full loop *)
        List.iter (fun c -> write_phase t c) t.conns;
        loop ()
      end
    end
  in
  loop ();
  (* the drain may have closed the last connections mid-turn, after
     this turn's gauge publication — re-publish so the final metrics
     snapshot reflects the drained state *)
  publish_gauges t
