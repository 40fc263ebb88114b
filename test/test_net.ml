(* The TCP frontend: bounded line reassembly across segments, reply
   framing, admission control (budget-independent by construction),
   slow-loris idle timeouts, graceful drain, and the retrying client
   against torn connections. The server runs in a thread inside the
   test process; clients are raw sockets so the tests control exactly
   how bytes hit the wire. *)

open Dp_engine
open Dp_net

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* ------------------------------------------------------------------ *)
(* Linebuf *)

let linebuf_reassembly () =
  let lb = Linebuf.create () in
  let feed s = Linebuf.feed lb (Bytes.of_string s) 0 (String.length s) in
  Alcotest.(check int) "no newline, no line" 0 (List.length (feed "query de"));
  Alcotest.(check int) "still buffering" 0 (List.length (feed "mo count"));
  (match feed "\nhelp\nqu" with
  | [ a; b ] ->
      Alcotest.(check string) "first line spans segments" "query demo count"
        a.Linebuf.text;
      Alcotest.(check int) "true count" 16 a.Linebuf.bytes;
      Alcotest.(check string) "second line" "help" b.Linebuf.text
  | ls -> Alcotest.failf "expected 2 lines, got %d" (List.length ls));
  match feed "it\n" with
  | [ c ] -> Alcotest.(check string) "tail completes" "quit" c.Linebuf.text
  | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls)

(* The cap must hold across segments: many small feeds of one long line
   may never buffer more than max+1 bytes, while the true length is
   still counted for the oversized reply. *)
let linebuf_oversized_across_segments () =
  let lb = Linebuf.create ~max:16 () in
  let seg = Bytes.make 10 'a' in
  for _ = 1 to 5 do
    match Linebuf.feed lb seg 0 10 with
    | [] -> ()
    | _ -> Alcotest.fail "no newline yet"
  done;
  Alcotest.(check int) "true pending count" 50 (Linebuf.pending_bytes lb);
  match Linebuf.feed lb (Bytes.of_string "\n") 0 1 with
  | [ l ] ->
      Alcotest.(check int) "true length reported" 50 l.Linebuf.bytes;
      Alcotest.(check bool) "buffered text capped at max+1" true
        (String.length l.Linebuf.text <= 17)
  | ls -> Alcotest.failf "expected 1 line, got %d" (List.length ls)

(* ------------------------------------------------------------------ *)
(* parse_opts (shared by every command; the TCP path reuses it via
   Protocol.exec, so its strictness is part of the wire contract) *)

let parse_opts_strict () =
  let known = [ "eps"; "analyst"; "no-cache" ] in
  (match Protocol.parse_opts ~known [ "eps=0.5"; "no-cache" ] with
  | Ok [ ("eps", Some "0.5"); ("no-cache", None) ] -> ()
  | Ok _ -> Alcotest.fail "parsed shape wrong"
  | Error e -> Alcotest.fail e);
  (match Protocol.parse_opts ~known [ "bogus=1" ] with
  | Error e ->
      Alcotest.(check bool) "unknown key is typed" true
        (contains ~sub:"err bad-argument" e)
  | Ok _ -> Alcotest.fail "unknown key accepted");
  (match Protocol.parse_opts ~known [ "eps=1"; "eps=2" ] with
  | Error e ->
      Alcotest.(check bool) "duplicate key is typed" true
        (contains ~sub:"duplicate option eps" e)
  | Ok _ -> Alcotest.fail "duplicate key accepted");
  match Protocol.parse_opts ~known [ "eps=a=b" ] with
  | Ok [ ("eps", Some "a=b") ] -> ()
  | _ -> Alcotest.fail "value may contain '='"

(* ------------------------------------------------------------------ *)
(* Reply cap *)

let reply_cap_truncates () =
  let eng = Engine.create ~seed:3 () in
  (match
     Protocol.exec eng "register demo rows=50 eps=50 default-eps=0.001"
   with
  | first :: _ when contains ~sub:"ok registered" first -> ()
  | _ -> Alcotest.fail "register failed");
  (* 300 decisions (mostly cache hits) = 301 log reply lines, over the
     cap *)
  for _ = 1 to 300 do
    match Protocol.exec eng "query demo count eps=0.001" with
    | first :: _ when contains ~sub:"ok" first -> ()
    | r -> Alcotest.failf "query failed: %s" (String.concat "|" r)
  done;
  let reply = Protocol.exec eng "log demo" in
  Alcotest.(check int) "reply capped" Protocol.max_reply_lines
    (List.length reply);
  let last = List.nth reply (List.length reply - 1) in
  Alcotest.(check string)
    "trailer counts the dropped lines"
    (Printf.sprintf "  truncated=%d" (301 - (Protocol.max_reply_lines - 1)))
    last;
  (* under the cap nothing changes *)
  let short = Protocol.exec eng "report demo" in
  Alcotest.(check bool) "short replies untouched" true
    (List.for_all (fun l -> not (contains ~sub:"truncated=" l)) short)

(* ------------------------------------------------------------------ *)
(* TCP helpers *)

let default_test_config =
  {
    Server.default_config with
    idle_timeout_s = 10.;
    reply_deadline_s = 10.;
    retry_after_base_ms = 7;
  }

let with_server ?(config = default_test_config) ?(faults = Faults.none) f =
  let eng = Engine.create ~seed:11 ~faults () in
  let srv = ok (Server.create ~config eng) in
  let th = Thread.create Server.run srv in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop srv;
      Thread.join th)
    (fun () -> f eng (Server.port srv))

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* A connection's reply reader. One read may carry several frames, so
   the lines past the end of one frame wait in [pending] for the next. *)
type reader = { lb : Linebuf.t; mutable pending : Linebuf.line list }

let reader () = { lb = Linebuf.create (); pending = [] }

(* Read one blank-line-terminated reply frame; [`Eof] on a torn frame. *)
let read_frame ?(timeout = 5.) fd r =
  let buf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go acc =
    match r.pending with
    | l :: rest ->
        r.pending <- rest;
        if l.Linebuf.text = "" then
          `Frame (List.rev_map (fun (x : Linebuf.line) -> x.text) acc)
        else go (l :: acc)
    | [] ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then `Timeout
        else (
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> `Timeout
          | _ -> (
              match Unix.read fd buf 0 4096 with
              | 0 -> `Eof
              | n ->
                  r.pending <- Linebuf.feed r.lb buf 0 n;
                  go acc
              | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Eof))
  in
  go []

let frame ?timeout fd lb =
  match read_frame ?timeout fd lb with
  | `Frame lines -> lines
  | `Eof -> Alcotest.fail "connection closed mid-frame"
  | `Timeout -> Alcotest.fail "timed out waiting for reply frame"

(* ------------------------------------------------------------------ *)
(* TCP end-to-end *)

let tcp_end_to_end () =
  with_server (fun _eng port ->
      let fd = connect port in
      let lb = reader () in
      send fd "register demo rows=200 eps=2\n";
      (match frame fd lb with
      | first :: _ ->
          Alcotest.(check bool) "registered" true
            (contains ~sub:"ok registered name=demo" first)
      | [] -> Alcotest.fail "empty register frame");
      send fd "query demo mean(income) eps=0.2\nquery demo mean(income) eps=0.2\n";
      let r1 = frame fd lb in
      let r2 = frame fd lb in
      (match (r1, r2) with
      | [ a ], [ b ] ->
          Alcotest.(check bool) "fresh answer" true (contains ~sub:"cache=miss" a);
          Alcotest.(check bool) "replayed from cache" true
            (contains ~sub:"cache=hit" b)
      | _ -> Alcotest.fail "expected single-line query replies");
      (* multi-line replies arrive in one frame *)
      send fd "report demo\n";
      let rep = frame fd lb in
      Alcotest.(check bool) "report header present" true
        (match rep with
        | first :: _ -> contains ~sub:"report dataset=demo" first
        | [] -> false);
      Alcotest.(check bool) "report body indented" true
        (List.for_all
           (fun l -> l = List.hd rep || (String.length l > 1 && l.[0] = ' '))
           rep);
      send fd "quit\n";
      (match frame fd lb with
      | [ bye ] -> Alcotest.(check string) "bye" "ok bye" bye
      | _ -> Alcotest.fail "expected ok bye");
      (match read_frame ~timeout:2. fd lb with
      | `Eof -> ()
      | _ -> Alcotest.fail "server must close after quit");
      Unix.close fd)

let tcp_two_clients () =
  with_server (fun _eng port ->
      let a = connect port and b = connect port in
      let la = reader () and lbuf = reader () in
      send a "register demo rows=100 eps=1\n";
      ignore (frame a la);
      (* interleaved requests on two connections are answered
         independently, in per-connection order *)
      send a "query demo count eps=0.1\n";
      send b "query demo count eps=0.1\n";
      let ra = frame a la in
      let rb = frame b lbuf in
      (match (ra, rb) with
      | [ x ], [ y ] ->
          Alcotest.(check bool) "a answered" true (contains ~sub:"ok seq=" x);
          (* same normalized query at the same eps: the second release
             is the cache replaying the first, never fresh noise *)
          Alcotest.(check bool) "b served from cache" true
            (contains ~sub:"cache=hit" y || contains ~sub:"cache=miss" y)
      | _ -> Alcotest.fail "expected single-line replies");
      Unix.close a;
      Unix.close b)

(* An oversized line split across many small TCP segments must get the
   exact stdio-transport reply, with the true byte count. *)
let tcp_oversized_split () =
  with_server (fun _eng port ->
      let fd = connect port in
      let lb = reader () in
      let chunk = String.make 500 'x' in
      for _ = 1 to 10 do
        send fd chunk
      done;
      send fd "\n";
      (match frame fd lb with
      | [ line ] ->
          Alcotest.(check string) "stdio-identical oversized reply"
            (Protocol.oversized_reply 5000)
            line
      | _ -> Alcotest.fail "expected one reply line");
      (* the connection survives: the oversized request was rejected,
         not the peer *)
      send fd "help\n";
      (match frame fd lb with
      | first :: _ ->
          Alcotest.(check bool) "still serving" true
            (contains ~sub:"ok commands" first)
      | [] -> Alcotest.fail "no help reply");
      Unix.close fd)

(* Two requests pipelined in one write: the second reply must not wait
   out the client's delayed ACK, as it does when Nagle holds the second
   small segment until the first is acknowledged (~40 ms on loopback). *)
let tcp_pipelined_replies_prompt () =
  with_server (fun _eng port ->
      let fd = connect port in
      let lb = reader () in
      let gap () =
        send fd "status\nstatus\n";
        ignore (frame fd lb);
        let t0 = Unix.gettimeofday () in
        ignore (frame fd lb);
        Unix.gettimeofday () -. t0
      in
      let gaps = List.sort compare (List.init 5 (fun _ -> gap ())) in
      Unix.close fd;
      let median = List.nth gaps 2 in
      Alcotest.(check bool)
        (Printf.sprintf "median gap %.2f ms under 20 ms" (median *. 1e3))
        true (median < 0.020))

(* ------------------------------------------------------------------ *)
(* Admission control *)

(* The pinned invariant: the shed reply is computed from queue depth
   only. A server with a full budget and a server with an exhausted
   budget must shed byte-identically — if they differed, being shed
   would leak budget state to an unauthenticated peer. *)
let shed_reply_of port =
  let holder = connect port in
  let hl = reader () in
  send holder "help\n";
  ignore (frame holder hl);
  (* holder is accepted for sure; the next conn is over max_conns=1 *)
  let shed = connect port in
  let sl = reader () in
  let reply = frame shed sl in
  (match read_frame ~timeout:2. shed sl with
  | `Eof -> ()
  | _ -> Alcotest.fail "shed connection must be closed");
  Unix.close shed;
  Unix.close holder;
  reply

let shedding_budget_independent () =
  let config = { default_test_config with max_conns = 1 } in
  let r_full =
    with_server ~config (fun eng port ->
        (match Protocol.exec eng "register demo rows=50 eps=100" with
        | first :: _ when contains ~sub:"ok" first -> ()
        | _ -> Alcotest.fail "register failed");
        shed_reply_of port)
  in
  let r_exhausted =
    with_server ~config (fun eng port ->
        (match Protocol.exec eng "register demo rows=50 eps=0.2" with
        | first :: _ when contains ~sub:"ok" first -> ()
        | _ -> Alcotest.fail "register failed");
        (* burn the whole budget, then some *)
        ignore (Protocol.exec eng "query demo count eps=0.2");
        (match Protocol.exec eng "query demo count eps=0.1" with
        | [ line ] ->
            Alcotest.(check bool) "budget is exhausted" true
              (contains ~sub:"err budget-exceeded" line)
        | _ -> Alcotest.fail "expected budget-exceeded");
        shed_reply_of port)
  in
  (match r_full with
  | [ line ] ->
      Alcotest.(check bool) "typed overloaded reply" true
        (contains ~sub:"err overloaded retry-after=" line)
  | _ -> Alcotest.fail "expected one shed line");
  Alcotest.(check (list string))
    "shed reply independent of budget state" r_full r_exhausted

let inflight_shedding () =
  (* max_inflight=1: with one reply parked unflushed, a second request
     on another connection is shed with a typed, depth-scaled hint *)
  let config = { default_test_config with max_inflight = 1 } in
  with_server ~config (fun eng port ->
      (match Protocol.exec eng "register demo rows=50 eps=10" with
      | first :: _ when contains ~sub:"ok" first -> ()
      | _ -> Alcotest.fail "register failed");
      let a = connect port and b = connect port in
      let la = reader () and lbuf = reader () in
      (* a queues a request but never reads the reply: after exec its
         unflushed frame still occupies the pipeline only until the
         kernel buffers it, so park a second one behind it *)
      send a "query demo count eps=0.01\nquery demo count eps=0.01\nquery demo count eps=0.01\n";
      Unix.sleepf 0.15;
      send b "query demo count eps=0.01\n";
      (match frame b lbuf with
      | [ line ] ->
          Alcotest.(check bool)
            "second conn shed or answered, never wedged" true
            (contains ~sub:"err overloaded retry-after=" line
            || contains ~sub:"ok seq=" line)
      | _ -> Alcotest.fail "expected one line");
      ignore (frame a la);
      Unix.close a;
      Unix.close b)

(* A pipelining client matches replies to requests by position, so a
   line shed at admission must be answered in its turn, never ahead of
   the replies to the same connection's earlier lines. Lines already
   queued wait for no socket event, so the replies must not wait out
   the loop's idle select timeout (1 s) one by one either. *)
let shed_keeps_reply_order () =
  let config = { default_test_config with max_inflight = 2 } in
  with_server ~config (fun eng port ->
      (match Protocol.exec eng "register demo rows=50 eps=10" with
      | first :: _ when contains ~sub:"ok" first -> ()
      | _ -> Alcotest.fail "register failed");
      let fd = connect port in
      let t0 = Unix.gettimeofday () in
      send fd
        (String.concat ""
           (List.init 5 (fun i ->
                Printf.sprintf "query demo count eps=0.0%d\n" (i + 1))));
      let lb = reader () in
      let replies =
        List.init 5 (fun _ -> String.concat "\n" (frame fd lb))
      in
      let shed = ref 0 in
      List.iteri
        (fun i line ->
          let k = i + 1 in
          if contains ~sub:"err overloaded retry-after=" line then incr shed
          else
            Alcotest.(check bool)
              (Printf.sprintf "frame %d answers eps=0.0%d" k k)
              true
              (contains ~sub:(Printf.sprintf "eps-charged=0.0%d " k) line))
        replies;
      Alcotest.(check bool) "some lines shed" true (!shed > 0);
      Alcotest.(check bool) "queued lines answered without idle waits" true
        (Unix.gettimeofday () -. t0 < 2.);
      Unix.close fd)

(* ------------------------------------------------------------------ *)
(* Timeouts *)

let idle_timeout_slow_loris () =
  let config = { default_test_config with idle_timeout_s = 0.3 } in
  with_server ~config (fun _eng port ->
      let fd = connect port in
      let lb = reader () in
      (* dribble a never-terminated line: bytes flow, but no request
         ever completes, so the idle clock must not reset *)
      let deadline = Unix.gettimeofday () +. 5. in
      let rec dribble () =
        match send fd "x" with
        | () ->
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "slow-loris connection never closed"
            else begin
              Unix.sleepf 0.05;
              match read_frame ~timeout:0.01 fd lb with
              | `Eof -> ()
              | `Timeout | `Frame _ -> dribble ()
            end
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            ()
      in
      dribble ();
      Unix.close fd)

(* ------------------------------------------------------------------ *)
(* Graceful drain *)

let drain_flushes_inflight () =
  let eng = Engine.create ~seed:11 () in
  (match Protocol.exec eng "register demo rows=100 eps=5" with
  | first :: _ when contains ~sub:"ok" first -> ()
  | _ -> Alcotest.fail "register failed");
  let srv = ok (Server.create ~config:default_test_config eng) in
  let th = Thread.create Server.run srv in
  let fd = connect (Server.port srv) in
  let lb = reader () in
  send fd "query demo mean(score) eps=0.1\n";
  (* let the select loop pick the request up — drain deliberately stops
     reading, so a request still in the socket buffer is the client's
     to retry, not in-flight *)
  Unix.sleepf 0.3;
  (* the reply to the in-flight request must still arrive after stop *)
  Server.request_stop srv;
  (match frame fd lb with
  | [ line ] ->
      Alcotest.(check bool) "in-flight request answered through drain" true
        (contains ~sub:"ok seq=" line || contains ~sub:"err" line)
  | _ -> Alcotest.fail "expected reply through drain");
  (match read_frame ~timeout:3. fd lb with
  | `Eof -> ()
  | _ -> Alcotest.fail "drained server must close the connection");
  Thread.join th;
  Unix.close fd;
  (* post-drain: the engine is intact and consistent *)
  match Protocol.exec eng "replay demo" with
  | [ line ] ->
      Alcotest.(check bool) "audit replay consistent after drain" true
        (contains ~sub:"ok replay consistent" line)
  | _ -> Alcotest.fail "expected replay verdict"

let drain_refuses_new_conns () =
  let eng = Engine.create ~seed:11 () in
  let srv = ok (Server.create ~config:default_test_config eng) in
  let th = Thread.create Server.run srv in
  let port = Server.port srv in
  Server.request_stop srv;
  Thread.join th;
  (match connect port with
  | fd ->
      (* a TIME_WAIT race may accept the connect; reads must then EOF *)
      let lb = reader () in
      (match read_frame ~timeout:1. fd lb with
      | `Eof | `Timeout -> ()
      | `Frame _ -> Alcotest.fail "drained server answered a new conn");
      Unix.close fd
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
  Alcotest.(check bool) "no connections left" true (Server.conn_count srv = 0)

(* ------------------------------------------------------------------ *)
(* Retrying client vs injected connection faults *)

let client_retries_through_conn_reset () =
  let faults = ok (Faults.parse "conn-reset=2") in
  with_server ~faults (fun _eng port ->
      let reqs = Filename.temp_file "dpkit_net" ".in" in
      let out = Filename.temp_file "dpkit_net" ".out" in
      Fun.protect
        ~finally:(fun () ->
          (try Sys.remove reqs with Sys_error _ -> ());
          try Sys.remove out with Sys_error _ -> ())
        (fun () ->
          Out_channel.with_open_text reqs (fun oc ->
              output_string oc
                "register demo rows=100 eps=2\n\
                 query demo mean(income) eps=0.3\n\
                 report demo\n");
          let cfg =
            {
              (Client.default_config ~port) with
              attempts = 6;
              backoff_s = 0.01;
              cap_s = 0.1;
              reply_timeout_s = 2.;
              jitter = Some (Dp_rng.Prng.create 5);
            }
          in
          let code =
            In_channel.with_open_text reqs (fun ic ->
                Out_channel.with_open_text out (fun oc -> Client.run cfg ic oc))
          in
          Alcotest.(check int) "client reaches final replies" 0 code;
          let lines =
            In_channel.with_open_text out In_channel.input_lines
          in
          (* the torn 2nd request (its conn was reset mid-reply) was
             retried; charge-before-answer makes the retry a cache hit,
             so the analyst still gets exactly one released value *)
          Alcotest.(check bool) "query answered" true
            (List.exists (fun l -> contains ~sub:"mechanism=laplace" l) lines);
          Alcotest.(check bool) "report arrived" true
            (List.exists (fun l -> contains ~sub:"report dataset=demo" l) lines);
          Alcotest.(check bool) "no torn lines leaked" true
            (List.for_all
               (fun l ->
                 l = ""
                 || contains ~sub:"ok" l
                 || contains ~sub:"err" l
                 || l.[0] = ' '
                 || contains ~sub:"report" l)
               lines)))

let client_retries_through_restart () =
  (* the server dies (thread stops via drain) and a new one takes the
     port; a client request spanning the outage succeeds *)
  let eng = Engine.create ~seed:11 () in
  let srv = ok (Server.create ~config:default_test_config eng) in
  let th = Thread.create Server.run srv in
  let port = Server.port srv in
  Server.request_stop srv;
  Thread.join th;
  (* port free now; restart on the same port with the same engine *)
  let config = { default_test_config with port } in
  let srv2 = ok (Server.create ~config eng) in
  let th2 = Thread.create Server.run srv2 in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop srv2;
      Thread.join th2)
    (fun () ->
      let fd = connect port in
      let lb = reader () in
      send fd "help\n";
      (match frame fd lb with
      | first :: _ ->
          Alcotest.(check bool) "restarted server serves" true
            (contains ~sub:"ok commands" first)
      | [] -> Alcotest.fail "no reply after restart");
      Unix.close fd)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "dp_net"
    [
      ( "linebuf",
        [
          Alcotest.test_case "reassembly across segments" `Quick
            linebuf_reassembly;
          Alcotest.test_case "oversized across segments" `Quick
            linebuf_oversized_across_segments;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse_opts strictness" `Quick parse_opts_strict;
          Alcotest.test_case "reply cap" `Quick reply_cap_truncates;
        ] );
      ( "tcp",
        [
          Alcotest.test_case "end to end" `Quick tcp_end_to_end;
          Alcotest.test_case "two clients" `Quick tcp_two_clients;
          Alcotest.test_case "oversized split over segments" `Quick
            tcp_oversized_split;
          Alcotest.test_case "pipelined replies not delayed" `Quick
            tcp_pipelined_replies_prompt;
        ] );
      ( "admission",
        [
          Alcotest.test_case "shed is budget-independent" `Quick
            shedding_budget_independent;
          Alcotest.test_case "inflight shedding" `Quick inflight_shedding;
          Alcotest.test_case "shed keeps reply order" `Quick
            shed_keeps_reply_order;
        ] );
      ( "timeouts",
        [
          Alcotest.test_case "slow-loris idle timeout" `Quick
            idle_timeout_slow_loris;
        ] );
      ( "drain",
        [
          Alcotest.test_case "flushes in-flight" `Quick drain_flushes_inflight;
          Alcotest.test_case "refuses new conns" `Quick drain_refuses_new_conns;
        ] );
      ( "client",
        [
          Alcotest.test_case "retries through conn-reset" `Quick
            client_retries_through_conn_reset;
          Alcotest.test_case "retries through restart" `Quick
            client_retries_through_restart;
        ] );
    ]
