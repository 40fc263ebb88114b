open Dp_engine

type config = {
  host : string;
  port : int;
  attempts : int;
  backoff_s : float;
  cap_s : float;
  reply_timeout_s : float;
  jitter : Dp_rng.Prng.t option;
}

let default_config ~port =
  {
    host = "127.0.0.1";
    port;
    attempts = 8;
    backoff_s = 0.05;
    cap_s = 2.0;
    reply_timeout_s = 10.;
    jitter = None;
  }

let now_s () = float_of_int (Dp_obs.Clock.now_ns ()) /. 1e9

type wire = { fd : Unix.file_descr; lb : Linebuf.t }

let connect cfg =
  match Unix.getaddrinfo cfg.host (string_of_int cfg.port)
          [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
  with
  | [] -> Error (Printf.sprintf "no address for %s" cfg.host)
  | ai :: _ -> (
      let fd = Unix.socket ai.Unix.ai_family ai.Unix.ai_socktype 0 in
      match Unix.connect fd ai.Unix.ai_addr with
      | () -> Ok { fd; lb = Linebuf.create () }
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Unix.error_message e))

let disconnect w =
  match w with
  | None -> ()
  | Some { fd; _ } -> ( try Unix.close fd with Unix.Unix_error _ -> ())

let send_line { fd; _ } line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off >= Bytes.length b then Ok ()
    else
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  in
  go 0

(* Read one reply frame: lines up to the blank terminator. An EOF or a
   timeout before the terminator is a torn frame — indistinguishable
   from a server that died mid-reply, so the caller treats it exactly
   like a transient error and retries the whole request. *)
let read_frame cfg w =
  let buf = Bytes.create 4096 in
  let deadline = now_s () +. cfg.reply_timeout_s in
  let rec go acc pending =
    match pending with
    | l :: rest ->
        if l.Linebuf.text = "" then Ok (List.rev acc, rest)
        else go (l :: acc) rest
    | [] ->
        let left = deadline -. now_s () in
        if left <= 0. then Error "reply timeout"
        else if not (Poll.wait_readable w.fd left) then go acc []
        else (
          match Unix.read w.fd buf 0 (Bytes.length buf) with
          | 0 -> Error "connection closed mid-reply"
          | n -> go acc (Linebuf.feed w.lb buf 0 n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go acc []
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e))
  in
  match go [] [] with
  | Ok (lines, leftover) ->
      (* server replies are strictly request-ordered; nothing may sit
         between frames *)
      ignore leftover;
      Ok (List.map (fun l -> l.Linebuf.text) lines)
  | Error _ as e -> e

type verdict = Final | Transient of string | Overloaded of int

let classify = function
  | [] -> Transient "empty reply frame"
  | first :: _ ->
      let starts p =
        String.length first >= String.length p
        && String.sub first 0 (String.length p) = p
      in
      if starts "err overloaded" then
        let ms =
          List.fold_left
            (fun acc tok ->
              match String.index_opt tok '=' with
              | Some i when String.sub tok 0 i = "retry-after" -> (
                  match
                    int_of_string_opt
                      (String.sub tok (i + 1) (String.length tok - i - 1))
                  with
                  | Some v -> v
                  | None -> acc)
              | _ -> acc)
            0
            (String.split_on_char ' ' first)
        in
        Overloaded ms
      else if starts "err transient" then Transient first
      else Final

let backoff cfg ~attempt =
  Faults.backoff_delay ~cap_s:cfg.cap_s ?jitter:cfg.jitter
    ~backoff_s:cfg.backoff_s ~attempt ()

(* One request, retried to a final reply. Only [err transient],
   [err overloaded] and wire failures (refused, reset, torn frame,
   timeout) are retried — every other reply is the server's final word
   and is returned as-is. Overloaded sleeps at least the server's
   retry-after hint; everything else sleeps capped exponential backoff
   with full jitter, so a herd of clients bounced by the same restart
   does not return as a herd. *)
let request_on cfg wire line =
  let rec attempt n =
    let retry err =
      disconnect !wire;
      wire := None;
      if n >= cfg.attempts then
        Error (Printf.sprintf "gave up after %d attempts (%s)" cfg.attempts err)
      else begin
        Unix.sleepf (backoff cfg ~attempt:n);
        attempt (n + 1)
      end
    in
    let conn =
      match !wire with
      | Some w -> Ok w
      | None -> (
          match connect cfg with
          | Ok w ->
              wire := Some w;
              Ok w
          | Error _ as e -> e)
    in
    match conn with
    | Error msg -> retry msg
    | Ok w -> (
        match send_line w line with
        | Error msg -> retry msg
        | Ok () -> (
            match read_frame cfg w with
            | Error msg -> retry msg
            | Ok frame -> (
                match classify frame with
                | Final -> Ok frame
                | Transient msg ->
                    if n >= cfg.attempts then Ok frame else retry msg
                | Overloaded ms ->
                    if n >= cfg.attempts then Ok frame
                    else begin
                      (* the hint is a floor, not the whole story: keep
                         the jittered exponential underneath so repeated
                         sheds still decorrelate *)
                      Unix.sleepf
                        (Float.max
                           (float_of_int ms /. 1000.)
                           (backoff cfg ~attempt:n));
                      attempt (n + 1)
                    end)))
  in
  attempt 1

(* Sessions: the same retrying request loop over a persistent
   connection, exposed programmatically so the certification harness
   can drive a live server through the exact client code path analysts
   use (reconnect-on-reset included). *)
type session = { cfg : config; wire : wire option ref }

let open_session cfg = { cfg; wire = ref None }
let request s line = request_on s.cfg s.wire line

let close_session s =
  disconnect !(s.wire);
  s.wire := None

let skip line =
  let line = String.trim line in
  line = "" || line.[0] = '#'

let run cfg ic oc =
  let wire = ref None in
  let failures = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if not (skip line) then begin
         (match request_on cfg wire line with
         | Ok frame -> List.iter (fun l -> Printf.fprintf oc "%s\n" l) frame
         | Error msg ->
             incr failures;
             Printf.fprintf oc "err transient client %s\n" msg);
         flush oc
       end
     done
   with End_of_file -> ());
  disconnect !wire;
  if !failures = 0 then 0 else 1
