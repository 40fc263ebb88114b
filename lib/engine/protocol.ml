open Dp_mechanism

let fstr x = Printf.sprintf "%g" x

let max_line_bytes = 4096
let max_reply_lines = 256

(* Multi-line replies (report, log, metrics) are capped so one request
   cannot stream an unbounded reply at a slow client and wedge the
   single-threaded network frontend behind it. The trailer is indented
   like any continuation line, so tagged-reply parsers stay happy. *)
let cap_reply lines =
  let n = List.length lines in
  if n <= max_reply_lines then lines
  else
    List.filteri (fun i _ -> i < max_reply_lines - 1) lines
    @ [ Printf.sprintf "  truncated=%d" (n - (max_reply_lines - 1)) ]

(* key=value option parsing; bare words are flags. Strict: unknown and
   duplicate keys are rejected outright, so a fuzz-found garbage line is
   never half-parsed into a valid request. *)
let parse_opts ~known tokens =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | tok :: rest ->
        let key, value =
          match String.index_opt tok '=' with
          | Some i ->
              ( String.sub tok 0 i,
                Some (String.sub tok (i + 1) (String.length tok - i - 1)) )
          | None -> (tok, None)
        in
        if not (List.mem key known) then
          Error
            (Printf.sprintf "err bad-argument unknown option %s (known: %s)"
               key (String.concat " " known))
        else if List.mem_assoc key acc then
          Error (Printf.sprintf "err bad-argument duplicate option %s" key)
        else go ((key, value) :: acc) rest
  in
  go [] tokens

let find_opt key opts =
  List.find_map (fun (k, v) -> if k = key then v else None) opts

let has_flag key opts = List.exists (fun (k, v) -> k = key && v = None) opts

let float_opt key ~default opts =
  match find_opt key opts with
  | None -> Ok default
  | Some s -> (
      match float_of_string_opt s with
      | Some x when Float.is_finite x -> Ok x
      | _ -> Error (Printf.sprintf "err bad-argument %s=%s" key s))

let int_opt key ~default opts =
  match find_opt key opts with
  | None -> Ok default
  | Some s -> (
      match int_of_string_opt s with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "err bad-argument %s=%s" key s))

let ( let* ) = Result.bind

let register_keys =
  [
    "rows"; "eps"; "delta"; "default-eps"; "analyst-eps"; "universe"; "slack";
    "backend"; "no-cache"; "low-water";
  ]

let dataset_of_opts opts_tokens =
  let* opts = parse_opts ~known:register_keys opts_tokens in
  let* rows = int_opt "rows" ~default:1000 opts in
  let* eps = float_opt "eps" ~default:1.0 opts in
  let* delta = float_opt "delta" ~default:0. opts in
  let* default_eps = float_opt "default-eps" ~default:0.1 opts in
  let* analyst_eps = float_opt "analyst-eps" ~default:0. opts in
  let* universe = int_opt "universe" ~default:64 opts in
  let* slack = float_opt "slack" ~default:1e-6 opts in
  let* low_water = float_opt "low-water" ~default:0. opts in
  let* backend =
    match find_opt "backend" opts with
    | None | Some "basic" -> Ok Ledger.Basic
    | Some "advanced" -> Ok (Ledger.Advanced { slack })
    | Some "rdp" ->
        Ok (Ledger.Rdp { delta = (if delta > 0. then delta else 1e-6) })
    | Some other -> Error (Printf.sprintf "err bad-argument backend=%s" other)
  in
  if rows <= 0 then Error "err bad-argument rows must be positive"
  else if eps <= 0. then Error "err bad-argument eps must be positive"
  else if low_water < 0. then Error "err bad-argument low-water must be >= 0"
  else
    Ok
      ( rows,
        {
          Registry.total = Privacy.approx ~epsilon:eps ~delta;
          backend;
          default_epsilon = default_eps;
          analyst_epsilon = (if analyst_eps > 0. then Some analyst_eps else None);
          universe;
          cache = not (has_flag "no-cache" opts);
          low_water;
        } )

let register_lines eng name opts_tokens =
  let result =
    let* rows, policy = dataset_of_opts opts_tokens in
    Result.map_error
      (fun msg -> "err register-failed " ^ msg)
      (Engine.register_synthetic eng ~name ~rows ~policy)
  in
  match result with
  | Error line -> [ line ]
  | Ok ds ->
      [
        Printf.sprintf "ok registered name=%s rows=%d cols=%s eps=%s delta=%s backend=%s"
          ds.Registry.name ds.Registry.rows
          (String.concat ","
             (Array.to_list
                (Array.map
                   (fun (c : Registry.column) -> c.name)
                   ds.Registry.columns)))
          (fstr ds.Registry.policy.total.Privacy.epsilon)
          (fstr ds.Registry.policy.total.Privacy.delta)
          (Format.asprintf "%a" Ledger.pp_backend ds.Registry.policy.backend);
      ]

let answer_string = function
  | Planner.Scalar v -> Printf.sprintf "value=%.6f" v
  | Planner.Vector vs ->
      Printf.sprintf "values=[%s]"
        (String.concat ","
           (Array.to_list (Array.map (Printf.sprintf "%.6f") vs)))

let error_lines (e : Engine.error) =
  match e with
  | Engine.Unknown_dataset name ->
      [ Printf.sprintf "err unknown-dataset %s" name ]
  | Engine.Bad_query msg -> [ Printf.sprintf "err bad-query %s" msg ]
  | Engine.Budget_exceeded rej ->
      let requested = rej.Ledger.requested and remaining = rej.Ledger.remaining in
      [
        Printf.sprintf "err budget-exceeded requested=%s remaining=%s%s%s"
          (fstr requested.Privacy.epsilon)
          (fstr remaining.Privacy.epsilon)
          (match rej.Ledger.analyst with
          | Some a -> " analyst=" ^ a
          | None -> "")
          (* a refusal can be about delta alone; pure-epsilon replies
             keep their old form *)
          (if requested.Privacy.delta = 0. && remaining.Privacy.delta = 0. then ""
           else
             Printf.sprintf " requested-delta=%s remaining-delta=%s"
               (fstr requested.Privacy.delta)
               (fstr remaining.Privacy.delta));
      ]
  | Engine.Degraded { dataset; remaining; low_water } ->
      [
        Printf.sprintf
          "err degraded dataset=%s eps-remaining=%s low-water=%s cache-hits-only"
          dataset
          (fstr remaining.Privacy.epsilon)
          (fstr low_water);
      ]
  | Engine.Unconverged { dataset = _; handle; worst_rhat; min_ess; charged } ->
      [
        Printf.sprintf
          "err degraded reason=unconverged model=%s rhat=%s ess=%s \
           eps-charged=%s"
          handle (fstr worst_rhat) (fstr min_ess)
          (fstr charged.Privacy.epsilon);
      ]
  | Engine.Unknown_model handle ->
      [ Printf.sprintf "err unknown-model %s" handle ]
  | Engine.Unknown_stream handle ->
      [ Printf.sprintf "err unknown-stream %s" handle ]
  | Engine.Lease_lost { dataset; token } ->
      (* degraded, not transient: retrying against THIS worker cannot
         succeed — the supervisor must recycle it first. A retrying
         client reconnects and lands on a live-leased worker. *)
      [
        Printf.sprintf "err degraded reason=lease-lost dataset=%s token=%d"
          dataset token;
      ]
  | Engine.Transient msg -> [ "err transient " ^ msg ]
  | Engine.Fatal msg -> [ "err fatal " ^ msg ]

let query_lines eng dataset expr opts_tokens =
  match parse_opts ~known:[ "eps"; "analyst" ] opts_tokens with
  | Error line -> [ line ]
  | Ok opts -> (
      let analyst = find_opt "analyst" opts in
      match find_opt "eps" opts with
      | Some s when float_of_string_opt s = None ->
          [ Printf.sprintf "err bad-argument eps=%s" s ]
      | eps_opt -> (
          let epsilon = Option.bind eps_opt float_of_string_opt in
          match Engine.submit_text eng ?analyst ?epsilon ~dataset expr with
          | Ok r ->
              [
                Printf.sprintf "ok seq=%d %s mechanism=%s eps-charged=%s cache=%s"
                  r.Engine.seq
                  (answer_string r.Engine.answer)
                  (Planner.mechanism_name r.Engine.mechanism)
                  (fstr r.Engine.charged.Privacy.epsilon)
                  (if r.Engine.cache_hit then "hit" else "miss");
              ]
          | Error e -> error_lines e))

let report_lines eng dataset =
  match Engine.report eng ~dataset with
  | Error e -> error_lines e
  | Ok r ->
      let lk = r.Engine.leakage in
      [
        Printf.sprintf "report dataset=%s rows=%d backend=%s mode=%s"
          r.Engine.dataset r.Engine.rows
          (Format.asprintf "%a" Ledger.pp_backend r.Engine.backend)
          (if r.Engine.degraded then "degraded" else "ok");
        Printf.sprintf
          "  queries=%d answered=%d cache-hits=%d rejected=%d hit-rate=%.3f"
          r.Engine.queries r.Engine.answered r.Engine.cache_hits
          r.Engine.rejected r.Engine.hit_rate;
        Printf.sprintf
          "  eps-total=%s eps-spent=%s eps-remaining=%s delta-spent=%s"
          (fstr r.Engine.total.Privacy.epsilon)
          (fstr r.Engine.spent.Privacy.epsilon)
          (fstr r.Engine.remaining.Privacy.epsilon)
          (fstr r.Engine.spent.Privacy.delta);
        Printf.sprintf
          "  leakage: mi-bound=%s nats (%s bits/record) capacity-bound=%s nats%s"
          (fstr lk.Meter.mi_bound_nats)
          (fstr lk.Meter.mi_bound_bits)
          (fstr lk.Meter.capacity_bound_nats)
          (match lk.Meter.min_entropy_leakage_bits with
          | Some b -> Printf.sprintf " min-entropy-leakage=%s bits" (fstr b)
          | None -> "");
      ]

let status_lines eng =
  let datasets = Engine.datasets eng in
  Printf.sprintf "ok status datasets=%d journal=%s faults=%s"
    (List.length datasets)
    (match Engine.journal_path eng with Some p -> p | None -> "off")
    (Format.asprintf "%a" Faults.pp (Engine.faults eng))
  :: List.map
       (fun name ->
         match Engine.report eng ~dataset:name with
         | Error _ -> Printf.sprintf "  dataset %s mode=unknown" name
         | Ok r ->
             Printf.sprintf
               "  dataset %s eps-spent=%s eps-remaining=%s answered=%d \
                cache-hits=%d hit-rate=%.3f mode=%s"
               name
               (fstr r.Engine.spent.Privacy.epsilon)
               (fstr r.Engine.remaining.Privacy.epsilon)
               r.Engine.answered r.Engine.cache_hits r.Engine.hit_rate
               (if r.Engine.degraded then "degraded" else "ok"))
       datasets

let metrics_reply eng =
  let lines = Engine.metrics_lines eng in
  Printf.sprintf "ok metrics lines=%d" (List.length lines)
  :: List.map (fun l -> "  " ^ l) lines

let log_lines eng dataset =
  match Engine.records eng ~dataset with
  | [] -> [ "ok log empty" ]
  | rs ->
      Printf.sprintf "ok log entries=%d" (List.length rs)
      :: List.map (fun r -> Format.asprintf "  %a" Audit_log.pp_record r) rs

let replay_lines eng dataset =
  match Engine.replay eng ~dataset with
  | Error e -> error_lines e
  | Ok outcome -> (
      match outcome with
      | Dp_audit.Replay.Consistent spent ->
          [
            Printf.sprintf "ok replay consistent eps-spent=%s"
              (fstr spent.Privacy.epsilon);
          ]
      | Dp_audit.Replay.Overdraft _ ->
          [ Format.asprintf "err replay %a" Dp_audit.Replay.pp_outcome outcome ])

(* --------------------------------------------------------------- *)
(* Served learning: train / predict / model *)

let train_keys = "analyst" :: Dp_train.Train.keys

let gate_summary ~rhat ~ess =
  if Array.length rhat = 0 then "rhat=deterministic ess=deterministic"
  else
    Printf.sprintf "rhat=%s ess=%s"
      (fstr (Array.fold_left Float.max neg_infinity rhat))
      (fstr (Array.fold_left Float.min infinity ess))

let train_lines eng name opts_tokens =
  match Engine.find eng name with
  | None -> [ Printf.sprintf "err unknown-dataset %s" name ]
  | Some ds -> (
      match parse_opts ~known:train_keys opts_tokens with
      | Error line -> [ line ]
      | Ok opts -> (
          let analyst = find_opt "analyst" opts in
          let params_opts = List.filter (fun (k, _) -> k <> "analyst") opts in
          match
            Dp_train.Train.params_of_opts
              ~default_epsilon:ds.Registry.policy.default_epsilon params_opts
          with
          | Error msg -> [ "err bad-argument " ^ msg ]
          | Ok params -> (
              match Engine.train eng ?analyst ~dataset:name params with
              | Error e -> error_lines e
              | Ok r ->
                  let m = r.Engine.model in
                  [
                    Printf.sprintf
                      "ok trained model=%s backend=%s eps-charged=%s \
                       eps-face=%s chains=%d steps=%d %s acceptance=%.3f \
                       released=yes"
                      m.Dp_train.Model_store.handle
                      m.Dp_train.Model_store.backend
                      (fstr r.Engine.charged.Privacy.epsilon)
                      (fstr m.Dp_train.Model_store.face.Privacy.epsilon)
                      m.Dp_train.Model_store.chains
                      m.Dp_train.Model_store.steps
                      (gate_summary ~rhat:m.Dp_train.Model_store.rhat
                         ~ess:m.Dp_train.Model_store.ess)
                      m.Dp_train.Model_store.acceptance;
                  ])))

let parse_point csv =
  let parts = String.split_on_char ',' csv in
  let floats = List.map float_of_string_opt parts in
  if List.exists Option.is_none floats then None
  else Some (Array.of_list (List.filter_map Fun.id floats))

let predict_lines eng handle csv =
  match parse_point csv with
  | None ->
      [ Printf.sprintf "err bad-argument predict point %s (want x1,x2,...)" csv ]
  | Some x -> (
      match Engine.predict eng handle x with
      | Ok v ->
          (* eps-charged=0 is the point: prediction is post-processing *)
          [ Printf.sprintf "ok predict model=%s value=%.6f eps-charged=0" handle v ]
      | Error e -> error_lines e)

(* θ in hex floats: the chaos harness diffs this line across kill -9
   recovery, so it must round-trip every bit. *)
let theta_line theta =
  Printf.sprintf "  theta=[%s]"
    (String.concat ","
       (Array.to_list (Array.map (Printf.sprintf "%h") theta)))

let model_lines eng handle =
  match Engine.find_model eng handle with
  | None -> [ Printf.sprintf "err unknown-model %s" handle ]
  | Some m ->
      let open Dp_train.Model_store in
      [
        Printf.sprintf "ok model %s dataset=%s backend=%s released=%s" m.handle
          m.dataset m.backend
          (match m.theta with Some _ -> "yes" | None -> "no");
        Printf.sprintf
          "  eps=%s eps-face=%s chains=%d steps=%d beta=%s target=%s \
           features=%s"
          (fstr m.epsilon)
          (fstr m.face.Privacy.epsilon)
          m.chains m.steps (fstr m.beta) m.target
          (String.concat ","
             (Array.to_list (Array.map (fun (n, _, _) -> n) m.features)));
        Printf.sprintf "  gate %s acceptance=%.3f"
          (gate_summary ~rhat:m.rhat ~ess:m.ess)
          m.acceptance;
      ]
      @ (match m.theta with Some theta -> [ theta_line theta ] | None -> [])

(* --------------------------------------------------------------- *)
(* Continual observation: stream new / append / stream read / stream
   window. Released counts are printed in hex floats alongside the
   human-readable value: the chaos harness diffs these lines across
   kill -9 recovery, so they must round-trip every bit. *)

let stream_keys = "analyst" :: Dp_stream.Stream.keys

let stream_new_lines eng name opts_tokens =
  match Engine.find eng name with
  | None -> [ Printf.sprintf "err unknown-dataset %s" name ]
  | Some ds -> (
      match parse_opts ~known:stream_keys opts_tokens with
      | Error line -> [ line ]
      | Ok opts -> (
          let analyst = find_opt "analyst" opts in
          let params_opts = List.filter (fun (k, _) -> k <> "analyst") opts in
          match
            Dp_stream.Stream.params_of_opts
              ~default_epsilon:ds.Registry.policy.default_epsilon params_opts
          with
          | Error msg -> [ "err bad-argument " ^ msg ]
          | Ok params -> (
              match Engine.stream_open eng ?analyst ~dataset:name params with
              | Error e -> error_lines e
              | Ok r ->
                  let s = r.Engine.stream in
                  let spec = s.Dp_stream.Stream_store.spec in
                  [
                    Printf.sprintf
                      "ok stream handle=%s N=%d window=%d levels=%d \
                       eps-level=%s eps-face=%s eps-charged=%s mechanism=tree"
                      s.Dp_stream.Stream_store.handle
                      spec.Dp_stream.Stream.params.Dp_stream.Stream.horizon
                      spec.Dp_stream.Stream.params.Dp_stream.Stream.window
                      spec.Dp_stream.Stream.levels
                      (fstr spec.Dp_stream.Stream.params.Dp_stream.Stream.epsilon)
                      (fstr spec.Dp_stream.Stream.face.Privacy.epsilon)
                      (fstr r.Engine.charged.Privacy.epsilon);
                  ])))

let append_lines eng handle bit_str =
  match int_of_string_opt bit_str with
  | None -> [ Printf.sprintf "err bad-argument append bit %s (want 0|1)" bit_str ]
  | Some bit -> (
      match Engine.append eng handle bit with
      | Error e -> error_lines e
      | Ok a ->
          [
            Printf.sprintf "ok append stream=%s t=%d nodes-closed=%d"
              a.Engine.handle a.Engine.t_now a.Engine.nodes_closed;
          ])

let stream_count_lines tag (c : Engine.stream_count) =
  [
    Printf.sprintf
      "ok %s stream=%s t=%d%s count=%.6f count-hex=%h eps-charged=0" tag
      c.Engine.handle c.Engine.t_now
      (match c.Engine.window with
      | Some w -> Printf.sprintf " w=%d" w
      | None -> "")
      c.Engine.count c.Engine.count;
    Printf.sprintf "  leakage: mi-bound=%s nats mi-per-step=%s nats steps=%d"
      (fstr c.Engine.leak.Meter.total.Meter.mi_bound_nats)
      (fstr c.Engine.leak.Meter.per_step_mi_nats)
      c.Engine.leak.Meter.steps;
  ]

let stream_read_lines eng handle =
  match Engine.stream_read eng handle with
  | Error e -> error_lines e
  | Ok c -> stream_count_lines "stream-read" c

let stream_window_lines eng handle opts_tokens =
  match parse_opts ~known:[ "w" ] opts_tokens with
  | Error line -> [ line ]
  | Ok opts -> (
      match int_opt "w" ~default:(-1) opts with
      | Error line -> [ line ]
      | Ok w -> (
          let w = if w < 0 then None else Some w in
          match Engine.stream_window eng handle ?w () with
          | Error e -> error_lines e
          | Ok c -> stream_count_lines "stream-window" c))

let help_lines =
  [
    "ok commands:";
    "  register NAME [rows=N] [eps=E] [delta=D] [backend=basic|advanced|rdp]";
    "           [slack=S] [default-eps=E] [analyst-eps=E] [universe=U]";
    "           [low-water=E] [no-cache]";
    "  query NAME EXPR [eps=E] [analyst=A]   e.g. query demo mean(income) eps=0.2";
    "  train NAME [backend=gibbs|objpert] [target=COL] [eps=E] [chains=N]";
    "        [steps=N] [burn=N] [step-std=S] [lambda=L] [rhat-max=R]";
    "        [ess-min=E] [analyst=A]       releases a model handle NAME/mK";
    "  predict HANDLE x1,x2,...              free post-processing of a release";
    "  model HANDLE                          handle metadata, gate verdict, theta";
    "  stream new NAME [eps=E] [N=L] [window=W] [analyst=A]";
    "        opens a continual counter NAME/sK, charging eps*ceil(log2 N) once";
    "  append HANDLE 0|1                     feed one event (pre-paid, journaled)";
    "  stream read HANDLE                    private prefix count, free";
    "  stream window HANDLE [w=W]            private sliding-window count, free";
    "  report NAME | log NAME | replay NAME | status | metrics | help | quit";
    "  EXPR: count | count(col>x) | sum(col) | mean(col) | histogram(col,bins)";
    "        | quantile(col,q) | cdf(col,t1,...)";
    "  errors: err bad-argument|bad-query|unknown-*|budget-exceeded (final)";
    "          err transient (retryable) | err degraded (cache hits only)";
    "          err degraded reason=unconverged (charge stands, model withheld)";
    "          err overloaded retry-after=MS (shed: retry after the delay)";
    "          err fatal (give up)";
  ]

let tokens line =
  String.split_on_char ' ' (String.trim line)
  |> List.filter (fun s -> s <> "")

let is_quit line =
  match tokens line with [ "quit" ] | [ "exit" ] -> true | _ -> false

let exec_parsed eng line =
  match tokens line with
  | [] -> []
  | word :: _ when String.length word > 0 && word.[0] = '#' -> []
  | [ "help" ] -> help_lines
  | [ "quit" ] | [ "exit" ] -> [ "ok bye" ]
  | "register" :: name :: opts -> register_lines eng name opts
  | "query" :: dataset :: expr :: opts -> query_lines eng dataset expr opts
  | [ "query" ] | [ "query"; _ ] ->
      [ "err bad-argument query needs NAME and EXPR (try 'help')" ]
  | "train" :: name :: opts -> train_lines eng name opts
  | [ "train" ] -> [ "err bad-argument train needs NAME (try 'help')" ]
  | [ "predict"; handle; point ] -> predict_lines eng handle point
  | "predict" :: _ ->
      [ "err bad-argument predict needs HANDLE and x1,x2,... (try 'help')" ]
  | [ "model"; handle ] -> model_lines eng handle
  | "model" :: _ -> [ "err bad-argument model needs HANDLE (try 'help')" ]
  | "stream" :: "new" :: name :: opts -> stream_new_lines eng name opts
  | [ "stream"; "read"; handle ] -> stream_read_lines eng handle
  | "stream" :: "window" :: handle :: opts ->
      stream_window_lines eng handle opts
  | "stream" :: _ ->
      [ "err bad-argument stream needs new|read|window (try 'help')" ]
  | [ "append"; handle; bit ] -> append_lines eng handle bit
  | "append" :: _ ->
      [ "err bad-argument append needs HANDLE and 0|1 (try 'help')" ]
  | [ "report"; dataset ] -> report_lines eng dataset
  | [ "log"; dataset ] -> log_lines eng dataset
  | [ "replay"; dataset ] -> replay_lines eng dataset
  | [ "status" ] -> status_lines eng
  | [ "metrics" ] -> metrics_reply eng
  | cmd :: _ ->
      [ Printf.sprintf "err unknown-command %s (try 'help')" cmd ]

let oversized_reply n =
  Printf.sprintf "err bad-argument line exceeds %d bytes (got %d)"
    max_line_bytes n

let[@dp.sanitizer] exec eng line =
  (* an oversized line is rejected before tokenization: unbounded
     garbage must cost a bounded parse, never a full one *)
  if String.length line > max_line_bytes then
    [ oversized_reply (String.length line) ]
  else
    try cap_reply (exec_parsed eng line) with
    | Faults.Crash _ as e -> raise e
    | e ->
        (* the taxonomy's last resort: no exception ever escapes the
           protocol as anything but a typed fatal error line *)
        [ "err fatal internal " ^ Printexc.to_string e ]

(* Read one newline-terminated request, buffering at most
   [max_line_bytes + 1] bytes; the rest of an oversized line is
   consumed and discarded. [input_line] would allocate the whole line
   before the cap could reject it, so an arbitrarily long newline-free
   input would buffer fully in memory — here unbounded garbage costs
   O(1) memory. Returns the (possibly truncated) line and the true
   byte count. *)
let bounded_line ic =
  let b = Buffer.create 128 in
  let rec go count =
    match input_char ic with
    | exception End_of_file ->
        if count = 0 then None else Some (Buffer.contents b, count)
    | '\n' -> Some (Buffer.contents b, count)
    | ch ->
        if Buffer.length b <= max_line_bytes then Buffer.add_char b ch;
        go (count + 1)
  in
  go 0

let serve eng ic oc =
  let faults = Engine.faults eng in
  let rec loop () =
    match bounded_line ic with
    | None -> ()
    | Some (line, count) ->
        let line, count =
          if Faults.fire faults Faults.Garbage_line then
            let g = String.make (max_line_bytes + 64) '\xfe' in
            (g, String.length g)
          else (line, count)
        in
        let reply =
          if count > max_line_bytes then [ oversized_reply count ]
          else exec eng line
        in
        List.iter (fun l -> output_string oc l; output_char oc '\n') reply;
        flush oc;
        if not (is_quit line) then loop ()
  in
  loop ()
