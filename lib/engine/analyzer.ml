open Dp_mechanism

(* ------------------------------------------------------------------ *)
(* Schema and workload file parsing *)

let ( let* ) = Result.bind

let at_line n = Result.map_error (Printf.sprintf "line %d: %s" n)

(* Option errors are the serve protocol's reply lines; a file
   diagnostic is the same reply without its "err " tag. *)
let untag r =
  Result.map_error
    (fun msg ->
      if String.length msg > 4 && String.sub msg 0 4 = "err " then
        String.sub msg 4 (String.length msg - 4)
      else msg)
    r

let opts ~known tokens = untag (Protocol.parse_opts ~known tokens)
let float_opt key ~default kvs = untag (Protocol.float_opt key ~default kvs)

let content_lines text =
  (* (line number, tokens), comments and blanks dropped *)
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter_map (fun (n, line) ->
         let toks =
           String.split_on_char ' ' (String.trim line)
           |> List.filter (fun s -> s <> "")
         in
         match toks with
         | [] -> None
         | w :: _ when String.length w > 0 && w.[0] = '#' -> None
         | _ -> Some (n, toks))

let parse_schema text =
  let rec go header cols = function
    | [] -> (
        match header with
        | None -> Error "schema: missing 'dataset NAME ...' line"
        | Some (name, rows, policy) ->
            Registry.schema ~name ~rows ~policy (List.rev cols))
    | (n, toks) :: rest -> (
        match toks with
        | [] -> go header cols rest
        | "dataset" :: name :: kv_toks ->
            if header <> None then
              Error (Printf.sprintf "line %d: duplicate dataset line" n)
            else
              (* exactly a live `register` line's options, so a schema
                 prices the same service the server would run *)
              let* rows, policy =
                at_line n (untag (Protocol.dataset_of_opts kv_toks))
              in
              go (Some (name, rows, policy)) cols rest
        | "column" :: name :: kv_toks ->
            let* c =
              at_line n
                (let* kvs = opts ~known:[ "lo"; "hi" ] kv_toks in
                 let* lo = float_opt "lo" ~default:nan kvs in
                 let* hi = float_opt "hi" ~default:nan kvs in
                 if Float.is_nan lo || Float.is_nan hi then
                   Error
                     (Printf.sprintf "column %s needs lo= and hi= bounds" name)
                 else Ok { Registry.col = name; lo; hi })
            in
            go header (c :: cols) rest
        | w :: _ ->
            Error
              (Printf.sprintf
                 "line %d: expected 'dataset' or 'column', got %S" n w))
  in
  go None [] (content_lines text)

type item =
  | Stat of { text : string; query : Query.t; epsilon : float option }
  | Train of { text : string; train_opts : (string * string option) list }
  | Stream of { text : string; stream_opts : (string * string option) list }

let parse_workload text =
  let parse_one (n, toks) =
    match toks with
    | [] -> assert false
    | "train" :: opt_toks ->
        (* option keys are validated here (line-numbered diagnostics);
           values are validated in [simulate], where the schema's
           default ε is known *)
        at_line n
          (let* kvs = opts ~known:Dp_train.Train.keys opt_toks in
           Ok
             (Train
                { text = String.concat " " ("train" :: opt_toks); train_opts = kvs }))
    | "stream" :: opt_toks ->
        at_line n
          (let* kvs = opts ~known:Dp_stream.Stream.keys opt_toks in
           Ok
             (Stream
                {
                  text = String.concat " " ("stream" :: opt_toks);
                  stream_opts = kvs;
                }))
    | expr :: opt_toks ->
        at_line n
          (let* kvs = opts ~known:[ "eps" ] opt_toks in
           let* eps =
             match Protocol.find_opt "eps" kvs with
             | None -> Ok None
             | Some _ -> Result.map Option.some (float_opt "eps" ~default:0. kvs)
           in
           let* query = Query.parse expr in
           Ok (Stat { text = expr; query; epsilon = eps }))
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let* q = parse_one line in
        go (q :: acc) rest
  in
  go [] (content_lines text)

(* ------------------------------------------------------------------ *)
(* The static ε-odometer *)

type row = {
  index : int;
  query : string;
  mechanism : string;
  sensitivity : float;
  epsilon : float;
  face : Privacy.budget;
  marginal : Privacy.budget;
  accepted : bool;
}

type composed = {
  backend : Ledger.backend;
  spent : Privacy.budget;
  rejected : int;
}

type report = {
  schema : Registry.schema;
  rows : row list;
  accepted : int;
  rejected : int;
  spent : Privacy.budget;
  remaining : Privacy.budget;
  composed : composed list;
  pass : bool;
}

(* Simulate a live serving run under [backend]: plan each query
   statically and push its charge through a real ledger — the exact
   spend/commit code the engine runs — so the totals (and the
   accept/reject pattern) are bit-identical to an execution. *)
let simulate (s : Registry.schema) ~backend items =
  let s = { s with Registry.policy = { s.policy with backend } } in
  let ledger = Ledger.create ~total:s.policy.total ~backend () in
  (* one code path charges both query kinds: spend through the same
     ledger the live engine uses, then difference the composed spend *)
  let charge_row ~index ~query ~mechanism ~sensitivity ~epsilon
      (charge : Ledger.charge) =
    let before = Ledger.spent ledger in
    let accepted =
      match Ledger.spend ledger charge with Ok () -> true | Error _ -> false
    in
    let after = Ledger.spent ledger in
    {
      index;
      query;
      mechanism;
      sensitivity;
      epsilon;
      face = charge.Ledger.budget;
      marginal =
        {
          Privacy.epsilon =
            Float.max 0. (after.Privacy.epsilon -. before.Privacy.epsilon);
          delta = Float.max 0. (after.Privacy.delta -. before.Privacy.delta);
        };
      accepted;
    }
  in
  let rows =
    List.mapi
      (fun i (it : item) ->
        match it with
        | Stat { text; query; epsilon } -> (
            let eps =
              match epsilon with
              | Some e -> e
              | None -> s.policy.default_epsilon
            in
            match Planner.spec s ~epsilon:eps query with
            | Error msg ->
                Error (Printf.sprintf "query %d (%s): %s" (i + 1) text msg)
            | Ok sp ->
                Ok
                  (charge_row ~index:(i + 1) ~query:(Query.normalize query)
                     ~mechanism:(Planner.mechanism_name sp.Planner.mechanism)
                     ~sensitivity:sp.Planner.sensitivity ~epsilon:eps
                     sp.Planner.charge))
        | Train { text; train_opts } -> (
            (* the exact static half the live engine trains on:
               Dp_train.Train.spec prices from rows and column names
               alone, and the charge below is the same
               {budget = spec.face; rdp = None} the engine spends —
               bit-identical by construction *)
            match
              Dp_train.Train.params_of_opts
                ~default_epsilon:s.policy.default_epsilon train_opts
            with
            | Error msg ->
                Error (Printf.sprintf "query %d (%s): %s" (i + 1) text msg)
            | Ok params -> (
                let cols =
                  Array.to_list
                    (Array.map
                       (fun (c : Registry.col_schema) -> c.Registry.col)
                       s.Registry.cols)
                in
                match
                  Dp_train.Train.spec ~rows:s.Registry.rows ~cols params
                with
                | Error msg ->
                    Error (Printf.sprintf "query %d (%s): %s" (i + 1) text msg)
                | Ok spec ->
                    Ok
                      (charge_row ~index:(i + 1)
                         ~query:(Dp_train.Train.normalize params)
                         ~mechanism:
                           (Dp_train.Train.backend_name
                              params.Dp_train.Train.backend)
                         ~sensitivity:spec.Dp_train.Train.sensitivity
                         ~epsilon:params.Dp_train.Train.epsilon
                         { Ledger.budget = spec.Dp_train.Train.face; rdp = None })))
        | Stream { text; stream_opts } -> (
            (* a whole continual-observation stream priced as one line:
               Dp_stream.Stream.spec is the same function the live
               engine charges at [stream new], and the charge below is
               the same {budget = spec.face; rdp = None} — so the
               analyzer's total is float-bit-identical to serving the
               stream end to end, appends and all (appends are
               pre-paid) *)
            match
              Dp_stream.Stream.params_of_opts
                ~default_epsilon:s.policy.default_epsilon stream_opts
            with
            | Error msg ->
                Error (Printf.sprintf "query %d (%s): %s" (i + 1) text msg)
            | Ok params -> (
                match Dp_stream.Stream.spec params with
                | Error msg ->
                    Error (Printf.sprintf "query %d (%s): %s" (i + 1) text msg)
                | Ok spec ->
                    Ok
                      (charge_row ~index:(i + 1)
                         ~query:(Dp_stream.Stream.normalize params)
                         ~mechanism:Dp_stream.Stream.mechanism_name
                         ~sensitivity:spec.Dp_stream.Stream.sensitivity
                         ~epsilon:params.Dp_stream.Stream.epsilon
                         {
                           Ledger.budget = spec.Dp_stream.Stream.face;
                           rdp = None;
                         }))))
      items
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | Error msg :: _ -> Error msg
    | Ok r :: rest -> collect (r :: acc) rest
  in
  let* rows = collect [] rows in
  Ok (rows, Ledger.spent ledger, Ledger.remaining ledger)

let analyze (s : Registry.schema) items =
  let slack =
    match s.policy.backend with Ledger.Advanced { slack } -> slack | _ -> 1e-6
  in
  let rdp_delta =
    match s.policy.backend with
    | Ledger.Rdp { delta } -> delta
    | _ -> if s.policy.total.Privacy.delta > 0. then s.policy.total.Privacy.delta else 1e-6
  in
  let* rows, spent, remaining = simulate s ~backend:s.policy.backend items in
  let composed_under backend =
    let* sim_rows, sim_spent, _ = simulate s ~backend items in
    Ok
      {
        backend;
        spent = sim_spent;
        rejected = List.length (List.filter (fun (r : row) -> not r.accepted) sim_rows);
      }
  in
  let* basic = composed_under Ledger.Basic in
  let* advanced = composed_under (Ledger.Advanced { slack }) in
  let* rdp = composed_under (Ledger.Rdp { delta = rdp_delta }) in
  let rejected = List.length (List.filter (fun (r : row) -> not r.accepted) rows) in
  Ok
    {
      schema = s;
      rows;
      accepted = List.length rows - rejected;
      rejected;
      spent;
      remaining;
      composed = [ basic; advanced; rdp ];
      pass = rejected = 0;
    }

(* ------------------------------------------------------------------ *)
(* Report rendering — deterministic (no data was read, no noise drawn),
   so the output is diffable in tests. *)

let fstr x = Printf.sprintf "%g" x

let pp_report fmt r =
  let s = r.schema in
  Format.fprintf fmt "schema %s: rows=%d columns=%s@." s.Registry.name
    s.Registry.rows
    (String.concat ","
       (Array.to_list
          (Array.map (fun (c : Registry.col_schema) -> c.col) s.Registry.cols)));
  Format.fprintf fmt
    "policy: eps-total=%s delta-total=%s backend=%s default-eps=%s@."
    (fstr s.Registry.policy.total.Privacy.epsilon)
    (fstr s.Registry.policy.total.Privacy.delta)
    (Format.asprintf "%a" Ledger.pp_backend s.Registry.policy.backend)
    (fstr s.Registry.policy.default_epsilon);
  Format.fprintf fmt "workload: %d queries@." (List.length r.rows);
  List.iter
    (fun row ->
      Format.fprintf fmt "  %2d  %-34s %-18s sens=%-10s eps=%-8s charged-eps=%-10s %s@."
        row.index row.query row.mechanism
        (fstr row.sensitivity) (fstr row.epsilon)
        (fstr row.marginal.Privacy.epsilon)
        (if row.accepted then "ok" else "REJECTED"))
    r.rows;
  Format.fprintf fmt "composed totals (static, no data access, no sampling):@.";
  List.iter
    (fun c ->
      Format.fprintf fmt "  %-24s eps=%-12s delta=%s%s@."
        (Format.asprintf "%a" Ledger.pp_backend c.backend)
        (fstr c.spent.Privacy.epsilon)
        (fstr c.spent.Privacy.delta)
        (if c.rejected > 0 then Printf.sprintf "  (%d rejected)" c.rejected
         else ""))
    r.composed;
  if r.pass then
    Format.fprintf fmt
      "verdict: PASS — %d/%d queries affordable, spent eps=%s delta=%s, \
       remaining eps=%s@."
      r.accepted (List.length r.rows)
      (fstr r.spent.Privacy.epsilon)
      (fstr r.spent.Privacy.delta)
      (fstr r.remaining.Privacy.epsilon)
  else
    Format.fprintf fmt
      "verdict: FAIL — %d of %d queries rejected under %s composition \
       (spent eps=%s of %s)@."
      r.rejected (List.length r.rows)
      (Format.asprintf "%a" Ledger.pp_backend s.Registry.policy.backend)
      (fstr r.spent.Privacy.epsilon)
      (fstr s.Registry.policy.total.Privacy.epsilon)
