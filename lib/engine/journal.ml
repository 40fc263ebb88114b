open Dp_mechanism
module Model_store = Dp_train.Model_store

type charge_record = {
  dataset : string;
  analyst : string option;
  query : string;
  mechanism : string;
  face : Privacy.budget;
  marginal : Privacy.budget;
  rho : float array option;
}

type cache_record = {
  dataset : string;
  key : string;
  answer : Planner.answer;
  mechanism : Planner.mechanism;
  requested : Privacy.budget;
}

type stream_open_record = {
  dataset : string;
  handle : string;
  epsilon : float;
  horizon : int;
  window : int;
}

type stream_append_record = {
  dataset : string;
  handle : string;
  bit : int;
  nodes : float array;
      (* the noisy values taken by the tree nodes closing at this step,
         lowest level first — hex-float round-tripped, so a recovered
         tree holds bit-identical state and replay consumes no draws *)
}

type record =
  | Register of { name : string; rows : int; seed : int; policy : Registry.policy }
  | Charge of charge_record
  | Cache_insert of cache_record
  | Withheld of { dataset : string; reason : string }
  | Train of Model_store.model
  | Stream_open of stream_open_record
  | Stream_append of stream_append_record

type stats = { records : int; torn_bytes : int }

(* ------------------------------------------------------------------ *)
(* Payload encoding on Frame's field primitives: hex floats round-trip
   every finite float exactly, which is what makes recovered cache
   answers bit-identical. *)

open Frame

let put_budget b (x : Privacy.budget) =
  put_float b x.Privacy.epsilon;
  put_float b x.Privacy.delta

let put_backend b = function
  | Ledger.Basic -> Buffer.add_char b 'b'
  | Ledger.Advanced { slack } ->
      Buffer.add_char b 'a';
      put_float b slack
  | Ledger.Rdp { delta } ->
      Buffer.add_char b 'r';
      put_float b delta

let put_policy b (p : Registry.policy) =
  put_budget b p.Registry.total;
  put_backend b p.Registry.backend;
  put_float b p.Registry.default_epsilon;
  put_opt put_float b p.Registry.analyst_epsilon;
  put_int b p.Registry.universe;
  put_bool b p.Registry.cache;
  put_float b p.Registry.low_water

let put_mechanism b (m : Planner.mechanism) =
  Buffer.add_char b
    (match m with
    | Planner.Laplace -> 'l'
    | Planner.Geometric -> 'g'
    | Planner.Exponential -> 'e'
    | Planner.Discrete_gaussian -> 'd')

let put_answer b = function
  | Planner.Scalar v ->
      Buffer.add_char b 's';
      put_float b v
  | Planner.Vector vs ->
      Buffer.add_char b 'v';
      put_farr b vs

let encode r =
  let b = Buffer.create 128 in
  (match r with
  | Register { name; rows; seed; policy } ->
      Buffer.add_char b 'R';
      put_str b name;
      put_int b rows;
      put_int b seed;
      put_policy b policy
  | Charge c ->
      Buffer.add_char b 'C';
      put_str b c.dataset;
      put_opt put_str b c.analyst;
      put_str b c.query;
      put_str b c.mechanism;
      put_budget b c.face;
      put_budget b c.marginal;
      put_opt put_farr b c.rho
  | Cache_insert k ->
      Buffer.add_char b 'K';
      put_str b k.dataset;
      put_str b k.key;
      put_mechanism b k.mechanism;
      put_budget b k.requested;
      put_answer b k.answer
  | Withheld { dataset; reason } ->
      Buffer.add_char b 'W';
      put_str b dataset;
      put_str b reason
  | Train m ->
      Buffer.add_char b 'T';
      put_str b m.dataset;
      put_str b m.handle;
      put_str b m.backend;
      put_float b m.epsilon;
      put_int b m.chains;
      put_int b m.steps;
      put_float b m.beta;
      put_budget b m.face;
      put_str b m.target;
      put_int b (Array.length m.features);
      Array.iter
        (fun (name, lo, hi) ->
          put_str b name;
          put_float b lo;
          put_float b hi)
        m.features;
      put_opt put_farr b m.theta;
      put_farr b m.rhat;
      put_farr b m.ess;
      put_float b m.acceptance
  | Stream_open s ->
      Buffer.add_char b 'S';
      put_str b s.dataset;
      put_str b s.handle;
      put_float b s.epsilon;
      put_int b s.horizon;
      put_int b s.window
  | Stream_append a ->
      Buffer.add_char b 'A';
      put_str b a.dataset;
      put_str b a.handle;
      put_int b a.bit;
      put_farr b a.nodes);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decoding. Any malformation raises [Frame.Corrupt]; the scanner treats
   the corrupt record and everything after it as a torn tail. *)

let get_budget c =
  let epsilon = get_float c in
  let delta = get_float c in
  { Privacy.epsilon; delta }

let get_backend c =
  match get_char c with
  | 'b' -> Ledger.Basic
  | 'a' -> Ledger.Advanced { slack = get_float c }
  | 'r' -> Ledger.Rdp { delta = get_float c }
  | _ -> raise Corrupt

let get_policy c =
  let total = get_budget c in
  let backend = get_backend c in
  let default_epsilon = get_float c in
  let analyst_epsilon = get_opt get_float c in
  let universe = get_int c in
  let cache = get_bool c in
  let low_water = get_float c in
  {
    Registry.total;
    backend;
    default_epsilon;
    analyst_epsilon;
    universe;
    cache;
    low_water;
  }

let get_mechanism c =
  match get_char c with
  | 'l' -> Planner.Laplace
  | 'g' -> Planner.Geometric
  | 'e' -> Planner.Exponential
  | 'd' -> Planner.Discrete_gaussian
  | _ -> raise Corrupt

let get_answer c =
  match get_char c with
  | 's' -> Planner.Scalar (get_float c)
  | 'v' -> Planner.Vector (get_farr c)
  | _ -> raise Corrupt

let decode c =
  match get_char c with
  | 'R' ->
      let name = get_str c in
      let rows = get_int c in
      let seed = get_int c in
      let policy = get_policy c in
      Register { name; rows; seed; policy }
  | 'C' ->
      let dataset = get_str c in
      let analyst = get_opt get_str c in
      let query = get_str c in
      let mechanism = get_str c in
      let face = get_budget c in
      let marginal = get_budget c in
      let rho = get_opt get_farr c in
      Charge { dataset; analyst; query; mechanism; face; marginal; rho }
  | 'K' ->
      let dataset = get_str c in
      let key = get_str c in
      let mechanism = get_mechanism c in
      let requested = get_budget c in
      let answer = get_answer c in
      Cache_insert { dataset; key; answer; mechanism; requested }
  | 'W' ->
      let dataset = get_str c in
      let reason = get_str c in
      Withheld { dataset; reason }
  | 'T' ->
      let dataset = get_str c in
      let handle = get_str c in
      let backend = get_str c in
      let epsilon = get_float c in
      let chains = get_int c in
      let steps = get_int c in
      let beta = get_float c in
      let face = get_budget c in
      let target = get_str c in
      let n_features = get_int c in
      if n_features < 0 || n_features > 100_000 then raise Corrupt;
      let features =
        Array.init n_features (fun _ ->
            let name = get_str c in
            let lo = get_float c in
            let hi = get_float c in
            (name, lo, hi))
      in
      let theta = get_opt get_farr c in
      let rhat = get_farr c in
      let ess = get_farr c in
      let acceptance = get_float c in
      Train
        {
          Model_store.dataset;
          handle;
          backend;
          epsilon;
          chains;
          steps;
          beta;
          face;
          target;
          features;
          theta;
          rhat;
          ess;
          acceptance;
        }
  | 'S' ->
      let dataset = get_str c in
      let handle = get_str c in
      let epsilon = get_float c in
      let horizon = get_int c in
      let window = get_int c in
      Stream_open { dataset; handle; epsilon; horizon; window }
  | 'A' ->
      let dataset = get_str c in
      let handle = get_str c in
      let bit = get_int c in
      let nodes = get_farr c in
      Stream_append { dataset; handle; bit; nodes }
  | _ -> raise Corrupt

(* ------------------------------------------------------------------ *)

let stats records torn = { records = List.length records; torn_bytes = torn }

let load path =
  match Frame.load decode path with
  | Error msg -> Error (Printf.sprintf "journal %s: %s" path msg)
  | Ok (records, torn) -> Ok (records, stats records torn)

type t = {
  log : Frame.t;
  faults : Faults.t;
  obs : Dp_obs.Metrics.scope;
  jitter : Dp_rng.Prng.t option;
      (** non-privacy stream for retry-backoff full jitter *)
  mutable poisoned : bool;
}

let path t = Frame.path t.log
let close t = Frame.close t.log

let open_ ?(faults = Faults.none) ?(obs = Dp_obs.Metrics.null) ?jitter path =
  match Frame.open_ decode path with
  | Error msg -> Error (Printf.sprintf "journal %s: %s" path msg)
  | Ok (log, records, torn) ->
      Ok
        ( { log; faults; obs; jitter; poisoned = false },
          records,
          stats records torn )

let append t records =
  if t.poisoned then Error (`Fatal "journal poisoned by an earlier failure")
  else
    let t0 = Dp_obs.Clock.now_ns () in
    let batch = String.concat "" (List.map (fun r -> frame (encode r)) records) in
    (* cut back to where the batch began, so nothing the caller was
       refused can replay; if even that is impossible the journal can no
       longer be trusted *)
    let refuse step msg =
      match Frame.cut t.log with
      | () -> Error (`Transient (Printf.sprintf "journal %s failed: %s" step msg))
      | exception Unix.Unix_error _ ->
          t.poisoned <- true;
          Error
            (`Fatal
              (Printf.sprintf
                 "journal %s failed and the file could not be repaired: %s"
                 step msg))
    in
    let write =
      Faults.with_retries ?jitter:t.jitter (fun ~attempt ->
          (* a failed earlier attempt may have left part of the batch:
             O_APPEND writes land at the end, so cut back first *)
          if attempt > 1 then begin
            Dp_obs.Metrics.incr t.obs Dp_obs.Name.Journal_retries;
            Frame.cut t.log
          end;
          Faults.check t.faults ~attempt Faults.Journal_write;
          Frame.write t.log batch)
    in
    match write with
    | Error msg -> refuse "write" msg
    | Ok () -> (
        let f0 = Dp_obs.Clock.now_ns () in
        let sync =
          Faults.with_retries ?jitter:t.jitter (fun ~attempt ->
              if attempt > 1 then
                Dp_obs.Metrics.incr t.obs Dp_obs.Name.Journal_retries;
              Faults.check t.faults ~attempt Faults.Journal_fsync;
              Frame.fsync t.log)
        in
        Dp_obs.Metrics.observe t.obs Dp_obs.Name.Journal_fsync_ns
          (Dp_obs.Clock.elapsed_ns f0);
        match sync with
        | Error msg -> refuse "fsync" msg
        | Ok () ->
            Frame.commit t.log batch;
            Dp_obs.Metrics.incr t.obs Dp_obs.Name.Journal_fsyncs;
            Dp_obs.Metrics.add t.obs Dp_obs.Name.Journal_appends
              (List.length records);
            Dp_obs.Metrics.observe t.obs Dp_obs.Name.Journal_append_ns
              (Dp_obs.Clock.elapsed_ns t0);
            Ok ())
