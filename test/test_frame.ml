(* The frame codec shared by the budget journal and the grant WAL,
   driven through both logs' [load].

   The two files under wire/ were written from the fixtures below by
   the code as it stood before the codec moved into [Frame] (commit
   14d748f). Today's code must load them to the same records and write
   the same records back byte for byte. A round trip cannot catch a
   format change, because encode and decode would change together.

   The scanner may drop a torn tail but must never raise, and never
   return a record that was not written: every single-bit flip and
   every truncation of a pinned file loads to a prefix of its records,
   and qcheck feeds it random bytes, alone or after valid frames, and
   well-framed payloads of random tokens. *)

open Dp_engine
open Dp_mechanism
module Grant_wal = Dp_pool.Grant_wal

let policy backend ~analyst_epsilon ~universe ~cache =
  {
    Registry.total = { Privacy.epsilon = 4.; delta = 1e-6 };
    backend;
    default_epsilon = 0.1;
    analyst_epsilon;
    universe;
    cache;
    low_water = 0.25;
  }

let journal_records =
  [
    Journal.Register
      {
        name = "demo";
        rows = 321;
        seed = 7;
        policy =
          policy Ledger.Basic ~analyst_epsilon:None ~universe:1024 ~cache:true;
      };
    Journal.Register
      {
        name = "adv;x";
        rows = 64;
        seed = -3;
        policy =
          policy (Ledger.Advanced { slack = 1e-6 }) ~analyst_epsilon:(Some 0.5)
            ~universe:2 ~cache:false;
      };
    Journal.Register
      {
        name = "rdp";
        rows = 1;
        seed = 0;
        policy =
          policy (Ledger.Rdp { delta = 1e-5 }) ~analyst_epsilon:None ~universe:7
            ~cache:true;
      };
    Journal.Charge
      {
        dataset = "demo";
        analyst = Some "alice";
        query = "mean(income)";
        mechanism = "laplace";
        face = { Privacy.epsilon = 0.125; delta = 1e-7 };
        marginal = { Privacy.epsilon = 0.125; delta = 0. };
        rho = Some [| 0.5; 1.25; 3. |];
      };
    Journal.Charge
      {
        dataset = "rdp";
        analyst = None;
        query = "count(age>40)";
        mechanism = "geometric";
        face = { Privacy.epsilon = 0.1; delta = 0. };
        marginal = { Privacy.epsilon = 0.0999999999999999; delta = 0. };
        rho = None;
      };
    Journal.Cache_insert
      {
        dataset = "demo";
        key = "count|eps=0.1";
        answer = Planner.Scalar 317.000000000000057;
        mechanism = Planner.Geometric;
        requested = { Privacy.epsilon = 0.1; delta = 0. };
      };
    Journal.Cache_insert
      {
        dataset = "demo";
        key = "histogram(age,4)";
        answer = Planner.Vector [| 1.5; -0.25; 1e-310; 80.0000000000001; -0. |];
        mechanism = Planner.Laplace;
        requested = { Privacy.epsilon = 0.2; delta = 0. };
      };
    Journal.Cache_insert
      {
        dataset = "adv;x";
        key = "quantile(age,0.5)";
        answer = Planner.Scalar (-2.5);
        mechanism = Planner.Exponential;
        requested = { Privacy.epsilon = 0.05; delta = 0. };
      };
    Journal.Cache_insert
      {
        dataset = "rdp";
        key = "";
        answer = Planner.Vector [||];
        mechanism = Planner.Discrete_gaussian;
        requested = { Privacy.epsilon = 0.3; delta = 1e-9 };
      };
    Journal.Withheld { dataset = "demo"; reason = "journal fsync failed" };
    Journal.Train
      {
        dataset = "demo";
        handle = "demo/m1";
        backend = "gibbs";
        epsilon = 0.1;
        chains = 2;
        steps = 4000;
        beta = 12.5;
        face = { Privacy.epsilon = 0.2; delta = 0. };
        target = "label";
        features = [| ("age", 18., 90.); ("income", 0., 250000.) |];
        theta = Some [| 0.25; -1.75e-3 |];
        rhat = [| 1.01; 1.002 |];
        ess = [| 812.5; 790. |];
        acceptance = 0.31;
      };
    Journal.Train
      {
        dataset = "demo";
        handle = "demo/m2";
        backend = "objpert";
        epsilon = 0.05;
        chains = 1;
        steps = 0;
        beta = 0.;
        face = { Privacy.epsilon = 0.05; delta = 0. };
        target = "";
        features = [||];
        theta = None;
        rhat = [||];
        ess = [||];
        acceptance = 1.;
      };
    Journal.Stream_open
      {
        dataset = "demo";
        handle = "demo/s1";
        epsilon = 0.5;
        horizon = 64;
        window = 8;
      };
    Journal.Stream_append
      {
        dataset = "demo";
        handle = "demo/s1";
        bit = 1;
        nodes = [| 0.75; -3.25 |];
      };
    Journal.Stream_append
      { dataset = "demo"; handle = "demo/s1"; bit = 0; nodes = [||] };
  ]

let wal_records =
  [
    Grant_wal.Dataset
      { name = "demo"; eps = 2.5; line = "register demo rows=100 eps=2.5" };
    Grant_wal.Dataset
      { name = "b;2"; eps = 1e-3; line = "register b;2 eps=0.001" };
    Grant_wal.Incarnation { shard = 0; token = 1 };
    Grant_wal.Incarnation { shard = 2; token = 17 };
    Grant_wal.Grant
      {
        shard = 0;
        token = 1;
        dataset = "demo";
        leased = 0.5;
        deadline = 1760000000.125;
      };
    Grant_wal.Grant
      {
        shard = 2;
        token = 17;
        dataset = "b;2";
        leased = 1e-3;
        deadline = infinity;
      };
    Grant_wal.Reclaim { shard = 0; token = 1; dataset = "demo"; spent = 0.3 };
    Grant_wal.Reclaim { shard = 2; token = 17; dataset = "b;2"; spent = 0. };
  ]

(* ------------------------------------------------------------------ *)

let read path = In_channel.with_open_bin path In_channel.input_all

let write path content =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc content)

type 'r log = {
  name : string;
  pinned : string;
  records : 'r list;
  tags : string;  (** record tags, for well-framed random payloads *)
  load : string -> ('r list * int, string) result;  (** records, torn bytes *)
  append_all : string -> 'r list -> unit;  (** to a new file *)
}

let journal =
  {
    name = "journal";
    pinned = "wire/journal.bin";
    records = journal_records;
    tags = "RCKWTSA";
    load =
      (fun path ->
        Result.map
          (fun (rs, st) -> (rs, st.Journal.torn_bytes))
          (Journal.load path));
    append_all =
      (fun path records ->
        match Journal.open_ path with
        | Error msg -> Alcotest.fail msg
        | Ok (j, _, _) ->
            List.iter
              (fun r ->
                match Journal.append j [ r ] with
                | Ok () -> ()
                | Error (`Transient msg | `Fatal msg) -> Alcotest.fail msg)
              records;
            Journal.close j);
  }

let wal =
  {
    name = "grant wal";
    pinned = "wire/grants.bin";
    records = wal_records;
    tags = "DIGR";
    load = Grant_wal.load;
    append_all =
      (fun path records ->
        match Grant_wal.open_ path with
        | Error msg -> Alcotest.fail msg
        | Ok (w, _, _) ->
            List.iter
              (fun r ->
                match Grant_wal.append w r with
                | Ok () -> ()
                | Error msg -> Alcotest.fail msg)
              records;
            Grant_wal.close w);
  }

let with_temp f =
  let path = Filename.temp_file "dpkit_frame" ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* load [content] from a file; [Error] if the load raised or failed *)
let load_bytes log path content =
  write path content;
  match log.load path with
  | Ok (records, _) -> Ok records
  | Error msg -> Error msg
  | exception e -> Error (Printexc.to_string e)

let rec is_prefix xs ys =
  match (xs, ys) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

let pinned_format log () =
  (match log.load log.pinned with
  | Error msg -> Alcotest.fail msg
  | Ok (records, torn) ->
      Alcotest.(check int) "no torn bytes" 0 torn;
      Alcotest.(check bool)
        "decodes to the fixture" true (records = log.records));
  with_temp (fun path ->
      Sys.remove path;
      log.append_all path log.records;
      Alcotest.(check string)
        "encodes byte for byte" (read log.pinned) (read path))

let damaged_prefix log () =
  let good = read log.pinned in
  let n = String.length good in
  with_temp (fun path ->
      let expect what content =
        match load_bytes log path content with
        | Ok records when is_prefix records log.records -> ()
        | Ok _ ->
            Alcotest.failf "%s %s: records that were never written" log.name
              what
        | Error msg -> Alcotest.failf "%s %s: %s" log.name what msg
      in
      for bit = 0 to (8 * n) - 1 do
        let b = Bytes.of_string good in
        let i = bit / 8 in
        Bytes.set b i (Char.chr (Char.code good.[i] lxor (1 lsl (bit mod 8))));
        expect (Printf.sprintf "bit %d flipped" bit) (Bytes.to_string b)
      done;
      for cut = 0 to n do
        expect (Printf.sprintf "cut at %d" cut) (String.sub good 0 cut)
      done)

(* Random bytes, alone or after every valid frame of the pinned file:
   the valid frames load, and nothing after them does. *)
let random_bytes log =
  QCheck.Test.make ~count:500
    ~name:(log.name ^ ": random bytes never raise or over-count")
    QCheck.(pair bool (string_of_size Gen.(0 -- 300)))
    (fun (after_valid, junk) ->
      with_temp (fun path ->
          let prefix, expected =
            if after_valid then (read log.pinned, log.records) else ("", [])
          in
          match load_bytes log path (prefix ^ junk) with
          | Ok records -> records = expected
          | Error msg -> QCheck.Test.fail_report msg))

(* Well-framed payloads of random tokens reach deep into the decoders,
   huge lengths and counts included: each must decode or be refused,
   never raise, and yield at most one record per frame. *)
let random_payloads log =
  let tokens =
    [ "0;"; "1;"; "-1;"; "7;"; "4611686018427387903;"; "999999999;";
      "0x1.8p+1;"; "nan;"; "infinity;"; "1"; "0"; ";"; "demo"; "x"; "" ]
  in
  let payload =
    QCheck.Gen.(
      map2
        (fun tag toks -> String.make 1 tag ^ String.concat "" toks)
        (oneofl (List.init (String.length log.tags) (String.get log.tags)))
        (list_size (0 -- 16) (oneofl tokens)))
  in
  QCheck.Test.make ~count:2000
    ~name:(log.name ^ ": random payloads never raise")
    (QCheck.make
       ~print:(fun ps -> String.concat " | " (List.map String.escaped ps))
       QCheck.Gen.(list_size (1 -- 4) payload))
    (fun payloads ->
      with_temp (fun path ->
          let content = String.concat "" (List.map Frame.frame payloads) in
          match load_bytes log path content with
          | Ok records -> List.length records <= List.length payloads
          | Error msg -> QCheck.Test.fail_report msg))

let () =
  Alcotest.run "frame"
    [
      ( "wire-format",
        [
          Alcotest.test_case "journal pinned" `Quick (pinned_format journal);
          Alcotest.test_case "grant wal pinned" `Quick (pinned_format wal);
        ] );
      ( "damage",
        [
          Alcotest.test_case "journal bit flips and cuts" `Quick
            (damaged_prefix journal);
          Alcotest.test_case "grant wal bit flips and cuts" `Quick
            (damaged_prefix wal);
        ] );
      ( "fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            random_bytes journal;
            random_bytes wal;
            random_payloads journal;
            random_payloads wal;
          ] );
    ]
