(* The worker pool's budget arbitration. The qcheck property drives
   Lease through arbitrary grant / spend / expire-and-restart / stale /
   WAL-failure-rollback interleavings with an honest worker model and
   asserts the two soundness properties the pool leans on: the invariant
   Σ reclaimed + Σ outstanding ≤ E never breaks, and no fencing token
   is ever issued twice. The unit tests pin the grant WAL's round-trip
   and torn-tail behavior, the corner decisions of the arbiter, and an
   offline replay that leaves every file as it found it. *)

module Lease = Dp_pool.Lease
module Grant_wal = Dp_pool.Grant_wal
module Pool = Dp_pool.Pool
module Engine = Dp_engine.Engine
module Registry = Dp_engine.Registry

let slack = 1e-9

(* ------------------------------------------------------------------ *)
(* Honest-worker interleaving model: each shard keeps its incarnation's
   cumulative ask ([inc_need]) and the absolute face total its journal
   would show ([journal]); spends never exceed the granted lease, like
   a real worker behind the engine's lease gate. *)

type shard_model = {
  mutable token : int;
  mutable inc_leased : float;  (* latest Granted allowance (absolute) *)
  mutable inc_need : float;  (* cumulative ask this incarnation *)
  mutable journal : float;  (* absolute face total across lives *)
  mutable journal_base : float;  (* journal at incarnation start *)
}

let run_ops ~total ~shards ops =
  let t = Lease.create ~total ~shards in
  let next = ref 0 in
  let fresh () =
    let tk = !next in
    incr next;
    tk
  in
  let issued = Hashtbl.create 64 in
  let ms =
    Array.init shards (fun _ ->
        { token = -1; inc_leased = 0.; inc_need = 0.; journal = 0.;
          journal_base = 0. })
  in
  let issue shard =
    let tk = fresh () in
    if Hashtbl.mem issued tk then failwith "fencing token reused";
    Hashtbl.add issued tk ();
    Lease.new_incarnation t ~shard ~token:tk;
    let m = ms.(shard) in
    m.token <- tk;
    m.inc_leased <- 0.;
    m.inc_need <- 0.;
    m.journal_base <- m.journal
  in
  for k = 0 to shards - 1 do
    issue k
  done;
  let ok = ref true in
  let check () =
    if not (Lease.invariant_ok t) then ok := false;
    if Lease.reclaimed_spent t +. Lease.outstanding t > total +. slack then
      ok := false
  in
  List.iter
    (fun (shard, op, amount) ->
      let shard = shard mod shards in
      let m = ms.(shard) in
      (match op mod 5 with
      | 0 -> (
          (* ask for more *)
          let need = m.inc_need +. amount in
          match
            Lease.grant t ~shard ~token:m.token ~need ~quantum:0.5 ~now:0.
              ~ttl:5.
          with
          | Lease.Granted { leased; _ } ->
              if leased +. slack < need then failwith "granted below need";
              m.inc_leased <- leased;
              m.inc_need <- need
          | Lease.Denied _ -> ()
          | Lease.Stale _ -> failwith "live token judged stale")
      | 1 ->
          (* spend within the lease, as the gate enforces *)
          let headroom = m.inc_leased -. (m.journal -. m.journal_base) in
          let spend = Float.min amount headroom in
          if spend > 0. then m.journal <- m.journal +. spend
      | 2 ->
          (* crash: replay the journal, reclaim, restart fenced *)
          let r = Lease.reclaim t ~shard ~spent_total:m.journal in
          if r.Lease.overspend then failwith "honest worker flagged overspend";
          issue shard
      | 3 -> (
          (* a superseded incarnation retries its old token *)
          let stale = m.token - 1 in
          if stale >= 0 then
            let before = Lease.leased t ~shard in
            match
              Lease.grant t ~shard ~token:stale ~need:(amount +. 10.)
                ~quantum:0.5 ~now:0. ~ttl:5.
            with
            | Lease.Stale _ ->
                if Lease.leased t ~shard <> before then
                  failwith "stale grant mutated state"
            | Lease.Granted _ -> failwith "stale token granted"
            | Lease.Denied _ -> failwith "stale token denied, not fenced")
      | _ -> (
          (* a grant whose WAL append failed: raised in memory, rolled
             back before any ack, so the worker model learns nothing *)
          let prev = Lease.leased t ~shard in
          match
            Lease.grant t ~shard ~token:m.token ~need:(m.inc_need +. amount)
              ~quantum:0.5 ~now:0. ~ttl:5.
          with
          | Lease.Granted { leased; _ } ->
              if leased > prev +. slack then begin
                Lease.rollback t ~shard ~token:m.token ~leased:prev;
                if Lease.leased t ~shard <> prev then
                  failwith "rollback did not restore the lease"
              end
          | Lease.Denied _ -> ()
          | Lease.Stale _ -> failwith "live token judged stale"));
      check ())
    ops;
  (* final teardown: every shard crashes and is reclaimed; afterwards
     nothing is outstanding and total spend fits the budget *)
  for k = 0 to shards - 1 do
    ignore (Lease.reclaim t ~shard:k ~spent_total:ms.(k).journal)
  done;
  if Lease.outstanding t > slack then ok := false;
  if Lease.reclaimed_spent t > total +. slack then ok := false;
  !ok

let qcheck_tests =
  let open QCheck in
  let op_gen =
    Gen.(triple (int_range 0 3) (int_range 0 4) (float_range 0. 0.7))
  in
  let ops_gen = Gen.list_size (Gen.int_range 1 120) op_gen in
  [
    Test.make ~name:"lease invariant under arbitrary interleavings"
      ~count:300
      (make ops_gen ~print:(fun l -> string_of_int (List.length l)))
      (fun ops -> run_ops ~total:2.5 ~shards:4 ops);
    Test.make ~name:"lease invariant under tiny budget" ~count:300
      (make ops_gen ~print:(fun l -> string_of_int (List.length l)))
      (fun ops -> run_ops ~total:0.3 ~shards:3 ops);
  ]

(* ------------------------------------------------------------------ *)

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-12))

let lease_unit_tests =
  [
    Alcotest.test_case "deny past budget, exact re-ack" `Quick (fun () ->
        let t = Lease.create ~total:1.0 ~shards:2 in
        Lease.new_incarnation t ~shard:0 ~token:1;
        Lease.new_incarnation t ~shard:1 ~token:2;
        (match Lease.grant t ~shard:0 ~token:1 ~need:0.6 ~quantum:0.5 ~now:0. ~ttl:5. with
        | Lease.Granted { leased; _ } -> checkf "round up" 0.6 leased
        | _ -> Alcotest.fail "expected grant");
        (match Lease.grant t ~shard:1 ~token:2 ~need:0.3 ~quantum:0.5 ~now:0. ~ttl:5. with
        | Lease.Granted { leased; _ } -> checkf "clip to unleased" 0.4 leased
        | _ -> Alcotest.fail "expected clipped grant");
        (match Lease.grant t ~shard:1 ~token:2 ~need:0.5 ~quantum:0.5 ~now:0. ~ttl:5. with
        | Lease.Denied { unleased } -> checkf "nothing left" 0. unleased
        | _ -> Alcotest.fail "expected denial");
        (* an already-covered need re-acks without state change *)
        match Lease.grant t ~shard:0 ~token:1 ~need:0.6 ~quantum:0.5 ~now:1. ~ttl:5. with
        | Lease.Granted { leased; _ } ->
            checkf "re-ack" 0.6 leased;
            check "invariant" true (Lease.invariant_ok t)
        | _ -> Alcotest.fail "expected re-ack");
    Alcotest.test_case "reclaim returns unspent, flags overspend" `Quick
      (fun () ->
        let t = Lease.create ~total:2.0 ~shards:1 in
        Lease.new_incarnation t ~shard:0 ~token:1;
        ignore (Lease.grant t ~shard:0 ~token:1 ~need:1.0 ~quantum:0. ~now:0. ~ttl:5.);
        let r = Lease.reclaim t ~shard:0 ~spent_total:0.4 in
        check "no overspend" false r.Lease.overspend;
        checkf "unspent back" 0.6 r.Lease.unspent;
        checkf "grantable again" 1.6 (Lease.unleased t);
        Lease.new_incarnation t ~shard:0 ~token:2;
        ignore (Lease.grant t ~shard:0 ~token:2 ~need:0.5 ~quantum:0. ~now:0. ~ttl:5.);
        (* journal says 1.5 absolute: 1.1 this incarnation > 0.5 lease *)
        let r = Lease.reclaim t ~shard:0 ~spent_total:1.5 in
        check "overspend flagged" true r.Lease.overspend);
    Alcotest.test_case "rollback undoes an unjournaled grant" `Quick (fun () ->
        let t = Lease.create ~total:1.0 ~shards:1 in
        Lease.new_incarnation t ~shard:0 ~token:1;
        (match Lease.grant t ~shard:0 ~token:1 ~need:0.4 ~quantum:0. ~now:0. ~ttl:5. with
        | Lease.Granted { leased; _ } -> checkf "granted" 0.4 leased
        | _ -> Alcotest.fail "expected grant");
        (* the WAL append failed: restore, so a retry re-arbitrates
           instead of being re-acked against a phantom lease *)
        Lease.rollback t ~shard:0 ~token:1 ~leased:0.;
        checkf "restored" 0. (Lease.leased t ~shard:0);
        checkf "headroom back" 1.0 (Lease.unleased t);
        ignore (Lease.grant t ~shard:0 ~token:1 ~need:0.2 ~quantum:0. ~now:0. ~ttl:5.);
        (* neither a stale-token nor a widening rollback may move it *)
        Lease.rollback t ~shard:0 ~token:0 ~leased:0.;
        checkf "stale rollback ignored" 0.2 (Lease.leased t ~shard:0);
        Lease.rollback t ~shard:0 ~token:1 ~leased:0.5;
        checkf "widening rollback ignored" 0.2 (Lease.leased t ~shard:0);
        check "invariant" true (Lease.invariant_ok t));
    Alcotest.test_case "expired lists only idle leased shards" `Quick
      (fun () ->
        let t = Lease.create ~total:2.0 ~shards:3 in
        Lease.new_incarnation t ~shard:0 ~token:1;
        Lease.new_incarnation t ~shard:1 ~token:2;
        Lease.new_incarnation t ~shard:2 ~token:3;
        ignore (Lease.grant t ~shard:0 ~token:1 ~need:0.5 ~quantum:0. ~now:0. ~ttl:5.);
        ignore (Lease.grant t ~shard:1 ~token:2 ~need:0.5 ~quantum:0. ~now:8. ~ttl:5.);
        (* shard 0 lapsed at 5, shard 1 lives to 13, shard 2 holds nothing *)
        check "expired at t=10" true (Lease.expired t ~now:10. = [ 0 ]);
        (* a re-ack refreshes the deadline *)
        (match Lease.grant t ~shard:0 ~token:1 ~need:0.5 ~quantum:0. ~now:10. ~ttl:5. with
        | Lease.Granted { leased; deadline } ->
            checkf "re-ack" 0.5 leased;
            checkf "deadline refreshed" 15. deadline
        | _ -> Alcotest.fail "expected re-ack");
        check "refreshed" true (Lease.expired t ~now:10. = []);
        (* reclaim clears the lease and with it the expiry *)
        ignore (Lease.reclaim t ~shard:1 ~spent_total:0.2);
        check "reclaimed never expired" true (Lease.expired t ~now:100. = [ 0 ]));
    Alcotest.test_case "restart without reclaim is refused" `Quick (fun () ->
        let t = Lease.create ~total:1.0 ~shards:1 in
        Lease.new_incarnation t ~shard:0 ~token:1;
        ignore (Lease.grant t ~shard:0 ~token:1 ~need:0.2 ~quantum:0. ~now:0. ~ttl:5.);
        Alcotest.check_raises "unreclaimed lease"
          (Invalid_argument
             "Lease.new_incarnation: reclaim the dead incarnation first")
          (fun () -> Lease.new_incarnation t ~shard:0 ~token:2));
  ]

let wal_tests =
  let records =
    [
      Grant_wal.Dataset
        { name = "demo"; eps = 2.5; line = "register demo rows=100 eps=2.5" };
      Grant_wal.Incarnation { shard = 0; token = 1 };
      Grant_wal.Grant
        { shard = 0; token = 1; dataset = "demo"; leased = 0.5; deadline = 12.25 };
      Grant_wal.Reclaim { shard = 0; token = 1; dataset = "demo"; spent = 0.3 };
    ]
  in
  [
    Alcotest.test_case "append/load round trip" `Quick (fun () ->
        let path = Filename.temp_file "dpkit_wal" ".grants" in
        Sys.remove path;
        (match Grant_wal.open_ path with
        | Error msg -> Alcotest.fail msg
        | Ok (wal, existing, torn) ->
            check "fresh" true (existing = [] && torn = 0);
            List.iter
              (fun r ->
                match Grant_wal.append wal r with
                | Ok () -> ()
                | Error msg -> Alcotest.fail msg)
              records;
            Grant_wal.close wal);
        (match Grant_wal.load path with
        | Error msg -> Alcotest.fail msg
        | Ok (back, torn) ->
            check "no torn tail" true (torn = 0);
            check "round trip" true (back = records));
        Sys.remove path);
    Alcotest.test_case "torn tail truncated on open" `Quick (fun () ->
        let path = Filename.temp_file "dpkit_wal" ".grants" in
        Sys.remove path;
        (match Grant_wal.open_ path with
        | Error msg -> Alcotest.fail msg
        | Ok (wal, _, _) ->
            List.iter (fun r -> ignore (Grant_wal.append wal r)) records;
            Grant_wal.close wal);
        (* chop mid-frame: the tail must be dropped, the prefix kept *)
        let size = (Unix.stat path).Unix.st_size in
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
        Unix.ftruncate fd (size - 3);
        Unix.close fd;
        (match Grant_wal.open_ path with
        | Error msg -> Alcotest.fail msg
        | Ok (wal, back, torn) ->
            check "tail detected" true (torn > 0);
            check "prefix intact" true
              (back = List.filteri (fun i _ -> i < 3) records);
            Grant_wal.close wal);
        match Grant_wal.load path with
        | Error msg -> Alcotest.fail msg
        | Ok (_, torn) ->
            check "open truncated the torn bytes" true (torn = 0);
            Sys.remove path);
  ]

(* [dpkit pool replay] inspects a pool's files, possibly beside a live
   pool whose workers are mid-append: it must read each file and write
   none, torn tails included. *)
let replay_tests =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let append_garbage path =
    Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644
      path (fun oc -> Out_channel.output_string oc "\x00\x07junk")
  in
  [
    Alcotest.test_case "offline replay writes nothing" `Quick (fun () ->
        let base = Filename.temp_file "dpkit_pool" ".wal" in
        Sys.remove base;
        let shard0 = Pool.shard_journal base 0 and wal = Pool.wal_path base in
        let eng = Engine.create ~seed:7 () in
        (match Engine.open_journal eng shard0 with
        | Error msg -> Alcotest.fail msg
        | Ok _ -> ());
        let policy =
          Registry.default_policy ~total:(Dp_mechanism.Privacy.pure 1.)
        in
        (match Engine.register_synthetic eng ~name:"demo" ~rows:50 ~policy with
        | Error msg -> Alcotest.fail msg
        | Ok _ -> ());
        (match Engine.submit_text eng ~dataset:"demo" "count" with
        | Error _ -> Alcotest.fail "charged query failed"
        | Ok _ -> ());
        Engine.close eng;
        (match Grant_wal.open_ wal with
        | Error msg -> Alcotest.fail msg
        | Ok (w, _, _) ->
            List.iter
              (fun r -> ignore (Grant_wal.append w r))
              [
                Grant_wal.Dataset
                  { name = "demo"; eps = 1.; line = "register demo eps=1" };
                Grant_wal.Incarnation { shard = 0; token = 1 };
                Grant_wal.Grant
                  { shard = 0; token = 1; dataset = "demo"; leased = 0.5;
                    deadline = 10. };
              ];
            Grant_wal.close w);
        append_garbage shard0;
        append_garbage wal;
        let before = (read shard0, read wal) in
        (match Pool.merge_lines ~journal:base ~workers:2 () with
        | Error msg -> Alcotest.fail msg
        | Ok (lines, ok) ->
            check "invariant ok" true ok;
            check "valid prefix replayed" true
              (List.exists
                 (String.starts_with
                    ~prefix:"pool-merge shard=0 dataset=demo ")
                 lines
              && List.exists
                   (fun l ->
                     String.starts_with ~prefix:"pool-merge dataset=demo " l
                     && String.ends_with ~suffix:" answered=1 rejected=0" l)
                   lines));
        check "journal and wal byte-identical" true
          (before = (read shard0, read wal));
        check "no shard journal created" false
          (Sys.file_exists (Pool.shard_journal base 1));
        List.iter Sys.remove [ shard0; wal ]);
  ]

(* A Dataset line the registration check refuses can only have been
   written by a binary that leased before checking. The merge admits
   WAL lines through the same check, so such a line stands for no
   dataset: the invariant is judged against the totals the shards
   registered, and the line alone is harmless. *)
let refused_line_tests =
  let write_wal base records =
    match Grant_wal.open_ (Pool.wal_path base) with
    | Error msg -> Alcotest.fail msg
    | Ok (w, _, _) ->
        List.iter
          (fun r ->
            match Grant_wal.append w r with
            | Ok () -> ()
            | Error msg -> Alcotest.fail msg)
          records;
        Grant_wal.close w
  in
  (* shard [k] registers z at eps=1 and spends 0.3 three times *)
  let spend_shard base k =
    let eng = Engine.create ~seed:7 () in
    (match Engine.open_journal eng (Pool.shard_journal base k) with
    | Error msg -> Alcotest.fail msg
    | Ok _ -> ());
    let policy = Registry.default_policy ~total:(Dp_mechanism.Privacy.pure 1.) in
    (match Engine.register_synthetic eng ~name:"z" ~rows:50 ~policy with
    | Error msg -> Alcotest.fail msg
    | Ok _ -> ());
    List.iter
      (fun q ->
        match Engine.submit_text eng ~epsilon:0.3 ~dataset:"z" q with
        | Error _ -> Alcotest.failf "shard %d: %s refused" k q
        | Ok _ -> ())
      [ "count"; "count(age>30)"; "count(age>40)" ];
    Engine.close eng
  in
  let fresh_base () =
    let base = Filename.temp_file "dpkit_pool" ".wal" in
    Sys.remove base;
    base
  in
  let cleanup base =
    List.iter
      (fun p -> if Sys.file_exists p then Sys.remove p)
      [ Pool.wal_path base; Pool.shard_journal base 0; Pool.shard_journal base 1 ]
  in
  [
    Alcotest.test_case "a refused line leases nothing" `Quick (fun () ->
        let base = fresh_base () in
        spend_shard base 0;
        spend_shard base 1;
        (* each shard's spend is within the lease its token holds: only
           the global total can catch the 1.8 eps spent of 1 *)
        write_wal base
          [
            Grant_wal.Dataset
              { name = "z"; eps = 100.; line = "register z eps=100 rows=0" };
            Grant_wal.Incarnation { shard = 0; token = 1 };
            Grant_wal.Incarnation { shard = 1; token = 2 };
            Grant_wal.Grant
              { shard = 0; token = 1; dataset = "z"; leased = 0.9; deadline = 10. };
            Grant_wal.Grant
              { shard = 1; token = 2; dataset = "z"; leased = 0.9; deadline = 10. };
          ];
        (match Pool.merge_lines ~journal:base ~workers:2 () with
        | Error msg -> Alcotest.fail msg
        | Ok (lines, ok) ->
            check "invariant violated" false ok;
            check "judged against the registered total" true
              (List.exists
                 (String.starts_with ~prefix:"pool-merge dataset=z eps-total=1 ")
                 lines));
        cleanup base);
    Alcotest.test_case "a refused line alone reads ok" `Quick (fun () ->
        let base = fresh_base () in
        write_wal base
          [
            Grant_wal.Dataset
              { name = "x"; eps = -1.; line = "register x eps=-1" };
          ];
        (match Pool.merge_lines ~journal:base ~workers:2 () with
        | Error msg -> Alcotest.fail msg
        | Ok (_, ok) -> check "invariant ok" true ok);
        cleanup base);
  ]

let () =
  Alcotest.run "pool"
    [
      ("lease", lease_unit_tests);
      ("grant-wal", wal_tests);
      ("replay", replay_tests);
      ("admission", refused_line_tests);
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
