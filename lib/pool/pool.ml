(* Supervised worker pool: fenced ε-lease arbitration with crash-merge
   recovery.

   The coordinator owns the TCP listener and the authoritative budget
   arbitration; N forked workers each run the full engine against their
   own shard journal and answer only while holding a live ε-lease.
   Every grant is WAL'd (charge-before-grant) before the worker learns
   of it; every worker death is reclaimed only after its shard journal
   is replayed; a coordinator death is recovered by merging all shard
   journals plus the grant WAL back into one global view — which this
   module also exposes as the offline [merge_lines] so the chaos
   harness can assert the merged recovery is bit-identical to a
   fault-free offline replay. *)

open Dp_engine
module P = Dp_mechanism.Privacy
module Fd_passing = Dp_net.Fd_passing
module Poll = Dp_net.Poll
module Server = Dp_net.Server
module Metrics = Dp_obs.Metrics
module Export = Dp_obs.Export
module Name = Dp_obs.Name

let slack = 1e-9

type config = {
  seed : int;
  workers : int;
  net : Server.config;  (** listener port; each worker's connection limits *)
  journal : string;  (** base path; shard k appends to [.shard<k>] *)
  metrics : string option;
  faults : Faults.t;
}

(* ε granted per lease round-trip beyond need *)
let quantum = 0.5

(* lease validity; workers renew before charging past it *)
let ttl = 5.0

(* per-shard crash-loop bound *)
let max_restarts = 100

let default_config ~workers ~port ~journal =
  {
    seed = 20120330;
    workers;
    net = { Server.default_config with port };
    journal;
    metrics = None;
    faults = Faults.none;
  }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let shard_journal base k = Printf.sprintf "%s.shard%d" base k
let wal_path base = base ^ ".grants"
let shard_metrics base k = Printf.sprintf "%s.shard%d" base k
let gen_lock_path base = wal_path base ^ ".lock"
let shard_lock_path base k = shard_journal base k ^ ".lock"

(* Generation fencing on disk: fcntl record locks die with their
   process (kill -9 included), so holding one for the process lifetime
   is exactly "this generation is still running". The coordinator holds
   the WAL lock; each worker holds its shard lock; a restarted
   coordinator cannot read journals or serve until every lock of the
   previous generation has been released — closing the window where an
   orphaned worker could still spend its old lease or interleave frames
   into a journal the new generation is already using. *)
let try_lock path =
  match Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 with
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | fd -> (
      match Unix.lockf fd Unix.F_TLOCK 0 with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
          close_quietly fd;
          Error
            (Printf.sprintf "%s held by a live process (%s)" path
               (Unix.error_message e)))

(* Orphans of a killed coordinator notice the reparenting within one
   control turn (~0.25 s) and exit; waiting a bounded moment for their
   locks makes restart-after-kill work without external sequencing. *)
let acquire_lock ?(wait_s = 0.) path =
  let deadline = Unix.gettimeofday () +. wait_s in
  let rec go () =
    match try_lock path with
    | Ok fd -> Ok fd
    | Error msg ->
        if Unix.gettimeofday () >= deadline then Error msg
        else begin
          (try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
          go ()
        end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Small shared helpers. *)

let split_ws s =
  String.split_on_char ' ' (String.trim s) |> List.filter (fun t -> t <> "")

let kv key tok =
  let p = key ^ "=" in
  let n = String.length p in
  if String.length tok > n && String.sub tok 0 n = p then
    Some (String.sub tok n (String.length tok - n))
  else None

let find_kv key toks = List.find_map (kv key) toks

let find_float key toks =
  Option.bind (find_kv key toks) float_of_string_opt

let find_int key toks = Option.bind (find_kv key toks) int_of_string_opt

(* Face-ε sums per dataset from a shard journal's records: the lease
   currency. Face sums upper-bound every backend's composed spend, so
   reclaiming on them can only under-return budget, never over-. *)
let face_sums records =
  let t = Hashtbl.create 8 in
  List.iter
    (function
      | Journal.Charge c ->
          let prev =
            Option.value ~default:0. (Hashtbl.find_opt t c.Journal.dataset)
          in
          Hashtbl.replace t c.Journal.dataset
            (prev +. c.Journal.face.P.epsilon)
      | _ -> ())
    records;
  t

let send_ctrl fd ?pass msg =
  try
    Fd_passing.send fd ?fd:pass msg;
    true
  with Unix.Unix_error _ -> false

(* ------------------------------------------------------------------ *)
(* Crash-merge: read every shard journal once, replay each into its own
   engine (the recovery pipeline refuses duplicate registrations, so
   shards merge as a deterministic fold of per-shard reports, never as
   one replay), cross-check against the grant WAL's records, and render
   bit-stable lines. The merge writes nothing. Coordinator startup
   recovery hands it the records of the WAL it has opened for
   appending; the offline [dpkit pool replay] only loads files. The
   chaos harness diffs the two. *)

(* The grant WAL, walked once: what the merge's fencing check compares
   journals against and what a restarting coordinator rebuilds its
   arbitration from. *)
type wal_view = {
  datasets : (string * float * string) list;
      (** name, global ε, register line, oldest first; a later record
          for a name replaces an earlier one *)
  last_token : int array;  (** per shard, its last incarnation's token *)
  leased : (int * string, float) Hashtbl.t;
      (** cumulative lease under the shard's last token *)
  reclaimed : (int * string, float) Hashtbl.t;  (** absolute reclaimed spend *)
  next_token : int;  (** above every token in the log *)
}

(* The single server's own check, asked before a line is journaled,
   leased or broadcast. A WAL line it refuses (only a binary that
   leased before checking wrote one) stands for no dataset. *)
let admit line =
  match split_ws line with
  | "register" :: name :: opts ->
      Result.map
        (fun (_, policy) -> (name, policy))
        (Protocol.dataset_of_opts ~name opts)
  | _ -> Error "err bad-argument register needs NAME"

let wal_view ~workers records =
  let last_token = Array.make workers (-1) in
  let leased = Hashtbl.create 16 and reclaimed = Hashtbl.create 16 in
  let datasets = ref [] and next_token = ref 1 in
  let in_range shard = shard >= 0 && shard < workers in
  let seen token = next_token := Int.max !next_token (token + 1) in
  List.iter
    (function
      | Grant_wal.Dataset { name; eps; line } when Result.is_ok (admit line) ->
          datasets :=
            (name, eps, line)
            :: List.filter (fun (n, _, _) -> n <> name) !datasets
      | Grant_wal.Dataset _ -> ()
      | Grant_wal.Incarnation { shard; token } ->
          seen token;
          if in_range shard then begin
            last_token.(shard) <- token;
            Hashtbl.filter_map_inplace
              (fun (s, _) l -> if s = shard then None else Some l)
              leased
          end
      | Grant_wal.Grant { shard; token; dataset; leased = l; _ } ->
          seen token;
          if in_range shard && token = last_token.(shard) then
            Hashtbl.replace leased (shard, dataset) l
      | Grant_wal.Reclaim { shard; token; dataset; spent } ->
          seen token;
          if in_range shard then
            Hashtbl.replace reclaimed (shard, dataset) spent)
    records;
  {
    datasets = List.rev !datasets;
    last_token;
    leased;
    reclaimed;
    next_token = !next_token;
  }

type shard_ds = {
  sd_spent : float;  (** composed ledger spend (ε) *)
  sd_face : float;  (** Σ face charges (lease currency) *)
  sd_total : float;
  sd_answered : int;
  sd_rejected : int;
}

type merged = {
  lines : string list;
  ok : bool;
  wal : wal_view;
  shards : (int * (string * shard_ds) list) list;
      (** per shard, its datasets by name *)
}

let ( let* ) = Result.bind

let shard_report ~seed path =
  let* records, _stats = Journal.load path in
  let eng = Engine.create ~seed () in
  let* () =
    Result.map_error (Printf.sprintf "journal %s: %s" path)
      (Engine.recover eng records)
  in
  let faces = face_sums records in
  Ok
    (List.sort compare (Engine.datasets eng)
    |> List.filter_map (fun name ->
           match Engine.report eng ~dataset:name with
           | Error _ -> None
           | Ok r ->
               Some
                 ( name,
                   {
                     sd_spent = r.Engine.spent.P.epsilon;
                     sd_face =
                       Option.value ~default:0. (Hashtbl.find_opt faces name);
                     sd_total = r.Engine.total.P.epsilon;
                     sd_answered = r.Engine.answered;
                     sd_rejected = r.Engine.rejected;
                   } )))

let merge ~seed ~journal ~workers wal_records =
  let rec shard_reports k acc =
    if k >= workers then Ok (List.rev acc)
    else
      let* ds = shard_report ~seed (shard_journal journal k) in
      shard_reports (k + 1) ((k, ds) :: acc)
  in
  let* shards = shard_reports 0 [] in
  let wal = wal_view ~workers wal_records in
  let dataset_names =
    List.sort_uniq compare
      (List.concat_map (fun (_, ds) -> List.map fst ds) shards)
  in
  let lookup k name =
    Option.bind (List.assoc_opt k shards) (List.assoc_opt name)
  in
  let ok = ref true in
  let lines = ref [] in
  let emit l = lines := l :: !lines in
  List.iter
    (fun name ->
      (* deterministic shard-index-order float folds: live recovery and
         offline replay take the same path to the same bits *)
      let spent = ref 0. and face = ref 0. in
      let answered = ref 0 and rejected = ref 0 in
      let total = ref 0. in
      for k = 0 to workers - 1 do
        match lookup k name with
        | None -> ()
        | Some d ->
            spent := !spent +. d.sd_spent;
            face := !face +. d.sd_face;
            answered := !answered + d.sd_answered;
            rejected := !rejected + d.sd_rejected;
            total := Float.max !total d.sd_total
      done;
      let eps_total =
        match
          List.find_map
            (fun (n, eps, _) -> if n = name then Some eps else None)
            wal.datasets
        with
        | Some e -> e
        | None -> !total
      in
      if !face > eps_total +. slack then ok := false;
      if wal_records <> [] then
        for k = 0 to workers - 1 do
          let f =
            match lookup k name with None -> 0. | Some d -> d.sd_face
          in
          let re =
            Option.value ~default:0. (Hashtbl.find_opt wal.reclaimed (k, name))
          in
          let le =
            Option.value ~default:0. (Hashtbl.find_opt wal.leased (k, name))
          in
          (* spend of the live (unreclaimed) incarnation must fit the
             lease WAL'd for its fencing token *)
          if f -. re > le +. slack then ok := false
        done;
      emit
        (Printf.sprintf
           "pool-merge dataset=%s eps-total=%g spent-hex=%h spent=%g \
            face-hex=%h answered=%d rejected=%d"
           name eps_total !spent !spent !face !answered !rejected);
      for k = 0 to workers - 1 do
        match lookup k name with
        | None -> ()
        | Some d ->
            emit
              (Printf.sprintf
                 "pool-merge shard=%d dataset=%s spent-hex=%h face-hex=%h \
                  answered=%d rejected=%d"
                 k name d.sd_spent d.sd_face d.sd_answered d.sd_rejected)
      done)
    dataset_names;
  let header =
    Printf.sprintf "pool-merge workers=%d datasets=%d invariant=%s" workers
      (List.length dataset_names)
      (if !ok then "ok" else "VIOLATED")
  in
  Ok { lines = header :: List.rev !lines; ok = !ok; wal; shards }

let merge_lines ?(seed = 20120330) ~journal ~workers () =
  let* wal_records, _torn = Grant_wal.load (wal_path journal) in
  let* m = merge ~seed ~journal ~workers wal_records in
  Ok (m.lines, m.ok)

(* ------------------------------------------------------------------ *)
(* Worker: full engine over its shard journal, serving passed
   connections through Dp_net.Server, charging only through the lease
   gate. *)

type wlease = {
  mutable wleased : float;  (** cumulative allowance (coordinator's word) *)
  mutable used : float;  (** cumulative face-ε approved by the gate *)
  mutable deadline : float;
}

type worker = {
  wcfg : config;
  eng : Engine.t;
  srv : Server.t;
  ctrl : Unix.file_descr;
  coord_pid : int;
      (** datagram socketpairs never raise EOF on peer death, so the
          supervisor's death is detected by reparenting instead *)
  shard : int;
  token : int;
  wleases : (string, wlease) Hashtbl.t;
  mutable doregs : string list;  (** queued broadcasts, applied between requests *)
  mutable lost : bool;  (** fencing token superseded: refuse fresh charges *)
  mutable coord_gone : bool;
}

let wlease w ds =
  match Hashtbl.find_opt w.wleases ds with
  | Some l -> l
  | None ->
      let l = { wleased = 0.; used = 0.; deadline = neg_infinity } in
      Hashtbl.add w.wleases ds l;
      l

(* Apply a control message that can arrive at any time — including in
   the middle of a lease RPC wait. Returns the raw message for the
   waiter to also interpret. *)
let absorb_ctrl w ({ msg; fd } : Fd_passing.received) =
  let toks = split_ws msg in
  (match (fd, toks) with
  | fd, "conn" :: _ -> Server.adopt w.srv fd
  | Some cfd, _ -> close_quietly cfd
  | None, _ -> ());
  (match toks with
  | "doreg" :: rest -> w.doregs <- String.concat " " rest :: w.doregs
  | "lost" :: _ -> w.lost <- true
  | [ "drain" ] -> Server.request_stop w.srv
  | "grant" :: toks -> (
      (* absolute state: safe to apply whenever it lands, even as a
         stray reply to a timed-out request *)
      match (find_kv "ds" toks, find_int "token" toks, find_float "leased" toks)
      with
      | Some ds, Some tk, Some leased when tk = w.token ->
          let l = wlease w ds in
          l.wleased <- Float.max l.wleased leased;
          (match find_float "deadline" toks with
          | Some d -> l.deadline <- d
          | None -> ())
      | _ -> ())
  | _ -> ());
  msg

(* Wait for a control message satisfying [accept], absorbing everything
   else, until [deadline_at]. *)
let rec await_ctrl w ~deadline_at accept =
  let remaining = deadline_at -. Unix.gettimeofday () in
  if remaining <= 0. then None
  else if not (Poll.wait_readable w.ctrl remaining) then
    await_ctrl w ~deadline_at accept
  else
    match Server.receive w.srv w.ctrl with
    | None ->
        w.coord_gone <- true;
        None
    | Some received -> (
        let msg = absorb_ctrl w received in
        match accept msg with
        | Some v -> Some v
        | None -> await_ctrl w ~deadline_at accept)

let request_lease w ~dataset ~(face : P.budget) l =
  let eps = face.P.epsilon in
  let need = l.used +. eps in
  if
    not
      (send_ctrl w.ctrl
         (Printf.sprintf "lease ds=%s token=%d need=%h" dataset w.token need))
  then Engine.Lease_unavailable "pool coordinator unreachable"
  else
    let deadline_at = Unix.gettimeofday () +. 3.0 in
    let verdict =
      await_ctrl w ~deadline_at (fun msg ->
          match split_ws msg with
          | "grant" :: toks when find_kv "ds" toks = Some dataset ->
              (* absorb_ctrl already applied it *)
              if l.wleased -. l.used +. slack >= eps then Some `Granted
              else None
          | "deny" :: toks when find_kv "ds" toks = Some dataset ->
              let remaining =
                Option.value ~default:0. (find_float "remaining" toks)
              in
              Some (`Denied remaining)
          | "lost" :: _ -> Some `Lost
          | _ -> None)
    in
    match verdict with
    | Some `Granted ->
        l.used <- l.used +. eps;
        Engine.Lease_granted
    | Some (`Denied remaining) ->
        Engine.Lease_denied
          { requested = face; remaining = { P.epsilon = remaining; delta = 0. } }
    | Some `Lost -> Engine.Lease_superseded { token = w.token }
    | None ->
        if w.coord_gone then
          Engine.Lease_unavailable "pool coordinator gone"
        else if w.lost then Engine.Lease_superseded { token = w.token }
        else Engine.Lease_unavailable "lease request timed out (retry)"

let gate w ~dataset ~(face : P.budget) =
  if w.lost then Engine.Lease_superseded { token = w.token }
  else begin
    let eps = face.P.epsilon in
    let l = wlease w dataset in
    let now = Unix.gettimeofday () in
    if now <= l.deadline && l.wleased -. l.used +. slack >= eps then begin
      l.used <- l.used +. eps;
      Engine.Lease_granted
    end
    else request_lease w ~dataset ~face l
  end

let apply_doregs w =
  let pending = List.rev w.doregs in
  w.doregs <- [];
  List.iter (fun line -> ignore (Protocol.exec w.eng line)) pending

let do_register w text =
  (* the coordinator re-tokenizes, so match its normalized echo *)
  let norm = String.concat " " (split_ws text) in
  if not (send_ctrl w.ctrl ("reg " ^ text)) then
    [ "err transient pool coordinator unreachable (retry)" ]
  else
    let deadline_at = Unix.gettimeofday () +. 5.0 in
    match
      await_ctrl w ~deadline_at (fun msg ->
          match split_ws msg with
          | "doreg" :: rest when String.concat " " rest = norm -> Some `Mine
          | "regerr" :: rest -> Some (`Err (String.concat " " rest))
          | _ -> None)
    with
    | Some `Mine ->
        (* ours was queued by absorb_ctrl; drop it and exec inline so
           the client's reply is this worker's own registration *)
        w.doregs <- List.filter (fun l -> l <> norm) w.doregs;
        Protocol.exec w.eng text
    | Some (`Err msg) -> [ msg ]
    | None -> [ "err transient registration timed out (retry)" ]

(* The line executor Server calls for each request: registrations
   round-trip through the coordinator, everything else is the plain
   protocol. *)
let worker_exec w text =
  let toks = split_ws text in
  if toks <> [] then Faults.check (Engine.faults w.eng) Faults.Worker_crash;
  match toks with
  | "register" :: _ -> do_register w text
  | _ -> Protocol.exec w.eng text

let worker_finish w ~code =
  Option.iter
    (fun base ->
      try
        Out_channel.with_open_text (shard_metrics base w.shard) (fun oc ->
            List.iter (Printf.fprintf oc "%s\n") (Engine.metrics_lines w.eng))
      with Sys_error _ -> ())
    w.wcfg.metrics;
  Engine.close w.eng;
  exit code

(* One control turn, run by Server between requests at most 0.25 s
   apart. A fenced (75) or orphaned (0) worker leaves at once, without
   draining: the next incarnation and a restarted coordinator wait on
   its shard lock. Only [drain] and SIGTERM drain. *)
let worker_tick w term readable =
  if readable then begin
    match Server.receive w.srv w.ctrl with
    | None -> w.coord_gone <- true
    | Some received -> ignore (absorb_ctrl w received)
  end;
  if !term then Server.request_stop w.srv;
  if Unix.getppid () <> w.coord_pid then w.coord_gone <- true;
  apply_doregs w;
  if w.lost then worker_finish w ~code:75
  else if w.coord_gone then worker_finish w ~code:0

let worker_main cfg ~shard ~token ~ctrl =
  let term = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> term := true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> term := true));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* held (never closed) until this process dies: the next incarnation
     and any restarted coordinator block on it, not on luck *)
  (match acquire_lock ~wait_s:5.0 (shard_lock_path cfg.journal shard) with
  | Error msg ->
      Printf.eprintf "pool: worker shard=%d lock: %s\n%!" shard msg;
      exit 1
  | Ok _fd -> ());
  let eng = Engine.create ~seed:cfg.seed ~faults:cfg.faults () in
  (match Engine.open_journal eng (shard_journal cfg.journal shard) with
  | Error msg ->
      Printf.eprintf "pool: worker shard=%d journal: %s\n%!" shard msg;
      exit 1
  | Ok _ -> ());
  let w =
    {
      wcfg = cfg;
      eng;
      srv = Server.detached ~config:cfg.net eng;
      ctrl;
      coord_pid = Unix.getppid ();
      shard;
      token;
      wleases = Hashtbl.create 8;
      doregs = [];
      lost = false;
      coord_gone = false;
    }
  in
  Engine.set_lease_gate eng (Some (fun ~dataset ~face -> gate w ~dataset ~face));
  match
    Server.run ~exec:(worker_exec w) ~control:(ctrl, worker_tick w term) w.srv
  with
  | () -> worker_finish w ~code:0
  | exception Faults.Crash p ->
      Printf.eprintf "dpkit: injected crash at %s\n%!" (Faults.point_name p);
      exit 70

(* ------------------------------------------------------------------ *)
(* Coordinator. *)

type wstate = {
  shard : int;
  mutable pid : int;
  mutable cctrl : Unix.file_descr;
  mutable cctrl_open : bool;
      (** the coordinator-side control fd is open — distinct from
          [live], which also drops when a conn pass fails so the
          scheduler skips the worker before the reaper confirms death *)
  mutable token : int;
  mutable live : bool;
  mutable restarts : int;
}

type coord = {
  cfg : config;
  gen_lock : Unix.file_descr;  (** held for life; fences generations *)
  mutable listener : Server.listener option;
  wal : Grant_wal.t;
  leases : (string, Lease.t) Hashtbl.t;
  mutable reg_lines : (string * string) list;  (** newest first *)
  mutable next_token : int;
  cworkers : wstate array;
  mutable rr : int;
  mutable pending : Unix.file_descr list;  (** conns awaiting a live worker *)
  mutable draining : bool;
  mutable granted_n : int;
  mutable denied_n : int;
  mutable reclaimed_n : int;
  mutable restarted_n : int;
  mutable wal_appends : int;
}

let flush_pending coord assign =
  let pending = List.rev coord.pending in
  coord.pending <- [];
  List.iter assign pending

let rec assign_conn coord fd =
  let n = Array.length coord.cworkers in
  let rec pick i tries =
    if tries >= n then None
    else
      let w = coord.cworkers.(i mod n) in
      if w.live then Some w else pick (i + 1) (tries + 1)
  in
  match pick coord.rr 0 with
  | Some w ->
      coord.rr <- (w.shard + 1) mod n;
      if send_ctrl w.cctrl ~pass:fd "conn" then
        Unix.close fd
      else begin
        (* worker (almost certainly) died under us: stop scheduling it,
           nudge it in case it is actually alive, and let the reaper —
           which matches on pid, not [live] — run the full journal
           replay / reclaim / restart path *)
        w.live <- false;
        if w.pid > 0 then
          (try Unix.kill w.pid Sys.sigterm with Unix.Unix_error _ -> ());
        assign_conn coord fd
      end
  | None ->
      if List.length coord.pending < 64 then
        coord.pending <- fd :: coord.pending
      else close_quietly fd

let spawn_worker coord shard =
  let cfg = coord.cfg in
  let token = coord.next_token in
  match Grant_wal.append coord.wal (Grant_wal.Incarnation { shard; token }) with
  | Error msg ->
      Printf.eprintf "pool: grant wal: %s — leaving shard %d down\n%!" msg
        shard;
      false
  | Ok () ->
      coord.next_token <- token + 1;
      coord.wal_appends <- coord.wal_appends + 1;
      Hashtbl.iter
        (fun _ lease -> Lease.new_incarnation lease ~shard ~token)
        coord.leases;
      let parent_end, child_end = Fd_passing.channel () in
      (match Unix.fork () with
      | 0 ->
          (* child: drop every coordinator-side descriptor, then serve *)
          close_quietly parent_end;
          Option.iter Server.close_listener coord.listener;
          Grant_wal.close coord.wal;
          (* closing the inherited fd does not release the parent's
             fcntl lock (locks are per-process) *)
          close_quietly coord.gen_lock;
          Array.iter
            (fun w -> if w.cctrl_open then close_quietly w.cctrl)
            coord.cworkers;
          List.iter close_quietly coord.pending;
          worker_main cfg ~shard ~token ~ctrl:child_end
      | pid ->
          close_quietly child_end;
          let w = coord.cworkers.(shard) in
          w.pid <- pid;
          w.cctrl <- parent_end;
          w.cctrl_open <- true;
          w.token <- token;
          w.live <- true;
          (* replay the registration history so a restarted worker
             serves every dataset (its journal already has any it saw
             live; duplicates fail locally and are discarded) *)
          List.iter
            (fun (_, line) -> ignore (send_ctrl w.cctrl ("doreg " ^ line)))
            (List.rev coord.reg_lines));
      true

let handle_reg coord w line =
  match admit line with
  | Error reply -> ignore (send_ctrl w.cctrl ("regerr " ^ reply))
  | Ok (name, _) when Hashtbl.mem coord.leases name ->
      (* already arbitrated: only the requester execs it, and its own
         engine produces the duplicate-registration error *)
      ignore (send_ctrl w.cctrl ("doreg " ^ line))
  | Ok (name, policy) -> (
      let eps = policy.Registry.total.P.epsilon in
      match
        Grant_wal.append coord.wal (Grant_wal.Dataset { name; eps; line })
      with
      | Error msg ->
          ignore (send_ctrl w.cctrl ("regerr err transient grant wal: " ^ msg))
      | Ok () ->
          coord.wal_appends <- coord.wal_appends + 1;
          let lease = Lease.create ~total:eps ~shards:coord.cfg.workers in
          Array.iter
            (fun w' ->
              if w'.live then
                Lease.new_incarnation lease ~shard:w'.shard ~token:w'.token)
            coord.cworkers;
          Hashtbl.replace coord.leases name lease;
          coord.reg_lines <- (name, line) :: coord.reg_lines;
          Array.iter
            (fun w' ->
              if w'.live then ignore (send_ctrl w'.cctrl ("doreg " ^ line)))
            coord.cworkers)

let handle_lease coord w ~ds ~token ~need =
  if Faults.fire coord.cfg.faults Faults.Lease_expiry then
    (* injected expiry: tell the incarnation its lease is gone; the
       worker answers lease-lost and exits for a fenced restart *)
    ignore (send_ctrl w.cctrl (Printf.sprintf "lost ds=%s token=%d" ds token))
  else
    match Hashtbl.find_opt coord.leases ds with
    | None ->
        ignore
          (send_ctrl w.cctrl (Printf.sprintf "deny ds=%s remaining=%h" ds 0.))
    | Some lease -> (
        let now = Unix.gettimeofday () in
        let prev = Lease.leased lease ~shard:w.shard in
        match
          Lease.grant lease ~shard:w.shard ~token ~need
            ~quantum ~now ~ttl
        with
        | Lease.Stale { token = cur } ->
            ignore
              (send_ctrl w.cctrl
                 (Printf.sprintf "lost ds=%s token=%d" ds cur))
        | Lease.Denied { unleased } ->
            coord.denied_n <- coord.denied_n + 1;
            (* availability under pressure: budget idling behind an
               expired lease is freed through the fenced-restart path —
               the fenced worker exits, its journal replay returns the
               unspent remainder, and the denied client's retry finds
               headroom. Soundness never depends on this (or any)
               clock. *)
            List.iter
              (fun k ->
                if k <> w.shard then begin
                  let ws = coord.cworkers.(k) in
                  if ws.live then begin
                    Printf.eprintf
                      "pool: fencing expired lease shard=%d dataset=%s\n%!" k
                      ds;
                    ignore
                      (send_ctrl ws.cctrl
                         (Printf.sprintf "lost ds=%s token=%d" ds ws.token))
                  end
                end)
              (Lease.expired lease ~now);
            ignore
              (send_ctrl w.cctrl
                 (Printf.sprintf "deny ds=%s remaining=%h" ds unleased))
        | Lease.Granted { leased; deadline } ->
            let ack () =
              ignore
                (send_ctrl w.cctrl
                   (Printf.sprintf
                      "grant ds=%s token=%d leased=%h deadline=%h" ds token
                      leased deadline))
            in
            if leased > prev +. slack then (
              (* charge-before-grant: the allowance is durable before
                 the worker can spend a millionth of it *)
              match
                Grant_wal.append coord.wal
                  (Grant_wal.Grant
                     { shard = w.shard; token; dataset = ds; leased; deadline })
              with
              | Error msg ->
                  (* the raised allowance was never journaled: roll the
                     in-memory state back too, or the worker's retry
                     would be re-acked against a lease no recovery can
                     see. No ack: the worker times out and retries. *)
                  Lease.rollback lease ~shard:w.shard ~token ~leased:prev;
                  Printf.eprintf "pool: grant wal: %s — grant withheld\n%!"
                    msg
              | Ok () ->
                  coord.granted_n <- coord.granted_n + 1;
                  coord.wal_appends <- coord.wal_appends + 1;
                  if Faults.fire coord.cfg.faults Faults.Grant_drop then ()
                  else ack ())
            else ack () (* pure re-ack of absolute state; nothing to journal *))

let handle_ctrl_msg coord w =
  match Fd_passing.recv w.cctrl with
  | exception Unix.Unix_error _ -> ()
  | None -> () (* EOF; the reaper owns death *)
  | Some { msg; fd } -> (
      Option.iter close_quietly fd;
      match split_ws msg with
      | "reg" :: rest -> handle_reg coord w (String.concat " " rest)
      | "lease" :: toks -> (
          match
            (find_kv "ds" toks, find_int "token" toks, find_float "need" toks)
          with
          | Some ds, Some token, Some need ->
              handle_lease coord w ~ds ~token ~need
          | _ -> ())
      | _ -> ())

let reclaim_shard coord w =
  let path = shard_journal coord.cfg.journal w.shard in
  match Journal.load path with
  | Error msg ->
      (* cannot prove what the dead incarnation spent: leave its lease
         outstanding (conservative) and keep the shard down *)
      Printf.eprintf
        "pool: shard %d journal unreadable (%s) — lease NOT reclaimed\n%!"
        w.shard msg;
      false
  | Ok (records, _stats) ->
      let faces = face_sums records in
      Hashtbl.iter
        (fun name lease ->
          let spent =
            Option.value ~default:0. (Hashtbl.find_opt faces name)
          in
          let r = Lease.reclaim lease ~shard:w.shard ~spent_total:spent in
          coord.reclaimed_n <- coord.reclaimed_n + 1;
          if r.Lease.overspend then
            Printf.eprintf
              "pool: FENCING VIOLATION shard=%d dataset=%s spent past lease\n%!"
              w.shard name;
          match
            Grant_wal.append coord.wal
              (Grant_wal.Reclaim
                 { shard = w.shard; token = w.token; dataset = name; spent })
          with
          | Ok () -> coord.wal_appends <- coord.wal_appends + 1
          | Error msg -> Printf.eprintf "pool: grant wal: %s\n%!" msg)
        coord.leases;
      true

let handle_death coord w status =
  w.live <- false;
  if w.cctrl_open then begin
    w.cctrl_open <- false;
    close_quietly w.cctrl
  end;
  let describe = function
    | Unix.WEXITED n -> Printf.sprintf "exit=%d" n
    | Unix.WSIGNALED n -> Printf.sprintf "signal=%d" n
    | Unix.WSTOPPED n -> Printf.sprintf "stopped=%d" n
  in
  Printf.eprintf "pool: worker shard=%d pid=%d down (%s)\n%!" w.shard w.pid
    (describe status);
  let reclaimed = reclaim_shard coord w in
  if coord.draining then ()
  else if not reclaimed then ()
  else if w.restarts >= max_restarts then
    Printf.eprintf "pool: shard %d hit the restart bound — leaving it down\n%!"
      w.shard
  else begin
    w.restarts <- w.restarts + 1;
    coord.restarted_n <- coord.restarted_n + 1;
    if spawn_worker coord w.shard then begin
      Printf.eprintf "pool: worker shard=%d restarted token=%d pid=%d\n%!"
        w.shard w.token w.pid;
      flush_pending coord (assign_conn coord)
    end
  end

let reap coord =
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | 0, _ -> ()
    | pid, status ->
        (* match on pid alone: a worker whose conn pass failed was
           already marked not-live, but it still owes a journal replay,
           lease reclaim and restart *)
        Option.iter
          (fun w -> handle_death coord w status)
          (Array.find_opt (fun w -> w.pid = pid) coord.cworkers);
        go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Merge the per-shard metrics snapshots into one dump: counters sum;
   additive gauges sum; the rest take the max; hit-rate and remaining
   are recomputed from the merged numbers; pool counters are layered on
   the global scope. *)
let additive_gauges =
  [
    "eps_spent"; "delta_spent"; "cache_entries"; "models_stored";
    "streams_open"; "net_conns_open"; "net_inflight"; "mi_bound_nats";
    "capacity_bound_nats"; "min_entropy_leakage_bits";
  ]

let counter_of_name n =
  Array.to_seq Name.all_counters
  |> Seq.find (fun c -> Name.counter_name c = n)

let gauge_of_name n =
  Array.to_seq Name.all_gauges |> Seq.find (fun g -> Name.gauge_name g = n)

let write_merged_metrics coord =
  match coord.cfg.metrics with
  | None -> ()
  | Some base ->
      let counters : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
      let gauges : (string * string, float) Hashtbl.t = Hashtbl.create 64 in
      for k = 0 to coord.cfg.workers - 1 do
        let path = shard_metrics base k in
        if Sys.file_exists path then begin
          let text =
            let ic = open_in_bin path in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> really_input_string ic (in_channel_length ic))
          in
          match Export.parse (String.split_on_char '\n' text) with
          | Error _ -> ()
          | Ok entries ->
              List.iter
                (function
                  | Export.Counter { scope; name; value } ->
                      let key = (scope, name) in
                      let prev =
                        Option.value ~default:0 (Hashtbl.find_opt counters key)
                      in
                      Hashtbl.replace counters key (prev + value)
                  | Export.Gauge { scope; name; value } ->
                      let key = (scope, name) in
                      let prev =
                        Option.value ~default:0.
                          (Hashtbl.find_opt gauges key)
                      in
                      let v =
                        if List.mem name additive_gauges then prev +. value
                        else Float.max prev value
                      in
                      Hashtbl.replace gauges key v
                  | Export.Latency _ | Export.Span _ -> ())
                entries
        end
      done;
      (* recompute the derived gauges from the merged numbers *)
      let scopes =
        Hashtbl.fold (fun (s, _) _ acc -> s :: acc) gauges [] |> List.sort_uniq compare
      in
      List.iter
        (fun s ->
          (match
             ( Hashtbl.find_opt gauges (s, "eps_total"),
               Hashtbl.find_opt gauges (s, "eps_spent") )
           with
          | Some total, Some spent ->
              Hashtbl.replace gauges (s, "eps_remaining")
                (Float.max 0. (total -. spent))
          | _ -> ());
          let hits =
            Option.value ~default:0 (Hashtbl.find_opt counters (s, "cache_hits"))
          in
          let misses =
            Option.value ~default:0
              (Hashtbl.find_opt counters (s, "cache_misses"))
          in
          if hits + misses > 0 then
            Hashtbl.replace gauges (s, "cache_hit_rate")
              (float_of_int hits /. float_of_int (hits + misses)))
        scopes;
      let reg = Metrics.create () in
      let scope_of label =
        if label = "-" then Metrics.global reg else Metrics.scope reg label
      in
      Hashtbl.iter
        (fun (s, name) v ->
          match counter_of_name name with
          | Some c -> Metrics.set_counter (scope_of s) c v
          | None -> ())
        counters;
      Hashtbl.iter
        (fun (s, name) v ->
          match gauge_of_name name with
          | Some g -> Metrics.set_gauge (scope_of s) g v
          | None -> ())
        gauges;
      let g = Metrics.global reg in
      Metrics.set_counter g Name.Pool_leases_granted coord.granted_n;
      Metrics.set_counter g Name.Pool_leases_denied coord.denied_n;
      Metrics.set_counter g Name.Pool_leases_reclaimed coord.reclaimed_n;
      Metrics.set_counter g Name.Pool_workers_restarted coord.restarted_n;
      Metrics.set_counter g Name.Pool_grants_journaled coord.wal_appends;
      Metrics.set_gauge g Name.Pool_workers (float_of_int coord.cfg.workers);
      Metrics.set_gauge g Name.Pool_eps_outstanding
        (Hashtbl.fold (fun _ l acc -> acc +. Lease.outstanding l) coord.leases 0.);
      (match open_out base with
      | oc ->
          List.iter
            (fun l ->
              output_string oc l;
              output_char oc '\n')
            (Export.dump reg);
          close_out oc
      | exception Sys_error msg ->
          Printf.eprintf "pool: cannot write metrics: %s\n%!" msg)

let begin_drain coord =
  if not coord.draining then begin
    coord.draining <- true;
    Option.iter Server.close_listener coord.listener;
    coord.listener <- None;
    List.iter close_quietly coord.pending;
    coord.pending <- [];
    Array.iter
      (fun w -> if w.live then ignore (send_ctrl w.cctrl "drain"))
      coord.cworkers
  end

(* Until the drain completes: reap, then wait at most 0.25 s on the
   listener (none while draining) and every live worker's control
   channel. *)
let rec coord_loop coord poll ~stop =
  reap coord;
  if !stop then begin_drain coord;
  if coord.draining && not (Array.exists (fun w -> w.live) coord.cworkers)
  then ()
  else begin
    Poll.clear poll;
    let add fd ~read = Poll.add poll fd ~read ~write:false in
    let slots = Array.map (fun w -> add w.cctrl ~read:w.live) coord.cworkers in
    let lslot =
      match coord.listener with
      | Some l -> add (Server.listener_fd l) ~read:true
      | None -> -1
    in
    Poll.wait poll 0.25;
    (match coord.listener with
    | Some l when Poll.readable poll lslot -> (
        match Server.accept l with
        | `Conn fd -> assign_conn coord fd
        | `Shed | `Again -> ())
    | _ -> ());
    Array.iteri
      (fun k w ->
        if w.live && Poll.readable poll slots.(k) then handle_ctrl_msg coord w)
      coord.cworkers;
    coord_loop coord poll ~stop
  end

let run_locked cfg ~gen_lock ~stop =
  let had_state =
    Sys.file_exists (wal_path cfg.journal)
    || Array.exists
         (fun k -> Sys.file_exists (shard_journal cfg.journal k))
         (Array.init cfg.workers (fun k -> k))
  in
  match Grant_wal.open_ (wal_path cfg.journal) with
  | Error msg ->
      Printf.eprintf "pool: %s\n%!" msg;
      1
  | Ok (wal, wal_records, _torn) -> (
      match
        merge ~seed:cfg.seed ~journal:cfg.journal ~workers:cfg.workers
          wal_records
      with
      | Error msg ->
          Printf.eprintf "pool: recovery merge failed: %s\n%!" msg;
          Grant_wal.close wal;
          1
      | Ok m -> (
          if had_state then List.iter print_endline m.lines;
          if not m.ok then begin
            Printf.eprintf
              "pool: lease invariant VIOLATED in recovered state — refusing \
               to serve\n\
               %!";
            Grant_wal.close wal;
            1
          end
          else
            let coord =
              {
                cfg;
                gen_lock;
                listener = None;
                wal;
                leases = Hashtbl.create 8;
                reg_lines =
                  List.rev_map (fun (name, _, line) -> (name, line))
                    m.wal.datasets;
                next_token = m.wal.next_token;
                cworkers =
                  Array.init cfg.workers (fun shard ->
                      {
                        shard;
                        pid = -1;
                        cctrl = Unix.stdin;
                        cctrl_open = false;
                        token = -1;
                        live = false;
                        restarts = 0;
                      });
                rr = 0;
                pending = [];
                draining = false;
                granted_n = 0;
                denied_n = 0;
                reclaimed_n = 0;
                restarted_n = 0;
                wal_appends = 0;
              }
            in
            List.iter
              (fun (name, eps, _) ->
                Hashtbl.replace coord.leases name
                  (Lease.create ~total:eps ~shards:cfg.workers))
              m.wal.datasets;
            (* every incarnation is dead at coordinator start: reclaim
               each shard's journaled face-ε, and WAL what the log has not
               seen yet *)
            List.iter
              (fun (k, ds) ->
                Hashtbl.iter
                  (fun name lease ->
                    match List.assoc_opt name ds with
                    | Some { sd_face = spent; _ } when spent > 0. -> (
                        ignore
                          (Lease.reclaim lease ~shard:k ~spent_total:spent);
                        let prior =
                          Option.value ~default:0.
                            (Hashtbl.find_opt m.wal.reclaimed (k, name))
                        in
                        if spent > prior +. slack then
                          match
                            Grant_wal.append wal
                              (Grant_wal.Reclaim
                                 {
                                   shard = k;
                                   token = m.wal.last_token.(k);
                                   dataset = name;
                                   spent;
                                 })
                          with
                          | Ok () -> coord.wal_appends <- coord.wal_appends + 1
                          | Error msg ->
                              Printf.eprintf "pool: grant wal: %s\n%!" msg)
                    | _ -> ())
                  coord.leases)
              m.shards;
            match Server.listen ~port:cfg.net.Server.port with
            | Error msg ->
                Printf.eprintf "pool: %s\n%!" msg;
                Grant_wal.close wal;
                1
            | Ok (listener, port) -> (
              try
                coord.listener <- Some listener;
                for k = 0 to cfg.workers - 1 do
                  ignore (spawn_worker coord k)
                done;
                Printf.printf "listening port=%d workers=%d\n%!" port
                  cfg.workers;
                coord_loop coord (Poll.create ()) ~stop;
                write_merged_metrics coord;
                Grant_wal.close coord.wal;
                close_quietly coord.gen_lock;
                Printf.printf "drained\n%!";
                0
              with Unix.Unix_error (e, fn, _) ->
                Printf.eprintf "pool: %s: %s\n%!" fn (Unix.error_message e);
                1)))

let run cfg =
  if cfg.workers < 2 then invalid_arg "Pool.run: need at least 2 workers";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = ref false in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
  (* wake the loop's wait promptly when a child dies *)
  Sys.set_signal Sys.sigchld (Sys.Signal_handle (fun _ -> ()));
  (* generation fencing: no reading, re-leasing or serving while any
     process of the previous generation can still write. The WAL lock
     (another live coordinator) fails fast; the shard probes wait out
     the window in which orphaned workers notice the reparenting. *)
  match acquire_lock (gen_lock_path cfg.journal) with
  | Error msg ->
      Printf.eprintf "pool: coordinator lock: %s — refusing to serve\n%!" msg;
      1
  | Ok gen_lock -> (
      let rec probe k =
        if k >= cfg.workers then None
        else
          match acquire_lock ~wait_s:5.0 (shard_lock_path cfg.journal k) with
          | Ok fd ->
              (* probe only: the shard's own worker takes it after fork *)
              close_quietly fd;
              probe (k + 1)
          | Error msg -> Some msg
      in
      match probe 0 with
      | Some msg ->
          close_quietly gen_lock;
          Printf.eprintf "pool: worker lock: %s — refusing to serve\n%!" msg;
          1
      | None -> run_locked cfg ~gen_lock ~stop)
