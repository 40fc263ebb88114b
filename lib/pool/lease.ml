(* Fenced ε-lease arbitration for one dataset across N worker shards.

   Pure state machine — no clock, no I/O — so the coordinator drives it
   from WAL'd events and the property tests drive it from arbitrary
   interleavings. All amounts are face-value ε (the sum of per-query
   face charges), which upper-bounds every composition backend's
   marginal spend: arbitrating in face currency is conservative, never
   unsound. *)

type shard = {
  mutable token : int;
      (* fencing token of the live incarnation; -1 before the first *)
  mutable leased : float;
      (* cumulative ε granted to the live incarnation (absolute, so a
         re-sent grant is idempotent) *)
  mutable reclaimed : float;
      (* absolute ε spent by all dead incarnations, from shard-journal
         replay at reclaim time *)
  mutable deadline : float;
      (* expiry of the last grant/re-ack; neg_infinity when nothing is
         leased — lets the coordinator spot idle incarnations sitting
         on unspent budget *)
}

type t = { total : float; shards : shard array }

(* Absorbs float-fold rounding in ≤-comparisons; grants themselves are
   exact sums so the slack never compounds. *)
let slack = 1e-9

let create ~total ~shards =
  if total < 0. then invalid_arg "Lease.create: negative total";
  if shards <= 0 then invalid_arg "Lease.create: shards must be positive";
  {
    total;
    shards =
      Array.init shards (fun _ ->
          { token = -1; leased = 0.; reclaimed = 0.; deadline = neg_infinity });
  }

let budget t = t.total
let shards t = Array.length t.shards
let outstanding t = Array.fold_left (fun a s -> a +. s.leased) 0. t.shards
let reclaimed_spent t = Array.fold_left (fun a s -> a +. s.reclaimed) 0. t.shards
let unleased t = Float.max 0. (t.total -. outstanding t -. reclaimed_spent t)
let invariant_ok t = reclaimed_spent t +. outstanding t <= t.total +. slack
let leased t ~shard = t.shards.(shard).leased

let expired t ~now =
  Array.to_list t.shards
  |> List.mapi (fun k s -> (k, s))
  |> List.filter_map (fun (k, s) ->
         if s.leased > 0. && s.deadline < now then Some k else None)

let new_incarnation t ~shard ~token =
  let s = t.shards.(shard) in
  if token <= s.token then
    invalid_arg "Lease.new_incarnation: fencing token must strictly increase";
  if s.leased > 0. then
    invalid_arg "Lease.new_incarnation: reclaim the dead incarnation first";
  s.token <- token;
  s.deadline <- neg_infinity

type decision =
  | Granted of { leased : float; deadline : float }
  | Denied of { unleased : float }
  | Stale of { token : int }

let grant t ~shard ~token ~need ~quantum ~now ~ttl =
  let s = t.shards.(shard) in
  if token <> s.token || token < 0 then Stale { token = s.token }
  else if need <= s.leased +. slack then begin
    (* already covered: pure re-ack of the absolute state, so a grant
       whose ack was dropped is replayed without touching the ledger *)
    s.deadline <- now +. ttl;
    Granted { leased = s.leased; deadline = s.deadline }
  end
  else begin
    let head = unleased t in
    let want = Float.max need (s.leased +. quantum) in
    let give = Float.min want (s.leased +. head) in
    if give +. slack >= need then begin
      s.leased <- give;
      s.deadline <- now +. ttl;
      Granted { leased = s.leased; deadline = s.deadline }
    end
    else Denied { unleased = head }
  end

let rollback t ~shard ~token ~leased =
  let s = t.shards.(shard) in
  if token = s.token && leased < s.leased then s.leased <- leased

type reclaimed = { unspent : float; overspend : bool }

let reclaim t ~shard ~spent_total =
  let s = t.shards.(shard) in
  let spent_total = Float.max s.reclaimed spent_total in
  let incarnation_spent = spent_total -. s.reclaimed in
  let unspent = Float.max 0. (s.leased -. incarnation_spent) in
  let overspend = incarnation_spent > s.leased +. slack in
  s.reclaimed <- spent_total;
  s.leased <- 0.;
  s.deadline <- neg_infinity;
  { unspent; overspend }
