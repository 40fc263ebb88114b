(* Seeded violation for retired R2, now F2: the release closure runs
   before any ledger spend / journal append in its definition. *)

let serve_uncharged (plan : Planner.plan) rng =
  let answer = plan.Planner.run rng in
  answer
