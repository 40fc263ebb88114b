(* F2 case: a release path that journals a charge frame, then fires the
   plan's release closure without ever spending the ledger. Writing a
   charge record is not paying for the release — a release's batch is
   written after its draw, so only a ledger spend can dominate it. The
   token linter has no rule for this order at all. Never compiled. *)

let answer j (plan : Planner.plan) charge rng =
  ignore (Journal.append j [ Journal.Charge charge ]);
  plan.Planner.run rng
