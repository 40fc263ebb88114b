(* Seeded violation for retired R8, now F2: a Released model
   constructed with no convergence verdict in its definition. *)

type outcome =
  | Released of { theta : float array }
  | Withheld of { reason : string }

let sneak_release chains =
  let theta = chains.(0).(Array.length chains.(0) - 1) in
  Released { theta }
