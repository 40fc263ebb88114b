(* Seeded violation for retired R6, now F1: raw dataset values
   reaching an output channel in a serving path. Never compiled. *)

let debug_dump (c : Registry.column) =
  Printf.printf "col %s = %s\n" c.name (dump c.values)
