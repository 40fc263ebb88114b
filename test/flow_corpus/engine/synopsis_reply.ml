(* F1 case: a reply that prints the smallest row of a column, read out
   of its sorted synopsis. There is no [values] token for the token
   linter's R6 window to find — the rows arrive already sorted — so
   only the flow pass, which treats [Registry.synopsis] as a row source
   exactly like [Registry.column], reports it. Never compiled. *)

let reply_min ds c oc =
  Printf.fprintf oc "ok min=%f\n" (Registry.synopsis ds c).sorted.(0)
