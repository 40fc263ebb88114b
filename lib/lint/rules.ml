(* The privacy invariants of this codebase, as lexical rules. Each rule
   is deliberately scoped by path segment: an invariant like "no
   catch-all handlers" is meaningless outside the serving engine, and
   keeping scopes tight keeps false positives near zero. Invariants
   that need dataflow — raw rows reaching an output, charge before
   release, gate before release, RNG provenance — are the flow
   analyzer's F1/F2/F3 (lib/flow). *)

type ctx = {
  file : string;  (** path as reported, '/'-separated *)
  segs : string list;
  tokens : Lexer.token array;
}

let all =
  [
    ( "R1",
      "no Stdlib.Random outside lib/rng — all noise must flow through the \
       seeded, splittable Dp_rng.Prng" );
    ( "R3",
      "every lib/**/*.ml has a matching .mli — invariants live in \
       interfaces, and an unconstrained module leaks internals" );
    ( "R4",
      "no difference-of-logs or ratio-of-exps on unbounded quantities in \
       lib/mechanism or lib/pac_bayes — use closed forms or the Dp_math \
       log-domain helpers (underflow turns likelihood ratios into NaN)" );
    ( "R5",
      "no catch-all exception handlers in lib/engine — a swallowed \
       exception can release an answer whose charge failed" );
    ( "R7",
      "metric and span labels come from the closed Dp_obs.Name catalogue — \
       in lib/engine, lib/mechanism and lib/net, never build a label string \
       at a metrics/span call site (a query argument in a metric name is a \
       side channel)" );
  ]

let has_seg ctx s = List.mem s ctx.segs
let is_ml ctx = Filename.check_suffix ctx.file ".ml"

let tok ctx i =
  if i >= 0 && i < Array.length ctx.tokens then ctx.tokens.(i).Lexer.text else ""

let finding ctx rule i message =
  {
    Report.rule;
    file = ctx.file;
    line = ctx.tokens.(i).Lexer.line;
    col = ctx.tokens.(i).Lexer.col;
    message;
    witness = [];
  }

(* R1 ------------------------------------------------------------- *)

let r1 ctx =
  if has_seg ctx "rng" then []
  else
    let out = ref [] in
    Array.iteri
      (fun i (t : Lexer.token) ->
        if t.text = "Random" && tok ctx (i + 1) = "." then
          let qualified = tok ctx (i - 1) = "." in
          if (not qualified) || tok ctx (i - 2) = "Stdlib" then
            out :=
              finding ctx "R1" i
                "Stdlib.Random is unseeded global state; draw noise via \
                 Dp_rng (lib/rng)"
              :: !out)
      ctx.tokens;
    List.rev !out

(* R3 ------------------------------------------------------------- *)

let r3 ~files scanned =
  List.filter_map
    (fun file ->
      if
        Filename.check_suffix file ".ml"
        && List.mem "lib" (String.split_on_char '/' file)
        && not (List.mem (file ^ "i") files)
      then
        Some
          {
            Report.rule = "R3";
            file;
            line = 1;
            col = 0;
            message = "library module without an interface: add " ^ file ^ "i";
            witness = [];
          }
      else None)
    scanned

(* R4 ------------------------------------------------------------- *)

(* Matches  log ( ... ) -. log   and   exp ( ... ) /. exp   with the
   parens balanced — the shapes that underflow before the subtraction
   (or division) can cancel. *)
let close_paren ctx i =
  (* [i] points at '('; index just after its matching ')', or None *)
  let n = Array.length ctx.tokens in
  let rec go depth j =
    if j >= n then None
    else
      match tok ctx j with
      | "(" -> go (depth + 1) (j + 1)
      | ")" -> if depth = 1 then Some (j + 1) else go (depth - 1) (j + 1)
      | _ -> go depth (j + 1)
  in
  go 0 i

let r4 ctx =
  if not (has_seg ctx "mechanism" || has_seg ctx "pac_bayes") then []
  else begin
    let out = ref [] in
    Array.iteri
      (fun i (t : Lexer.token) ->
        let pair fn op =
          t.text = fn
          && tok ctx (i + 1) = "("
          &&
          match close_paren ctx (i + 1) with
          | Some j -> tok ctx j = op && tok ctx (j + 1) = fn
          | None -> false
        in
        if pair "log" "-." then
          out :=
            finding ctx "R4" i
              "log a -. log b underflows to -inf - -inf = nan in the tails; \
               use the closed form or Dp_math's log-domain helpers"
            :: !out
        else if pair "exp" "/." then
          out :=
            finding ctx "R4" i
              "exp a /. exp b overflows/underflows in the tails; subtract in \
               log domain instead"
            :: !out)
      ctx.tokens;
    List.rev !out
  end

(* R5 ------------------------------------------------------------- *)

let r5 ctx =
  if not (has_seg ctx "engine" && is_ml ctx) then []
  else begin
    let out = ref [] in
    let add i msg = out := finding ctx "R5" i msg :: !out in
    Array.iteri
      (fun i (t : Lexer.token) ->
        if t.text = "_" && tok ctx (i + 1) = "->" && tok ctx (i - 1) = "with"
        then begin
          (* `with _ ->` is only a handler under a `try`; under `match`
             it is an ordinary wildcard. *)
          let rec back j =
            if j < 0 then ()
            else
              match tok ctx j with
              | "try" ->
                  add i
                    "catch-all `try ... with _ ->` can swallow a failed \
                     charge; match the specific exceptions"
              | "match" -> ()
              | _ -> back (j - 1)
          in
          back (i - 2)
        end;
        if t.text = "_" && tok ctx (i - 1) = "exception" && tok ctx (i + 1) = "->"
        then
          add i
            "catch-all `exception _ ->` case; match the specific exceptions";
        if t.text = "Failure" && tok ctx (i + 1) = "_" then
          add i
            "matching `Failure _` hides which invariant failed; use a typed \
             error or match the message")
      ctx.tokens;
    List.rev !out
  end

(* R7 ------------------------------------------------------------- *)

(* A metrics/span record call is `Module.fn args...` where Module is an
   observability module and fn an instrumented-record function. Labels
   must be Dp_obs.Name constructors, so any string-building token among
   the arguments means a label (or tag key) is being assembled from
   runtime data — exactly the side channel the closed catalogue exists
   to rule out. The window is bounded, and a `;` ends the arguments
   for sure. String literals never trip the rule (the lexer strips
   them); only the *building* of strings does. *)

let obs_modules = [ "Metrics"; "Span"; "Obs"; "Dp_obs"; "Trace"; "Draws" ]

let record_fns =
  [
    "incr"; "add"; "set_counter"; "set_gauge"; "observe"; "begin_";
    "begin_at"; "with_"; "tag"; "record"; "dataset";
  ]

let string_builders =
  [
    "^"; "sprintf"; "asprintf"; "Printf"; "Format"; "string_of_int";
    "string_of_float"; "concat"; "String"; "Bytes"; "Buffer";
  ]

let r7_window = 12

let r7 ctx =
  if
    not
      ((has_seg ctx "engine" || has_seg ctx "mechanism" || has_seg ctx "net")
      && is_ml ctx)
  then []
  else begin
    let out = ref [] in
    Array.iteri
      (fun i (t : Lexer.token) ->
        if
          List.mem t.text record_fns
          && tok ctx (i - 1) = "."
          && List.mem (tok ctx (i - 2)) obs_modules
        then begin
          let hit = ref false in
          let j = ref (i + 1) in
          while !j <= i + r7_window && tok ctx !j <> ";" do
            if List.mem (tok ctx !j) string_builders then hit := true;
            incr j
          done;
          if !hit then
            out :=
              finding ctx "R7" i
                "metric/span label built at the call site; use a closed \
                 Dp_obs.Name constructor (runtime data in a label is a \
                 side channel)"
              :: !out
        end)
      ctx.tokens;
    List.rev !out
  end

let run ctx = List.concat [ r1 ctx; r4 ctx; r5 ctx; r7 ctx ]
