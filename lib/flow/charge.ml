(* F2: charge-before-release dominance.

   A release site is an application of a [.run] closure (a planner's,
   or a release face's draw) or a construction of a [Released]
   outcome. On every path from an entry point to a release site, a
   charge (Ledger.spend, a replayed charge, a WAL'd lease grant, or a
   deterministic-gate proof) must already have executed. The walk
   threads a two-point lattice (Uncharged/Charged) left-to-right
   through each definition; branches join with AND over the arms that
   can fall through (a diverging arm — failwith, raise — does not
   weaken the join). Function summaries record whether a callee
   establishes a charge and which release sites it can reach while
   still uncharged, so the check is interprocedural: a helper that
   fires [plan.run] is flagged from whichever entry reaches it without
   paying first. *)

type state = Charged | Uncharged

type summary = {
  charges : bool;  (** every fall-through path establishes a charge *)
  releases : (Location.t * Dp_lint.Report.step list) list;
      (** release sites reachable while uncharged, with the step
          chain from this definition's entry *)
}

let empty_summary = { charges = false; releases = [] }

let shape s =
  (s.charges, List.sort compare (List.map fst s.releases))

let add_release rs (loc, steps) =
  if List.mem_assoc loc rs then rs else (loc, steps) :: rs

let is_release_apply (f : Parsetree.expression) =
  match f.pexp_desc with
  | Pexp_field (_, { txt; _ }) -> (
      match List.rev (Longident.flatten txt) with
      | x :: _ -> x = Spec.release_field
      | [] -> false)
  | _ -> false

let last_of_lid lid =
  match List.rev (Longident.flatten lid) with x :: _ -> x | [] -> ""

type ctx = {
  graph : Graph.t;
  summaries : (string, summary) Hashtbl.t;
  mutable acc : (Location.t * Dp_lint.Report.step list) list;
      (** releases of the def being walked *)
}

let summary ctx (d : Graph.def) =
  Option.value ~default:empty_summary (Hashtbl.find_opt ctx.summaries d.id)

(* walk returns (state-after, diverges) *)
let rec walk ctx (d : Graph.def) st (e : Parsetree.expression) : state * bool =
  let loc = e.pexp_loc in
  match e.pexp_desc with
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident "|>"; _ }; _ },
        [ (_, arg); (_, f) ] ) ->
      let st, div = walk ctx d st arg in
      if div then (st, true) else apply ctx d st ~loc f [ arg ] ~walk_args:false
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Lident "@@"; _ }; _ },
        [ (_, f); (_, arg) ] ) ->
      apply ctx d st ~loc f [ arg ] ~walk_args:true
  | Pexp_apply (f, args) ->
      apply ctx d st ~loc f (List.map snd args) ~walk_args:true
  | Pexp_construct ({ txt; _ }, arg)
    when last_of_lid txt = Spec.release_construct ->
      let st, div =
        match arg with Some a -> walk ctx d st a | None -> (st, false)
      in
      if st = Uncharged then
        ctx.acc <-
          add_release ctx.acc
            ( loc,
              [
                Graph.step d loc
                  ~what:
                    (Printf.sprintf "%s constructed in %s"
                       Spec.release_construct d.id);
              ] );
      (st, div)
  | Pexp_let (_, vbs, body) ->
      let st, div =
        List.fold_left
          (fun (st, div) (vb : Parsetree.value_binding) ->
            if div then (st, div)
            else
              let st, d' = walk ctx d st vb.pvb_expr in
              (st, d'))
          (st, false) vbs
      in
      if div then (st, true) else walk ctx d st body
  | Pexp_sequence (a, b) ->
      let st, div = walk ctx d st a in
      if div then (st, true) else walk ctx d st b
  | Pexp_ifthenelse (c, a, b) -> (
      let st, div = walk ctx d st c in
      if div then (st, true)
      else
        let ra = walk ctx d st a in
        match b with
        | None ->
            (* no else branch falls through uncharged *)
            (st, false)
        | Some b ->
            let rb = walk ctx d st b in
            join st [ ra; rb ])
  | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      let st, div = walk ctx d st scrut in
      if div then (st, true)
      else
        join st
          (List.map
             (fun (c : Parsetree.case) ->
               (match c.pc_guard with
               | Some g -> ignore (walk ctx d st g)
               | None -> ());
               walk ctx d st c.pc_rhs)
             cases)
  | Pexp_letop { let_; ands; body } ->
      let st, div =
        List.fold_left
          (fun (st, div) (b : Parsetree.binding_op) ->
            if div then (st, div) else walk ctx d st b.pbop_exp)
          (st, false) (let_ :: ands)
      in
      if div then (st, true) else walk ctx d st body
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) ->
      (* the closure's body executes when called; analyze it in the
         same charge context (planner closures are built and run
         within one request) *)
      walk ctx d st body
  | Pexp_function cases ->
      join st
        (List.map (fun (c : Parsetree.case) -> walk ctx d st c.pc_rhs) cases)
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e)
  | Pexp_lazy e ->
      walk ctx d st e
  | Pexp_letmodule (_, _, body) | Pexp_letexception (_, body) ->
      walk ctx d st body
  | Pexp_record (fields, base) ->
      let exprs =
        Option.to_list base @ List.map snd fields
      in
      seq ctx d st exprs
  | Pexp_tuple es | Pexp_array es -> seq ctx d st es
  | Pexp_construct (_, arg) | Pexp_variant (_, arg) ->
      seq ctx d st (Option.to_list arg)
  | Pexp_field (e, _) -> walk ctx d st e
  | Pexp_setfield (a, _, b) -> seq ctx d st [ a; b ]
  | Pexp_while (c, body) ->
      ignore (walk ctx d st c);
      ignore (walk ctx d st body);
      (st, false)
  | Pexp_for (_, lo, hi, _, body) ->
      ignore (seq ctx d st [ lo; hi ]);
      ignore (walk ctx d st body);
      (st, false)
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ } ->
      (st, true)
  | Pexp_assert e ->
      ignore (walk ctx d st e);
      (st, false)
  | _ -> (st, false)

and seq ctx d st exprs =
  List.fold_left
    (fun (st, div) e ->
      if div then (st, div) else walk ctx d st e)
    (st, false) exprs

(* AND-join over fall-through arms: Charged only if every arm that
   can fall through is Charged; all-diverging means we diverge too *)
and join _incoming results =
  let falling = List.filter (fun (_, div) -> not div) results in
  if falling = [] then
    (Uncharged, true)
  else
    ( (if List.for_all (fun (st, _) -> st = Charged) falling then Charged
       else Uncharged),
      false )

and apply ctx d st ~loc f args ~walk_args =
  let st, div =
    if walk_args then
      let fst_st, fdiv =
        match f.pexp_desc with
        | Pexp_ident _ -> (st, false)
        | _ -> walk ctx d st f
      in
      if fdiv then (fst_st, true) else seq ctx d fst_st args
    else (st, false)
  in
  if div then (st, true)
  else if is_release_apply f then begin
    (if st = Uncharged then
       ctx.acc <-
         add_release ctx.acc
           ( loc,
             [
               Graph.step d loc
                 ~what:
                   (Printf.sprintf "planner .%s fired in %s"
                      Spec.release_field d.id);
             ] ));
    (st, false)
  end
  else
    match f.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        let resolved = Graph.resolve ctx.graph ~current:d.file txt in
        let key = Graph.key resolved in
        if List.mem key Spec.chargers then (Charged, false)
        else if List.mem key Spec.diverging then (st, true)
        else
          match resolved with
          | Graph.Def callee when callee.id <> d.id ->
              let s = summary ctx callee in
              (if st = Uncharged then
                 let call_step =
                   Graph.step d loc
                     ~what:
                       (Printf.sprintf "call to %s in %s" callee.id d.id)
                 in
                 List.iter
                   (fun (site, steps) ->
                     ctx.acc <-
                       add_release ctx.acc (site, call_step :: steps))
                   s.releases);
              ((if s.charges then Charged else st), false)
          | _ -> (st, false))
    | _ -> (st, false)

let analyze_def ctx (d : Graph.def) =
  ctx.acc <- [];
  let st, _div = walk ctx d Uncharged d.body in
  { charges = st = Charged; releases = ctx.acc }

let in_scope (f : Dp_lint.Report.finding) =
  let touches path =
    let segs = String.split_on_char '/' path in
    List.exists (fun s -> List.mem s segs) Spec.f2_scope_segs
  in
  touches f.file
  || List.exists (fun (s : Dp_lint.Report.step) -> touches s.s_file) f.witness

let findings graph =
  let ctx = { graph; summaries = Hashtbl.create 256; acc = [] } in
  let defs = Graph.defs graph in
  let changed = ref true and iters = ref 0 in
  while !changed && !iters < 30 do
    changed := false;
    incr iters;
    List.iter
      (fun d ->
        let s' = analyze_def ctx d in
        let s = summary ctx d in
        if shape s <> shape s' then changed := true;
        Hashtbl.replace ctx.summaries d.Graph.id s')
      defs
  done;
  (* findings: release sites reachable uncharged from an entry — a
     def nothing in the analyzed set calls *)
  let entries =
    List.filter (fun d -> Graph.callers graph d = []) defs
  in
  List.concat_map
    (fun (d : Graph.def) ->
      List.filter_map
        (fun ((site : Location.t), steps) ->
          let line, col = Graph.line_col site in
          let file =
            if site.loc_start.pos_fname <> "" then site.loc_start.pos_fname
            else d.file.path
          in
          let f =
            {
              Dp_lint.Report.rule = "F2";
              file;
              line;
              col;
              message =
                Printf.sprintf
                  "answer released without a dominating ledger charge \
                   (uncharged path from %s)"
                  d.id;
              witness = steps;
            }
          in
          if in_scope f then Some f else None)
        (summary ctx d).releases)
    entries
