(* F3: RNG stream provenance.

   Three checks, generalizing the lexical R9:

   - crossing: a PRNG stream owned by one subsystem (created there, or
     read from a [.rng]/[.jitter] field there) must not be passed into
     another subsystem's functions. Draws (Prng.float & co) and
     mechanism calls consume streams and return data, so they launder.
   - raw copies: [Prng.copy] duplicates generator state; any use
     inside a domain-owning subsystem is a finding (replay of a
     stream's future breaks the mechanisms' independence assumptions).
   - duplicate constant seeds: the same literal seed appearing in
     [Prng.create] calls of two different subsystems couples streams
     that the privacy analysis treats as independent. *)

let domain_of_def (d : Graph.def) = Spec.domain_of_segs d.Graph.file.segs

let caller_domain (d : Graph.def) =
  if List.mem (d.modname, d.name) Spec.composition_roots then None
  else domain_of_def d

let target_domain (r : Graph.resolved) =
  if List.mem (fst (Graph.key r)) Spec.neutral_modules then None
  else
    match r with
    | Graph.Def d -> domain_of_def d
    | Graph.Ext _ -> Spec.domain_of_module (fst (Graph.key r))

let sanitizes ~caller:_ (r : Graph.resolved) =
  let m, i = Graph.key r in
  (m = "Prng" && not (List.mem i [ "create"; "split"; "copy" ]))
  || List.mem m Spec.sanitizer_modules
  || List.mem (m, i) Spec.stream_consumers
  ||
  (* declared sanitizers consume their stream argument too: the draw
     happens inside, the stream does not survive into the result *)
  match r with
  | Graph.Def d ->
      d.sanitizer_attr && List.mem (m, i) Spec.sanitizer_allowlist
  | Graph.Ext _ -> false

let crossing_findings graph out =
  let cfg =
    {
      Taint.source_of_call =
        (fun ~caller key _loc ->
          if List.mem key Spec.stream_creators then
            Option.map (fun d -> Taint.Stream d) (domain_of_def caller)
          else None);
      source_of_field =
        (fun ~caller field ->
          if List.mem field Spec.stream_fields then
            Option.map (fun d -> Taint.Stream d) (domain_of_def caller)
          else None);
      public_field = (fun f -> List.mem f Spec.public_fields);
      sanitizes;
      sink_of_call = (fun ~caller:_ _ -> None);
      declassifies = (fun key -> List.mem key Spec.declassifiers);
      on_call =
        (fun ~caller r loc args ->
          match (caller_domain caller, target_domain r) with
          | None, _ | _, None ->
              (* a caller outside every domain is a composition root —
                 bin/, bench/, tests, or a declared process entry point
                 — and stitching subsystems together is exactly its job *)
              ()
          | Some _, Some tdom ->
              List.iter
                (fun v ->
                  List.iter
                    (fun (t : Taint.taint) ->
                      match t.label with
                      | Taint.Stream sdom when sdom <> tdom ->
                          let line, col = Graph.line_col loc in
                          let tm, ti = Graph.key r in
                          out :=
                            {
                              Dp_lint.Report.rule = "F3";
                              file = caller.Graph.file.path;
                              line;
                              col;
                              message =
                                Printf.sprintf
                                  "%s-owned PRNG stream passed into %s \
                                   subsystem (%s.%s)"
                                  sdom tdom tm ti;
                              witness =
                                t.origin
                                @ [
                                    Graph.step caller loc
                                      ~what:
                                        (Printf.sprintf
                                           "crosses into %s at %s.%s" tdom tm
                                           ti);
                                  ];
                            }
                            :: !out
                      | _ -> ())
                    v)
                args);
      emit = (fun _ -> ());
      rule = "F3";
    }
  in
  ignore (Taint.run cfg graph)

(* syntactic sweeps over every def body *)

let rec is_const (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant _ -> true
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident op; _ }; _ }, args)
    when List.mem op [ "+"; "-"; "*"; "land"; "lor"; "lxor"; "lsl"; "lsr" ] ->
      List.for_all (fun (_, a) -> is_const a) args
  | _ -> false

let sweep graph out =
  let seeds : (string, (string * Graph.def * Location.t) list) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun (d : Graph.def) ->
      let dom = domain_of_def d in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun self e ->
              (match e.pexp_desc with
              | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
                -> (
                  let key =
                    Graph.key (Graph.resolve graph ~current:d.file txt)
                  in
                  match key with
                  | "Prng", "copy" when dom <> None ->
                      let line, col = Graph.line_col e.pexp_loc in
                      out :=
                        {
                          Dp_lint.Report.rule = "F3";
                          file = d.file.path;
                          line;
                          col;
                          message =
                            Printf.sprintf
                              "Prng.copy duplicates raw generator state in \
                               %s code — derive an independent stream with \
                               Prng.split instead"
                              (Option.value ~default:"" dom);
                          witness =
                            [
                              Graph.step d e.pexp_loc
                                ~what:
                                  (Printf.sprintf "raw state copy in %s" d.id);
                            ];
                        }
                        :: !out
                  | "Prng", "create" -> (
                      match (args, dom) with
                      | (_, seed) :: _, Some dom when is_const seed ->
                          let c = Pprintast.string_of_expression seed in
                          let prev =
                            Option.value ~default:[]
                              (Hashtbl.find_opt seeds c)
                          in
                          Hashtbl.replace seeds c
                            ((dom, d, e.pexp_loc) :: prev)
                      | _ -> ())
                  | _ -> ())
              | _ -> ());
              Ast_iterator.default_iterator.expr self e);
        }
      in
      it.expr it d.body)
    (Graph.defs graph);
  (* duplicate constant seeds across distinct domains *)
  Hashtbl.iter
    (fun const sites ->
      let doms = List.sort_uniq compare (List.map (fun (d, _, _) -> d) sites) in
      if List.length doms >= 2 then
        List.iter
          (fun (dom, (d : Graph.def), loc) ->
            let other =
              List.find_opt (fun (d', _, _) -> d' <> dom) sites
            in
            let line, col = Graph.line_col loc in
            out :=
              {
                Dp_lint.Report.rule = "F3";
                file = d.file.path;
                line;
                col;
                message =
                  Printf.sprintf
                    "constant seed %s reused across subsystems (%s%s) — \
                     streams seeded identically are not independent"
                    const dom
                    (match other with
                    | Some (od, odef, _) ->
                        Printf.sprintf " and %s in %s" od odef.Graph.file.path
                    | None -> "");
                witness =
                  List.map
                    (fun (sd, (sdef : Graph.def), sloc) ->
                      Graph.step sdef sloc
                        ~what:(Printf.sprintf "seed %s in %s domain" const sd))
                    (List.rev sites);
              }
              :: !out)
          sites)
    seeds

let findings graph =
  let out = ref [] in
  crossing_findings graph out;
  sweep graph out;
  List.rev !out
