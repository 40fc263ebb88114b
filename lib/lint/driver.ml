let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Below the root, the directories dune does not build from either:
   any name starting with '.' or '_' (_build, .git, _opam,
   .bench_build, ...) and node_modules. *)
let skipped name =
  name = "node_modules" || name.[0] = '.' || name.[0] = '_'

let scan_dir root =
  (* .ml/.mli files under [root], paths relative to it, sorted; the
     root itself is walked whatever its name, "." included *)
  let rec walk rel acc =
    let abs = if rel = "" then root else Filename.concat root rel in
    match Sys.is_directory abs with
    | exception Sys_error _ -> acc
    | false ->
        if
          Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli"
        then rel :: acc
        else acc
    | true ->
        if rel <> "" && skipped (Filename.basename rel) then acc
        else
          Array.fold_left
            (fun acc entry ->
              let child = if rel = "" then entry else rel ^ "/" ^ entry in
              walk child acc)
            acc (Sys.readdir abs)
  in
  List.sort compare (walk "" [])

let lint ?(exempt = Config.empty) ~root files =
  let per_file file =
    let { Lexer.tokens; allows } = Lexer.scan (read_file (Filename.concat root file)) in
    let ctx = { Rules.file; segs = String.split_on_char '/' file; tokens } in
    List.filter
      (fun (f : Report.finding) ->
        not (List.mem (f.line, f.rule) allows))
      (Rules.run ctx)
  in
  let findings =
    List.concat_map per_file files @ Rules.r3 ~files files
  in
  findings
  |> List.filter (fun (f : Report.finding) ->
         not (Config.exempt exempt ~rule:f.rule ~file:f.file))
  |> List.sort Report.compare_findings
  |> Report.dedup

let lint_dir ?exempt root = lint ?exempt ~root (scan_dir root)
