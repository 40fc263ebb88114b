(* The exemption-file grammar: hand-written cases for each rule-spec
   shape, and a qcheck property pinning that [Config.parse] and
   [Config.to_string] round-trip exactly — lint.exempt and
   flow.baseline workflows edit these files programmatically, so the
   grammar must not drift. *)

module Config = Dp_lint.Config

let parse_ok s =
  match Config.parse s with
  | Ok t -> t
  | Error msg -> Alcotest.failf "parse %S: %s" s msg

(* --- unit cases ---------------------------------------------------- *)

let test_spec_shapes () =
  let t =
    parse_ok
      "# comment\n\
       * lint_corpus/\n\
       R7 bad_r7.ml\n\
       F1-F3 flow_corpus/\n\
       R2-R8 lib/engine/\n"
  in
  Alcotest.(check int) "entries" 4 (List.length t);
  Alcotest.(check bool) "any matches every rule" true
    (Config.exempt t ~rule:"R9" ~file:"test/lint_corpus/engine/bad.ml");
  Alcotest.(check bool) "one matches itself" true
    (Config.exempt t ~rule:"R7" ~file:"x/bad_r7.ml");
  Alcotest.(check bool) "one does not match siblings" false
    (Config.exempt t ~rule:"R6" ~file:"x/bad_r6.ml");
  Alcotest.(check bool) "range matches interior" true
    (Config.exempt t ~rule:"F2" ~file:"test/flow_corpus/x.ml");
  Alcotest.(check bool) "range matches endpoints" true
    (Config.exempt t ~rule:"F3" ~file:"test/flow_corpus/x.ml");
  Alcotest.(check bool) "range is family-scoped" false
    (Config.exempt t ~rule:"F3" ~file:"lib/engine/x.ml");
  Alcotest.(check bool) "range excludes outside" false
    (Config.exempt t ~rule:"R9" ~file:"lib/engine/x.ml")

let test_rejects () =
  let bad s =
    match Config.parse s with
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
    | Error _ -> ()
  in
  bad "R7\n";
  bad "R7 \n";
  bad "R2-F3 lib/\n";
  bad "R8-R2 lib/\n";
  bad "R-R2 lib/\n"

(* --- round-trip property ------------------------------------------- *)

let gen_entry =
  let open QCheck.Gen in
  let family = oneofl [ "R"; "F" ] in
  let idx = int_range 1 99 in
  let spec =
    frequency
      [
        (1, return Config.Any);
        (3, map2 (fun f i -> Config.One (Printf.sprintf "%s%d" f i)) family idx);
        ( 3,
          map3
            (fun f a b ->
              let lo = min a b and hi = max a b in
              Config.Range { prefix = f; lo; hi })
            family idx idx );
      ]
  in
  (* path fragments as they appear in real exemption files: no spaces,
     no newlines, nonempty *)
  let fragment =
    let frag_char =
      oneofl
        [ 'a'; 'b'; 'z'; 'A'; 'Z'; '0'; '9'; '/'; '.'; '_'; '-'; '#' ]
    in
    map (fun cs -> String.concat "" (List.map (String.make 1) cs))
      (list_size (int_range 1 24) frag_char)
  in
  map2 (fun spec fragment -> { Config.spec; fragment }) spec fragment

let arb_config =
  QCheck.make
    ~print:(fun t -> Printf.sprintf "%S" (Config.to_string t))
    (QCheck.Gen.list_size (QCheck.Gen.int_range 0 12) gen_entry)

let qcheck_tests =
  [
    QCheck.Test.make ~name:"exemption file round-trips" ~count:500 arb_config
      (fun t ->
        match Config.parse (Config.to_string t) with
        | Ok t' -> t' = t
        | Error _ -> false);
  ]

(* --- the directory walk lint and flow share ------------------------ *)

(* a.ml and sub/b.ml are sources; .bench_build/ and _build/ are build
   trees that dune itself skips, so both tools must skip them too *)
let test_walk_skips_build_trees () =
  let root = Filename.temp_file "dpkit_walk" "" in
  Sys.remove root;
  let dirs = [ ""; "sub"; ".bench_build"; "_build" ]
  and files = [ "a.ml"; "sub/b.ml"; ".bench_build/c.ml"; "_build/d.ml" ] in
  let at rel = if rel = "" then root else Filename.concat root rel in
  List.iter (fun d -> Sys.mkdir (at d) 0o755) dirs;
  List.iter
    (fun f ->
      Out_channel.with_open_bin (at f) (fun oc -> output_string oc "let x = 1\n"))
    files;
  let flow_paths r =
    List.map
      (fun (f : Dp_flow.Loader.file) -> f.path)
      (Dp_flow.Loader.load [ r ]).files
  in
  let sources = [ "a.ml"; "sub/b.ml" ] and cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      List.iter (fun f -> Sys.remove (at f)) files;
      List.iter (fun d -> Sys.rmdir (at d)) (List.rev dirs))
    (fun () ->
      Alcotest.(check (list string)) "lint" sources (Dp_lint.Driver.scan_dir root);
      Alcotest.(check (list string)) "flow" (List.map at sources) (flow_paths root);
      Sys.chdir root;
      Alcotest.(check (list string)) "lint from ." sources (Dp_lint.Driver.scan_dir ".");
      Alcotest.(check (list string)) "flow from ." sources (flow_paths "."))

let () =
  Alcotest.run "dp_lint"
    [
      ( "config",
        [
          Alcotest.test_case "spec shapes" `Quick test_spec_shapes;
          Alcotest.test_case "rejects" `Quick test_rejects;
        ] );
      ( "walk",
        [
          Alcotest.test_case "skips build trees" `Quick
            test_walk_skips_build_trees;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
