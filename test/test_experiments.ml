(* End-to-end sweep of the experiment registry: every experiment must
   run in quick mode without raising and must produce output. The
   MCMC/training-heavy ones (exercised by `dpkit experiment all` and
   their own unit tests) are excluded to keep the suite fast. *)

let heavy = [ "E8"; "E10"; "E16"; "E17"; "E29" ]

let run_one (e : Dp_experiments.Registry.entry) () =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  e.Dp_experiments.Registry.run ~quick:true ~seed:7 fmt;
  Format.pp_print_flush fmt ();
  let out = Buffer.contents buf in
  Alcotest.(check bool)
    (Printf.sprintf "%s produced output" e.Dp_experiments.Registry.id)
    true
    (String.length out > 100);
  (* every experiment's verdict columns must not scream *)
  let contains_no =
    let needle = "| NO" in
    let nl = String.length needle and ol = String.length out in
    let rec go i =
      if i + nl > ol then false
      else if String.sub out i nl = needle then true
      else go (i + 1)
    in
    go 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s reports no violation" e.Dp_experiments.Registry.id)
    false contains_no

let registry_cases =
  List.filter_map
    (fun e ->
      if List.mem e.Dp_experiments.Registry.id heavy then None
      else
        Some
          (Alcotest.test_case e.Dp_experiments.Registry.id `Slow (run_one e)))
    Dp_experiments.Registry.all

let test_registry_complete () =
  Alcotest.(check int) "37 entries" 37 (List.length Dp_experiments.Registry.all);
  (* ids unique and findable *)
  List.iter
    (fun e ->
      match Dp_experiments.Registry.find e.Dp_experiments.Registry.id with
      | Some e' ->
          Alcotest.(check string) "found itself" e.Dp_experiments.Registry.id
            e'.Dp_experiments.Registry.id
      | None -> Alcotest.failf "id %s not findable" e.Dp_experiments.Registry.id)
    Dp_experiments.Registry.all;
  Alcotest.(check bool) "unknown id rejected" true
    (Dp_experiments.Registry.find "E999" = None)

let test_table_rendering () =
  let t = Dp_experiments.Table.create ~title:"t" ~columns:[ "a"; "b" ] in
  Dp_experiments.Table.add_rowf t [ 1.; 2.5 ];
  Dp_experiments.Table.add_row t [ "x"; "y" ];
  Alcotest.(check int) "rows" 2 (List.length (Dp_experiments.Table.rows t));
  (try
     Dp_experiments.Table.add_row t [ "only-one" ];
     Alcotest.fail "accepted wrong arity"
   with Invalid_argument _ -> ());
  (* csv export *)
  let dir = Filename.temp_file "dp_tables" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      Dp_experiments.Table.save_csv t ~dir;
      let files = Sys.readdir dir in
      Alcotest.(check int) "one file" 1 (Array.length files);
      let content =
        In_channel.with_open_text (Filename.concat dir files.(0))
          In_channel.input_all
      in
      Alcotest.(check bool) "header present" true
        (String.length content > 0 && String.sub content 0 3 = "a,b"))

let () =
  Alcotest.run "dp_experiments"
    [
      ( "registry",
        Alcotest.test_case "complete & findable" `Quick test_registry_complete
        :: Alcotest.test_case "table rendering & csv" `Quick
             test_table_rendering
        :: registry_cases );
    ]
