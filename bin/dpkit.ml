(* dpkit — command-line driver for the experiment suite and the
   query-serving engine.

   dpkit list                         enumerate experiments
   dpkit experiment E5 [--quick]      run one experiment
   dpkit experiment all [--seed 7]    run everything
   dpkit serve                        line-protocol DP query server (stdin/stdout)
   dpkit serve --tcp PORT             the same protocol over TCP (multi-client)
   dpkit client --port P              retrying client for the TCP server
   dpkit query "mean(income)" ...     one-shot queries against a synthetic dataset
   dpkit analyze --schema S WORKLOAD  static workload costing, no data access
   dpkit certify "sum(income)"        hypothesis-test the claimed (eps, delta)
   dpkit certify ... --via tcp        the same, against a live TCP server
   dpkit certify compare PRE POST     crash-recovery distribution comparison
   dpkit lint [DIR]                   privacy-invariant linter (R1, R3-R7) *)

open Cmdliner

let seed_arg =
  let doc = "PRNG seed (experiments are deterministic given the seed)." in
  Arg.(value & opt int 20120330 & info [ "seed" ] ~docv:"SEED" ~doc)

let quick_arg =
  let doc = "Reduced trial counts for a fast smoke run." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let list_cmd =
  let run () =
    Format.printf "%-4s %-55s %s@." "id" "title" "claim";
    Format.printf "%s@." (String.make 110 '-');
    List.iter
      (fun e ->
        Format.printf "%-4s %-55s %s@." e.Dp_experiments.Registry.id
          e.Dp_experiments.Registry.title e.Dp_experiments.Registry.claim)
      Dp_experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List all experiments and ablations.")
    Term.(const run $ const ())

let csv_arg =
  let doc = "Also write each table as a CSV file into $(docv) (must exist)." in
  Arg.(value & opt (some dir) None & info [ "csv" ] ~docv:"DIR" ~doc)

let experiment_cmd =
  let id_arg =
    let doc = "Experiment id (E1..E33, A2..A4) or 'all'." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let run id quick seed csv =
    Dp_experiments.Table.set_export_dir csv;
    let fmt = Format.std_formatter in
    match String.lowercase_ascii id with
    | "all" ->
        Dp_experiments.Registry.run_all ~quick ~seed fmt;
        `Ok ()
    | _ -> (
        match Dp_experiments.Registry.find id with
        | Some e ->
            Format.fprintf fmt "### [%s] %s — %s@."
              e.Dp_experiments.Registry.id e.Dp_experiments.Registry.title
              e.Dp_experiments.Registry.claim;
            e.Dp_experiments.Registry.run ~quick ~seed fmt;
            `Ok ()
        | None ->
            `Error (false, Printf.sprintf "unknown experiment %S (try 'dpkit list')" id))
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run an experiment and print its table(s).")
    Term.(ret (const run $ id_arg $ quick_arg $ seed_arg $ csv_arg))

let epsilon_arg =
  let doc = "Privacy parameter epsilon." in
  Arg.(value & opt float 1.0 & info [ "epsilon"; "e" ] ~docv:"EPS" ~doc)

let audit_cmd =
  let mech_arg =
    let doc = "Mechanism to audit: laplace | geometric | rr | gibbs." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"MECHANISM" ~doc)
  in
  let trials_arg =
    let doc = "Number of mechanism runs per input." in
    Arg.(value & opt int 100_000 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let run mech epsilon trials seed =
    let g = Dp_rng.Prng.create seed in
    let report_fmt (r : Dp_audit.Auditor.report) =
      Format.printf
        "theory eps = %g@.empirical eps_hat = %.4f@.conservative eps_lower = %.4f@.verdict: %s@."
        r.Dp_audit.Auditor.epsilon_theory r.Dp_audit.Auditor.epsilon_hat
        r.Dp_audit.Auditor.epsilon_lower
        (if Dp_audit.Auditor.passes r ~slack:(0.1 *. epsilon +. 0.02) then
           "consistent with the claimed epsilon"
         else "POSSIBLE VIOLATION — investigate")
    in
    match String.lowercase_ascii mech with
    | "laplace" ->
        let m = Dp_mechanism.Laplace.create ~sensitivity:1. ~epsilon in
        report_fmt
          (Dp_audit.Auditor.audit_continuous ~trials ~bins:16
             ~lo:(-4. /. epsilon)
             ~hi:(1. +. (4. /. epsilon))
             ~epsilon_theory:epsilon
             ~run:(fun g' -> Dp_mechanism.Laplace.release m ~value:0. g')
             ~run':(fun g' -> Dp_mechanism.Laplace.release m ~value:1. g')
             g);
        `Ok ()
    | "geometric" ->
        let m = Dp_mechanism.Geometric_mech.create ~sensitivity:1 ~epsilon in
        let p = Dp_mechanism.Geometric_mech.truncated_distribution m ~value:10 ~lo:0 ~hi:20 in
        let q = Dp_mechanism.Geometric_mech.truncated_distribution m ~value:11 ~lo:0 ~hi:20 in
        Format.printf "exact audit (closed-form pmf): eps_exact = %.6f (claimed %g)@."
          (Dp_audit.Auditor.audit_exact ~p ~q) epsilon;
        `Ok ()
    | "rr" ->
        let rr = Dp_mechanism.Randomized_response.create ~epsilon in
        report_fmt
          (Dp_audit.Auditor.audit_discrete ~trials ~outcomes:2
             ~epsilon_theory:epsilon
             ~run:(fun g' ->
               if Dp_mechanism.Randomized_response.respond rr true g' then 1 else 0)
             ~run':(fun g' ->
               if Dp_mechanism.Randomized_response.respond rr false g' then 1
               else 0)
             g);
        `Ok ()
    | "gibbs" ->
        (* exact audit of a finite Gibbs posterior at the target epsilon *)
        let n = 40 in
        let grid = Array.init 17 (fun i -> -2. +. (0.25 *. float_of_int i)) in
        let loss theta (x, y) =
          if (if x >= theta then 1. else -1.) = y then 0. else 1.
        in
        let beta = epsilon *. float_of_int n /. 2. in
        let sample =
          Array.init n (fun _ ->
              let y = if Dp_rng.Prng.bool g then 1. else -1. in
              (Dp_rng.Sampler.gaussian ~mean:(y *. 0.8) ~std:1. g, y))
        in
        let fit s =
          Dp_pac_bayes.Gibbs.fit ~predictors:grid ~beta
            ~empirical_risk:(Dp_pac_bayes.Risk.empirical ~loss s)
            ()
        in
        let p = Dp_pac_bayes.Gibbs.probabilities (fit sample) in
        let worst = ref 0. in
        for _ = 1 to 200 do
          let s' = Array.copy sample in
          s'.(Dp_rng.Prng.int g n) <-
            (Dp_rng.Sampler.gaussian ~mean:0. ~std:2. g,
             if Dp_rng.Prng.bool g then 1. else -1.);
          let q = Dp_pac_bayes.Gibbs.probabilities (fit s') in
          worst := Float.max !worst (Dp_audit.Auditor.audit_exact ~p ~q)
        done;
        Format.printf
          "exact audit over 200 neighbours: worst eps = %.4f (bound 2*beta/n = %g)@."
          !worst epsilon;
        `Ok ()
    | other -> `Error (false, Printf.sprintf "unknown mechanism %S" other)
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Audit a mechanism's differential privacy empirically or exactly.")
    Term.(ret (const run $ mech_arg $ epsilon_arg $ trials_arg $ seed_arg))

let channel_cmd =
  let beta_arg =
    let doc = "Gibbs inverse temperature." in
    Arg.(value & opt float 3. & info [ "beta" ] ~docv:"BETA" ~doc)
  in
  let n_arg =
    let doc = "Sample size (records per dataset)." in
    Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc)
  in
  let run beta n =
    if n <= 0 || n > 16 then
      `Error (false, "n must be in 1..16 (exact enumeration)")
    else begin
      let loss j z = if j = z then 0. else 1. in
      let gc =
        Dp_pac_bayes.Gibbs_channel.build ~universe_probs:[| 0.5; 0.5 |] ~n
          ~predictors:[| 0; 1 |] ~beta ~loss ()
      in
      Format.printf "%a@." Dp_info.Channel.pp gc.Dp_pac_bayes.Gibbs_channel.channel;
      Format.printf "I(Z;theta) = %.4f nats, exact eps = %.4f (bound %.4f)@."
        (Dp_pac_bayes.Gibbs_channel.mutual_information gc)
        (Dp_pac_bayes.Gibbs_channel.dp_epsilon gc)
        (Dp_pac_bayes.Gibbs_channel.theoretical_epsilon gc ~loss_lo:0. ~loss_hi:1.);
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "channel"
       ~doc:"Print the paper's Figure 1 channel for given beta and n.")
    Term.(ret (const run $ beta_arg $ n_arg))

let serve_cmd =
  let journal_arg =
    let doc =
      "Write-ahead budget journal. Charges are fsynced to $(docv) before \
       any noisy answer is released; on startup existing records are \
       replayed, so spent budget survives crashes."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let faults_arg =
    let doc =
      "Fault-injection plan, e.g. 'journal-fsync=2' or 'all-transient' \
       (testing only; overrides \\$DPKIT_FAULTS)."
    in
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  let metrics_arg =
    let doc =
      "Write the final metrics snapshot (counters, gauges, latency \
       histograms, spans — the same dump the protocol's 'metrics' command \
       serves) to $(docv) at exit; render it with $(b,dpkit stats)."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let tcp_arg =
    let doc =
      "Serve the protocol over TCP on 127.0.0.1:$(docv) instead of \
       stdin/stdout (0 picks an ephemeral port, printed as \
       'listening port=N'). SIGTERM/SIGINT drain gracefully: stop \
       accepting, finish in-flight requests, fsync the journal, write \
       --metrics, exit 0."
    in
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)
  in
  let max_conns_arg =
    let doc = "TCP admission bound: connections past $(docv) are shed with \
               'err overloaded'." in
    Arg.(value & opt int 64 & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let max_inflight_arg =
    let doc = "TCP admission bound: queued requests plus unflushed replies \
               past $(docv) are shed with 'err overloaded'." in
    Arg.(value & opt int 128 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let idle_timeout_arg =
    let doc = "Close TCP connections with no completed request for $(docv) \
               seconds (slow-loris defense: partial lines do not count)." in
    Arg.(value & opt float 30. & info [ "idle-timeout" ] ~docv:"S" ~doc)
  in
  let request_deadline_arg =
    let doc = "Close a TCP connection whose reply is not fully flushed \
               within $(docv) seconds of the request arriving." in
    Arg.(value & opt float 10. & info [ "request-deadline" ] ~docv:"S" ~doc)
  in
  let workers_arg =
    let doc =
      "Serve with $(docv) supervised worker processes behind one \
       coordinator that owns the listener and arbitrates the global \
       budget with fenced ε-leases (requires --tcp and --journal; \
       shard k journals to FILE.shard<k>, lease grants to \
       FILE.grants). The TCP limits apply per worker. $(docv)=1 is \
       the plain single-process server."
    in
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let run seed journal faults_spec metrics_path tcp max_conns max_inflight
      idle_timeout request_deadline workers =
    let net port =
      {
        Dp_net.Server.port;
        max_conns;
        max_inflight;
        idle_timeout_s = idle_timeout;
        reply_deadline_s = request_deadline;
      }
    in
    let faults_r =
      match faults_spec with
      | None -> Ok (Dp_engine.Faults.of_env ())
      | Some spec -> Dp_engine.Faults.parse spec
    in
    match faults_r with
    | Error msg -> `Error (false, "bad --faults: " ^ msg)
    | Ok _ when workers < 1 ->
        `Error (false, "--workers must be at least 1")
    | Ok faults when workers > 1 -> (
        match (tcp, journal) with
        | None, _ ->
            `Error
              (false,
               "--workers needs --tcp: the pool coordinator owns the \
                listener")
        | _, None ->
            `Error
              (false,
               "--workers needs --journal: shard journals back lease \
                reclamation")
        | Some port, Some journal -> (
            let cfg =
              {
                (Dp_pool.Pool.default_config ~workers ~port ~journal) with
                Dp_pool.Pool.seed;
                net = net port;
                metrics = metrics_path;
                faults;
              }
            in
            match Dp_pool.Pool.run cfg with 0 -> `Ok () | n -> exit n))
    | Ok faults -> (
        let eng = Dp_engine.Engine.create ~seed ~faults () in
        let write_metrics () =
          match metrics_path with
          | None -> `Ok ()
          | Some path -> (
              match open_out path with
              | oc ->
                  List.iter
                    (fun l ->
                      output_string oc l;
                      output_char oc '\n')
                    (Dp_engine.Engine.metrics_lines eng);
                  close_out oc;
                  `Ok ()
              | exception Sys_error msg ->
                  `Error (false, "cannot write metrics: " ^ msg))
        in
        let recovered =
          match journal with
          | None -> Ok None
          | Some path ->
              Result.map Option.some (Dp_engine.Engine.open_journal eng path)
        in
        match recovered with
        | Error msg -> `Error (false, "journal recovery failed: " ^ msg)
        | Ok r ->
            Format.printf "dpkit %s DP query engine — 'help' lists commands@."
              Dp_engine.Version.current;
            (match r with
            | None -> ()
            | Some r ->
                Format.printf
                  "journal %s: replayed %d records (%d datasets, %d charges, \
                   %d cached answers, %d models, %d streams), truncated %d \
                   torn bytes, %s@."
                  r.Dp_engine.Engine.journal_path r.Dp_engine.Engine.records
                  r.Dp_engine.Engine.datasets r.Dp_engine.Engine.charges
                  r.Dp_engine.Engine.cache_entries
                  r.Dp_engine.Engine.models_recovered
                  r.Dp_engine.Engine.streams_recovered
                  r.Dp_engine.Engine.torn_bytes
                  (if r.Dp_engine.Engine.verified then "audit-verified"
                   else "UNVERIFIED"));
            let serve_stdio () =
              match Dp_engine.Protocol.serve eng stdin stdout with
              | () -> write_metrics ()
              | exception Dp_engine.Faults.Crash p ->
                  flush stdout;
                  Printf.eprintf "dpkit: injected crash at %s\n%!"
                    (Dp_engine.Faults.point_name p);
                  exit 70
            in
            let serve_tcp port =
              match Dp_net.Server.create ~config:(net port) eng with
              | Error msg -> `Error (false, "cannot listen: " ^ msg)
              | Ok srv -> (
                  (* a flag flip is all a handler may do; the signal
                     ends the loop's wait and the turn sees the flag *)
                  let stop _ = Dp_net.Server.request_stop srv in
                  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
                  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
                  (* a peer closing mid-write must be EPIPE, not death *)
                  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
                  Format.printf "listening port=%d@." (Dp_net.Server.port srv);
                  match Dp_net.Server.run srv with
                  | () ->
                      Format.printf "drained@.";
                      write_metrics ()
                  | exception Dp_engine.Faults.Crash p ->
                      Printf.eprintf "dpkit: injected crash at %s\n%!"
                        (Dp_engine.Faults.point_name p);
                      exit 70)
            in
            let outcome =
              match tcp with
              | None -> serve_stdio ()
              | Some port -> serve_tcp port
            in
            Dp_engine.Engine.close eng;
            outcome)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve differentially-private queries over a line protocol on \
          stdin/stdout, or over TCP with --tcp.")
    Term.(
      ret
        (const run $ seed_arg $ journal_arg $ faults_arg $ metrics_arg
       $ tcp_arg $ max_conns_arg $ max_inflight_arg $ idle_timeout_arg
       $ request_deadline_arg $ workers_arg))

let pool_cmd =
  let action_arg =
    let doc = "$(b,replay): merge the shard journals and grant WAL \
               offline and print the recovered global ledger." in
    Arg.(value & pos 0 string "replay" & info [] ~docv:"ACTION" ~doc)
  in
  let journal_arg =
    let doc = "Journal base path the pool served with (shards at \
               $(docv).shard<k>, grants at $(docv).grants)." in
    Arg.(
      required & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let workers_arg =
    let doc = "Worker count the pool served with." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let run seed action journal workers =
    match action with
    | "replay" -> (
        if workers < 1 then `Error (false, "--workers must be at least 1")
        else
          match Dp_pool.Pool.merge_lines ~seed ~journal ~workers () with
          | Error msg -> `Error (false, msg)
          | Ok (lines, ok) ->
              List.iter print_endline lines;
              if ok then `Ok () else exit 1)
    | other -> `Error (false, Printf.sprintf "unknown pool action %S" other)
  in
  Cmd.v
    (Cmd.info "pool"
       ~doc:
         "Inspect a worker pool's on-disk state: 'replay' merges the \
          shard journals with the grant WAL into the recovered global \
          ledger — bit-identical to the report a restarting coordinator \
          prints — and exits 1 if the lease invariant is violated.")
    Term.(ret (const run $ seed_arg $ action_arg $ journal_arg $ workers_arg))

let client_cmd =
  let port_arg =
    let doc = "Server port (required)." in
    Arg.(required & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let host_arg =
    let doc = "Server host." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let attempts_arg =
    let doc = "Attempts per request before giving up." in
    Arg.(value & opt int 8 & info [ "attempts" ] ~docv:"N" ~doc)
  in
  let backoff_arg =
    let doc = "Backoff base in seconds (doubled per attempt, full jitter)." in
    Arg.(value & opt float 0.05 & info [ "backoff" ] ~docv:"S" ~doc)
  in
  let cap_arg =
    let doc = "Backoff cap in seconds." in
    Arg.(value & opt float 2.0 & info [ "backoff-cap" ] ~docv:"S" ~doc)
  in
  let timeout_arg =
    let doc = "Reply timeout in seconds (a timed-out reply is retried)." in
    Arg.(value & opt float 10. & info [ "timeout" ] ~docv:"S" ~doc)
  in
  let jitter_seed_arg =
    let doc =
      "Seed for the backoff jitter stream (default: derived from the PID; \
       fix it for reproducible retry schedules in tests)."
    in
    Arg.(value & opt (some int) None & info [ "jitter-seed" ] ~docv:"SEED" ~doc)
  in
  let run host port attempts backoff cap timeout jitter_seed =
    let jitter =
      let seed =
        match jitter_seed with
        | Some s -> s
        | None -> Unix.getpid () lxor int_of_float (Unix.gettimeofday () *. 1e6)
      in
      Some (Dp_rng.Prng.create seed)
    in
    let cfg =
      {
        Dp_net.Client.host;
        port;
        attempts;
        backoff_s = backoff;
        cap_s = cap;
        reply_timeout_s = timeout;
        jitter;
      }
    in
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    exit (Dp_net.Client.run cfg stdin stdout)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Send request lines from stdin to a dpkit TCP server, retrying \
          transient and overloaded replies with capped jittered backoff.")
    Term.(
      const run $ host_arg $ port_arg $ attempts_arg $ backoff_arg $ cap_arg
      $ timeout_arg $ jitter_seed_arg)

(* lint and flow share the exemption-file convention: --exempt wins,
   else DIR/lint.exempt when present. *)
let load_exempt exempt_path dir =
  match exempt_path with
  | Some p -> Dp_lint.Config.load p
  | None ->
      let p = Filename.concat dir "lint.exempt" in
      if Sys.file_exists p then Dp_lint.Config.load p
      else Ok Dp_lint.Config.empty

(* lint findings are reported relative to the linted root; flow
   findings over the same root come back root-prefixed — rebase them
   so the two merge cleanly. *)
let rebase_flow_finding ~dir (f : Dp_lint.Report.finding) =
  let strip path =
    let prefix = if dir = "." then "" else dir ^ "/" in
    let n = String.length prefix in
    if n > 0 && String.length path > n && String.sub path 0 n = prefix then
      String.sub path n (String.length path - n)
    else path
  in
  {
    f with
    Dp_lint.Report.file = strip f.Dp_lint.Report.file;
    witness =
      List.map
        (fun (s : Dp_lint.Report.step) ->
          { s with Dp_lint.Report.s_file = strip s.Dp_lint.Report.s_file })
        f.Dp_lint.Report.witness;
  }

let lint_cmd =
  let dir_arg =
    let doc =
      "Directory to lint. It must be the repository root: rules are scoped \
       by path segments relative to DIR (R3 to $(b,lib/), R4-R7 to \
       directories such as $(b,engine/), $(b,mechanism/) or $(b,net/)), so \
       linting a subdirectory such as lib/net silently skips them."
    in
    Arg.(value & pos 0 dir "." & info [] ~docv:"DIR" ~doc)
  in
  let format_arg =
    let doc = "Output format: $(b,text) (FILE:LINE, editor-clickable) or \
               $(b,json) (one object per line)." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let exempt_arg =
    let doc =
      "Exemption file ('RULE PATH-FRAGMENT' per line). Defaults to \
       DIR/lint.exempt when present."
    in
    Arg.(value & opt (some file) None & info [ "exempt" ] ~docv:"FILE" ~doc)
  in
  let rules_arg =
    let doc = "List the rules and exit." in
    Arg.(value & flag & info [ "rules" ] ~doc)
  in
  let flow_arg =
    let doc =
      "Also run the interprocedural flow analyzer's charge-before-release \
       (F2) and RNG-provenance (F3) checks over the same tree (see \
       $(b,dpkit flow)), minus anything accepted in DIR/flow.baseline."
    in
    Arg.(value & flag & info [ "flow" ] ~doc)
  in
  let run dir format exempt_path rules flow =
    if rules then begin
      List.iter
        (fun (id, summary) -> Format.printf "%-4s %s@." id summary)
        Dp_lint.Rules.all;
      if flow then
        List.iter
          (fun (id, summary) -> Format.printf "%-4s %s@." id summary)
          Dp_flow.Flow.checks;
      `Ok ()
    end
    else
      match load_exempt exempt_path dir with
      | Error msg -> `Error (false, "bad exemption file: " ^ msg)
      | Ok exempt ->
          let lexical = Dp_lint.Driver.lint_dir ~exempt dir in
          let findings =
            if not flow then lexical
            else
              (* flow's whole suppression stack applies: inline allows
                 and --exempt via analyze, plus the tree's
                 accepted-findings baseline when present *)
              let baseline =
                Dp_flow.Baseline.load (Filename.concat dir "flow.baseline")
              in
              let flow_findings =
                List.filter
                  (fun (f : Dp_lint.Report.finding) ->
                    List.mem f.Dp_lint.Report.rule [ "F2"; "F3" ])
                  (Dp_flow.Baseline.filter baseline
                     (Dp_flow.Flow.analyze ~exempt [ dir ])
                       .Dp_flow.Flow.findings)
                |> List.map (rebase_flow_finding ~dir)
              in
              List.sort Dp_lint.Report.compare_findings
                (lexical @ flow_findings)
          in
          let pp =
            match format with
            | `Text -> Dp_lint.Report.pp_text
            | `Json -> Dp_lint.Report.pp_json
          in
          List.iter (Format.printf "%a@." pp) findings;
          if findings = [] then `Ok ()
          else begin
            Format.printf "%d finding%s@." (List.length findings)
              (if List.length findings = 1 then "" else "s");
            exit 1
          end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Check the source tree against the privacy-invariant rules \
          (R1, R3-R7); exit 1 on any finding.")
    Term.(
      ret
        (const run $ dir_arg $ format_arg $ exempt_arg $ rules_arg $ flow_arg))

let flow_cmd =
  let paths_arg =
    let doc = "Files or directories to analyze (every .ml underneath)." in
    Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)
  in
  let format_arg =
    let doc =
      "Output format: $(b,text) (FILE:LINE:COL plus witness path), \
       $(b,json) (one object per line) or $(b,sarif) (SARIF 2.1.0 \
       document)."
    in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ])
          `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let baseline_arg =
    let doc =
      "Baseline file of accepted findings; matching findings are \
       reported as baselined and do not fail the run."
    in
    Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let write_baseline_arg =
    let doc = "Write the current findings to FILE as the new baseline." in
    Arg.(
      value
      & opt (some string) None
      & info [ "write-baseline" ] ~docv:"FILE" ~doc)
  in
  let exempt_arg =
    let doc =
      "Exemption file ('RULE PATH-FRAGMENT' per line). Defaults to \
       ./lint.exempt when present."
    in
    Arg.(value & opt (some file) None & info [ "exempt" ] ~docv:"FILE" ~doc)
  in
  let rules_arg =
    let doc = "List the flow checks and exit." in
    Arg.(value & flag & info [ "rules" ] ~doc)
  in
  let run paths format baseline_path write_baseline exempt_path rules =
    if rules then begin
      List.iter
        (fun (id, summary) -> Format.printf "%-4s %s@." id summary)
        Dp_flow.Flow.checks;
      `Ok ()
    end
    else if paths = [] then `Error (true, "required argument PATH is missing")
    else
      match List.filter (fun p -> not (Sys.file_exists p)) paths with
      | missing :: _ ->
          `Error (true, Printf.sprintf "no such file or directory: %s" missing)
      | [] -> (
      match load_exempt exempt_path "." with
      | Error msg -> `Error (false, "bad exemption file: " ^ msg)
      | Ok exempt -> (
          let result = Dp_flow.Flow.analyze ~exempt paths in
          List.iter
            (fun e -> Format.eprintf "flow: %s@." e)
            result.Dp_flow.Flow.errors;
          let baseline =
            match baseline_path with
            | Some p -> Dp_flow.Baseline.load p
            | None -> []
          in
          let fresh =
            Dp_flow.Baseline.filter baseline result.Dp_flow.Flow.findings
          in
          let baselined =
            List.length result.Dp_flow.Flow.findings - List.length fresh
          in
          match write_baseline with
          | Some path ->
              let oc = open_out path in
              output_string oc
                (Dp_flow.Baseline.to_string result.Dp_flow.Flow.findings);
              close_out oc;
              Format.printf "wrote %d finding%s to %s@."
                (List.length result.Dp_flow.Flow.findings)
                (if List.length result.Dp_flow.Flow.findings = 1 then ""
                 else "s")
                path;
              `Ok ()
          | None ->
              (match format with
              | `Sarif -> print_string (Dp_flow.Sarif.render fresh)
              | `Text | `Json ->
                  let pp =
                    match format with
                    | `Text -> Dp_lint.Report.pp_text
                    | _ -> Dp_lint.Report.pp_json
                  in
                  List.iter (Format.printf "%a@." pp) fresh;
                  if fresh <> [] || baselined > 0 then
                    Format.printf "%d finding%s (%d baselined, %d files)@."
                      (List.length fresh)
                      (if List.length fresh = 1 then "" else "s")
                      baselined result.Dp_flow.Flow.files);
              if fresh = [] && result.Dp_flow.Flow.errors = [] then `Ok ()
              else exit 1))
  in
  Cmd.v
    (Cmd.info "flow"
       ~doc:
         "Interprocedural privacy-dataflow analysis: F1 row taint, F2 \
          charge-before-release, F3 RNG provenance. Exits 1 on any \
          non-baselined finding or parse error.")
    Term.(
      ret
        (const run $ paths_arg $ format_arg $ baseline_arg
       $ write_baseline_arg $ exempt_arg $ rules_arg))

(* 4.14-compatible whole-file read (no In_channel.input_lines). *)
let read_file path =
  match open_in_bin path with
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Ok s
  | exception Sys_error msg -> Error msg

let stats_cmd =
  let file_arg =
    let doc =
      "Metrics dump written by $(b,dpkit serve --metrics FILE). The \
       protocol's 'metrics' reply body also parses (indentation is \
       ignored) once the 'ok metrics' header line is dropped."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let format_arg =
    let doc =
      "Output format: $(b,text) (per-scope summary with latency \
       quantiles) or $(b,json) (one machine-readable document)."
    in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let check_arg =
    let doc =
      "Verify the closed-label invariant: every metric, span and tag name \
       in the dump must come from the Dp_obs.Name catalogue; exit 1 \
       otherwise."
    in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let bad_names entries =
    let check_entry = function
      | Dp_obs.Export.Counter { name; _ } ->
          if Dp_obs.Name.is_counter_name name then [] else [ name ]
      | Dp_obs.Export.Gauge { name; _ } ->
          if Dp_obs.Name.is_gauge_name name then [] else [ name ]
      | Dp_obs.Export.Latency { name; _ } ->
          if Dp_obs.Name.is_latency_name name then [] else [ name ]
      | Dp_obs.Export.Span { name; tags; _ } ->
          (if Dp_obs.Name.is_span_name name then [] else [ name ])
          @ List.filter_map
              (fun (k, _) ->
                if Dp_obs.Name.is_tag_name k then None else Some k)
              tags
    in
    List.concat_map check_entry entries
  in
  let run file format check =
    match read_file file with
    | Error msg -> `Error (false, msg)
    | Ok text -> (
        match Dp_obs.Export.parse (String.split_on_char '\n' text) with
        | Error msg -> `Error (false, file ^ ": " ^ msg)
        | Ok entries -> (
            match bad_names entries with
            | bad :: _ when check ->
                Format.printf "closed-label violation: %S is not in the \
                               Dp_obs.Name catalogue@."
                  bad;
                exit 1
            | _ ->
                (match format with
                | `Text ->
                    List.iter
                      (Format.printf "%s@.")
                      (Dp_obs.Export.pretty entries)
                | `Json -> Format.printf "%s@." (Dp_obs.Export.to_json entries));
                `Ok ()))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Render a dpkit metrics dump: counters, gauges, latency-histogram \
          quantiles and spans, as text or JSON.")
    Term.(ret (const run $ file_arg $ format_arg $ check_arg))

let analyze_cmd =
  let schema_arg =
    let doc =
      "Dataset schema file: a 'dataset NAME rows=N eps=E ...' line \
       (register-command options) followed by 'column NAME lo=L hi=H' lines."
    in
    Arg.(
      required & opt (some file) None & info [ "schema" ] ~docv:"FILE" ~doc)
  in
  let workload_arg =
    let doc =
      "Workload file: one query per line ('mean(income) eps=0.2'), '#' \
       comments allowed."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"WORKLOAD" ~doc)
  in
  let strict_arg =
    let doc = "Exit with status 1 when the verdict is FAIL." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let run schema_path workload_path strict =
    let result =
      let ( let* ) = Result.bind in
      let* schema_text = read_file schema_path in
      let* workload_text = read_file workload_path in
      let* schema =
        Result.map_error
          (Printf.sprintf "%s: %s" schema_path)
          (Dp_engine.Analyzer.parse_schema schema_text)
      in
      let* items =
        Result.map_error
          (Printf.sprintf "%s: %s" workload_path)
          (Dp_engine.Analyzer.parse_workload workload_text)
      in
      Dp_engine.Analyzer.analyze schema items
    in
    match result with
    | Error msg -> `Error (false, msg)
    | Ok report ->
        Format.printf "%a" Dp_engine.Analyzer.pp_report report;
        if strict && not report.Dp_engine.Analyzer.pass then exit 1;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Statically cost a query workload against a dataset schema — \
          per-query charges and composed totals, with no data access and \
          no sampling.")
    Term.(ret (const run $ schema_arg $ workload_arg $ strict_arg))

let query_cmd =
  let exprs_arg =
    let doc =
      "Queries to answer in order, e.g. 'count', 'mean(income)', \
       'histogram(age,8)'. A query may carry options after a space: \
       'mean(income) eps=0.2 analyst=alice'."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"EXPR" ~doc)
  in
  let rows_arg =
    let doc = "Rows of the ad-hoc synthetic dataset." in
    Arg.(value & opt int 1000 & info [ "rows" ] ~docv:"N" ~doc)
  in
  let total_arg =
    let doc = "Total privacy budget epsilon of the dataset." in
    Arg.(value & opt float 1.0 & info [ "budget" ] ~docv:"EPS" ~doc)
  in
  let delta_arg =
    let doc = "Total privacy budget delta." in
    Arg.(value & opt float 0. & info [ "delta" ] ~docv:"DELTA" ~doc)
  in
  let backend_arg =
    let doc = "Composition backend: basic | advanced | rdp." in
    Arg.(value & opt string "basic" & info [ "backend" ] ~docv:"B" ~doc)
  in
  let default_eps_arg =
    let doc = "Per-query epsilon when a query names none." in
    Arg.(value & opt float 0.1 & info [ "query-eps" ] ~docv:"EPS" ~doc)
  in
  let run seed rows budget delta backend default_eps exprs =
    let eng = Dp_engine.Engine.create ~seed () in
    let print_all lines = List.iter (Format.printf "%s@.") lines in
    let register =
      Printf.sprintf
        "register adhoc rows=%d eps=%g delta=%g backend=%s default-eps=%g"
        rows budget delta backend default_eps
    in
    let lines = Dp_engine.Protocol.exec eng register in
    print_all lines;
    match lines with
    | line :: _ when String.length line >= 3 && String.sub line 0 3 = "err" ->
        `Error (false, "registration failed")
    | _ ->
        List.iter
          (fun expr ->
            print_all (Dp_engine.Protocol.exec eng ("query adhoc " ^ expr)))
          exprs;
        print_all (Dp_engine.Protocol.exec eng "report adhoc");
        `Ok ()
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Answer one-shot DP queries against an ad-hoc synthetic dataset and \
          print the budget/leakage report.")
    Term.(
      ret
        (const run $ seed_arg $ rows_arg $ total_arg $ delta_arg $ backend_arg
       $ default_eps_arg $ exprs_arg))

let certify_cmd =
  let face_arg =
    let doc =
      "What to certify: a query ('count(age>40)', 'sum(income)', \
       'histogram(age,8)', 'quantile(income,0.5)'), $(b,train) for the \
       Gibbs-posterior train face, $(b,stream) for the tree-mechanism \
       continual-counter append face, or $(b,compare) with PRE and POST \
       sample files for the crash-recovery comparison."
    in
    Arg.(value & pos 0 string "sum(income)" & info [] ~docv:"FACE" ~doc)
  in
  let pre_arg =
    let doc =
      "Pre-restart sample file, one released value per line ('compare' \
       only; written by --samples-out)."
    in
    Arg.(value & pos 1 (some file) None & info [] ~docv:"PRE" ~doc)
  in
  let post_arg =
    let doc = "Post-restart sample file ('compare' only)." in
    Arg.(value & pos 2 (some file) None & info [] ~docv:"POST" ~doc)
  in
  let trials_arg =
    let doc = "Mechanism runs per side of the neighbour pair." in
    Arg.(value & opt int 2000 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let time_budget_arg =
    let doc =
      "Size the run by wall-clock instead of --trials: a short pilot \
       measures the per-trial cost, then the trial count is set to \
       fill $(docv) seconds (clamped to [500, 200000]). Lets a CI \
       soak slot run as many trials as it can afford."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "time-budget" ] ~docv:"SECS" ~doc)
  in
  let alpha_arg =
    let doc =
      "Test size: a truly (eps, delta)-DP face fails with probability \
       at most $(docv)."
    in
    Arg.(value & opt float 0.05 & info [ "alpha" ] ~docv:"A" ~doc)
  in
  let rows_arg =
    let doc = "Rows of the synthetic neighbour pair." in
    Arg.(value & opt int 64 & info [ "rows" ] ~docv:"N" ~doc)
  in
  let rdp_arg =
    let doc =
      "Use the rdp backend: the count face runs the discrete Gaussian \
       and the claim becomes its RDP-converted (eps, $(docv))."
    in
    Arg.(value & opt (some float) None & info [ "rdp" ] ~docv:"DELTA" ~doc)
  in
  let break_arg =
    let doc =
      "Deliberate-breakage hook (testing only): $(b,half-scale) runs \
       the mechanism at half the claimed noise scale, which the testers \
       must flag."
    in
    Arg.(value & opt (some string) None & info [ "break" ] ~docv:"HOOK" ~doc)
  in
  let via_arg =
    let doc =
      "$(b,tcp): certify a live 'dpkit serve --tcp' process through the \
       retrying client instead of the in-process planner."
    in
    Arg.(value & opt (some string) None & info [ "via" ] ~docv:"HOW" ~doc)
  in
  let host_arg =
    let doc = "Server host (--via tcp)." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let port_arg =
    let doc = "Server port (--via tcp)." in
    Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let samples_out_arg =
    let doc =
      "Also write the first side's released values to $(docv), one per \
       line — input for 'certify compare'."
    in
    Arg.(
      value & opt (some string) None & info [ "samples-out" ] ~docv:"FILE" ~doc)
  in
  let read_samples path =
    match read_file path with
    | Error msg -> Error msg
    | Ok text -> (
        match
          List.filter_map
            (fun l ->
              let l = String.trim l in
              if l = "" then None
              else
                match float_of_string_opt l with
                | Some v -> Some v
                | None -> raise Exit)
            (String.split_on_char '\n' text)
        with
        | vs -> Ok (Array.of_list vs)
        | exception Exit ->
            Error (path ^ ": expected one released value per line"))
  in
  let run seed epsilon trials time_budget alpha rows rdp break_ via host port
      samples_out face pre post =
    let fail msg = `Error (false, msg) in
    match String.lowercase_ascii face with
    | "compare" -> (
        match (pre, post) with
        | Some pre_path, Some post_path -> (
            match (read_samples pre_path, read_samples post_path) with
            | Error msg, _ | _, Error msg -> fail msg
            | Ok pre, Ok post ->
                let r =
                  Dp_certify.Certify.recovery_check ~alpha ~pre ~post ()
                in
                Format.printf "%s@." (Dp_certify.Certify.recovery_line r);
                if r.Dp_certify.Certify.recovery_ok then `Ok () else exit 1)
        | _ -> fail "certify compare needs PRE and POST sample files")
    | _ -> (
        let break_r =
          match break_ with
          | None -> Ok `None
          | Some "half-scale" -> Ok `Half_scale
          | Some other -> Error (Printf.sprintf "unknown --break %S" other)
        in
        match break_r with
        | Error msg -> fail msg
        | Ok break_ -> (
            let source_r =
              match via with
              | Some "tcp" -> (
                  match port with
                  | None -> Error "--via tcp needs --port"
                  | Some port ->
                      if break_ <> `None then
                        Error
                          "--break applies to in-process faces only (break \
                           a live server by arming --faults on it)"
                      else
                        Dp_certify.Via_tcp.source ~rows ~host ~port
                          ~query:face ~eps:epsilon ())
              | Some other -> Error (Printf.sprintf "unknown --via %S" other)
              | None ->
                  let plain =
                    match String.lowercase_ascii face with
                    | "train" ->
                        Dp_certify.Certify.gibbs_source ~rows ~break_ ~seed
                          ~eps:epsilon ()
                    | "stream" ->
                        Dp_certify.Certify.stream_source ~break_ ~eps:epsilon
                          ()
                    | _ -> (
                        match Dp_engine.Query.parse face with
                        | Error msg -> Error msg
                        | Ok q ->
                            let backend =
                              match rdp with
                              | None -> `Basic
                              | Some d -> `Rdp d
                            in
                            Dp_certify.Certify.of_query ~rows ~backend
                              ~break_ ~seed ~eps:epsilon q)
                  in
                  Result.map (fun s -> (s, fun () -> ())) plain
            in
            match source_r with
            | Error msg -> fail msg
            | Ok (source, close) -> (
                match
                  let g = Dp_rng.Prng.create seed in
                  let trials =
                    match time_budget with
                    | None -> trials
                    | Some secs ->
                        (* adaptive sizing: a pilot on its own generator
                           measures the per-trial cost, then the run is
                           scaled to fill the slot *)
                        let pilot = 200 in
                        let gp = Dp_rng.Prng.create (seed lxor 0x54494d45) in
                        let t0 = Unix.gettimeofday () in
                        ignore
                          (Dp_certify.Certify.collect ~trials:pilot source gp);
                        let per =
                          (Unix.gettimeofday () -. t0)
                          /. float_of_int pilot
                        in
                        let n =
                          if per > 0. then int_of_float (secs /. per)
                          else 200_000
                        in
                        let n = max 500 (min 200_000 n) in
                        Printf.printf
                          "certify: time budget %gs -> %d trials \
                           (%.4gms/trial)\n\
                           %!"
                          secs n (1e3 *. per);
                        n
                  in
                  let s = Dp_certify.Certify.collect ~trials source g in
                  (s, Dp_certify.Certify.analyze ~alpha source s)
                with
                | exception Dp_certify.Certify.Draw_failed msg ->
                    close ();
                    fail ("draw failed: " ^ msg)
                | exception Invalid_argument msg ->
                    close ();
                    fail msg
                | s, report -> (
                    close ();
                    let wrote =
                      match samples_out with
                      | None -> Ok ()
                      | Some path -> (
                          match open_out path with
                          | oc ->
                              Array.iter
                                (fun v -> Printf.fprintf oc "%.17g\n" v)
                                s.Dp_certify.Certify.a;
                              close_out oc;
                              Ok ()
                          | exception Sys_error msg -> Error msg)
                    in
                    match wrote with
                    | Error msg -> fail ("cannot write samples: " ^ msg)
                    | Ok () ->
                        Format.printf "%s@."
                          (Dp_certify.Certify.verdict_line report);
                        if report.Dp_certify.Certify.ok then `Ok ()
                        else exit 1))))
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Statistically certify the claimed differential privacy of a query \
          or train face — per-outcome likelihood-ratio, KS, model-fit and \
          loss-tail tests on a canonical neighbour pair — in process or \
          against a live TCP server; exits 1 on 'err certify-failed'.")
    Term.(
      ret
        (const run $ seed_arg $ epsilon_arg $ trials_arg $ time_budget_arg
       $ alpha_arg $ rows_arg $ rdp_arg $ break_arg $ via_arg $ host_arg
       $ port_arg $ samples_out_arg $ face_arg $ pre_arg $ post_arg))

let () =
  let doc = "reproduction toolkit for 'Differentially-private Learning and Information Theory' (PAIS/EDBT 2012)" in
  let info = Cmd.info "dpkit" ~version:Dp_engine.Version.current ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd; experiment_cmd; audit_cmd; channel_cmd; serve_cmd;
            client_cmd; query_cmd; analyze_cmd; certify_cmd; lint_cmd;
            flow_cmd; stats_cmd; pool_cmd;
          ]))
