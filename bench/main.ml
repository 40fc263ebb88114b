(* Benchmark harness.

   Two parts, both run by default:
   1. The experiment tables (E1..E12, A2..A4) — the rows DESIGN.md maps
      to the paper's claims; `--quick` shrinks trial counts.
   2. Bechamel micro-benchmarks of the performance-critical kernels,
      including ablation A1 (alias-table vs Gumbel-max vs linear-scan
      sampling for the exponential mechanism).

   3. Serving-engine throughput: queries/sec through the full
      plan → ledger → mechanism → cache path, cached vs uncached.

   4. Serving-phase latency breakdown: plan/noise/journal/total
      histograms from the engine's own observability layer, printed and
      written into the --json file as a "phases" section.

   Usage: main.exe [--quick] [--tables-only | --bench-only]
                   [--json FILE] [--overhead] [--net] [--train] [--stream]

   --json FILE writes the micro-benchmark estimates plus the phase
   breakdown as JSON (schema in bench/README.md), so successive PRs can
   record a perf trajectory.

   --overhead runs only the instrumentation overhead gate: engine
   submit throughput with observability enabled must stay within 5% of
   the same engine with it disabled; exits 1 otherwise (CI leg).

   --train runs only the served-learning bench: MCMC step throughput,
   convergence-gate overhead and prediction throughput through the full
   charge → journal → chains → gate → handle path, emitted as "phases"
   rows into --json.

   --stream runs only the continual-observation bench: append
   throughput through the full journaled tree-counter path
   (prepare → journal frame → commit) and prefix/window release
   throughput, emitted as "phases" rows into --json. *)

open Bechamel
open Toolkit

let sampler_tests () =
  (* A1: exponential-mechanism sampling strategies across range sizes. *)
  let make_case k =
    let g = Dp_rng.Prng.create 1 in
    let qualities = Array.init k (fun i -> Float.abs (sin (float_of_int i))) in
    let m =
      Dp_mechanism.Exponential.create ~candidates:(Array.init k Fun.id)
        ~quality:(fun i -> qualities.(i))
        ~sensitivity:1. ~epsilon:2. ()
    in
    let alias_draw = Dp_mechanism.Exponential.sampler m g in
    let probs = Dp_mechanism.Exponential.probabilities m in
    let lw = Dp_mechanism.Exponential.log_probabilities m in
    [
      Test.make
        ~name:(Printf.sprintf "A1 alias k=%d" k)
        (Staged.stage (fun () -> ignore (alias_draw ())));
      Test.make
        ~name:(Printf.sprintf "A1 gumbel k=%d" k)
        (Staged.stage (fun () ->
             ignore (Dp_rng.Sampler.categorical_log ~log_weights:lw g)));
      Test.make
        ~name:(Printf.sprintf "A1 linear-scan k=%d" k)
        (Staged.stage (fun () -> ignore (Dp_rng.Sampler.categorical ~probs g)));
    ]
  in
  List.concat_map make_case [ 16; 256; 4096 ]

let kernel_tests () =
  let g = Dp_rng.Prng.create 2 in
  let lap = Dp_mechanism.Laplace.create ~sensitivity:1. ~epsilon:1. in
  let risks = Array.init 256 (fun i -> Float.abs (cos (float_of_int i))) in
  let sample =
    Array.init 200 (fun _ ->
        let y = if Dp_rng.Prng.bool g then 1. else -1. in
        (Dp_rng.Sampler.gaussian ~mean:(y *. 0.8) ~std:1. g, y))
  in
  let zero_one theta (x, y) =
    if (if x >= theta then 1. else -1.) = y then 0. else 1.
  in
  let grid = Array.init 64 (fun i -> -3.2 +. (0.1 *. float_of_int i)) in
  let gc =
    Dp_pac_bayes.Gibbs_channel.build ~universe_probs:[| 0.5; 0.5 |] ~n:6
      ~predictors:[| 0; 1 |] ~beta:4.
      ~loss:(fun j z -> if j = z then 0. else 1.)
      ()
  in
  let logistic_data =
    Dp_dataset.Dataset.clip_rows_l2 ~radius:1.
      (Dp_dataset.Synthetic.logistic_model
         ~theta:[| 1.; -1.; 1.; -1.; 1. |]
         ~n:100 g)
  in
  let clipped_risk theta =
    Dp_math.Numeric.float_sum_range 100 (fun i ->
        let x, y = Dp_dataset.Dataset.row logistic_data i in
        Dp_learn.Loss_fn.clip Dp_learn.Loss_fn.logistic ~theta ~x ~y)
    /. 100.
  in
  [
    Test.make ~name:"laplace release"
      (Staged.stage (fun () ->
           ignore (Dp_mechanism.Laplace.release lap ~value:3. g)));
    Test.make ~name:"gibbs fit (k=256)"
      (Staged.stage (fun () ->
           ignore
             (Dp_pac_bayes.Gibbs.of_risks
                ~predictors:(Array.init 256 Fun.id)
                ~beta:10. ~risks ())));
    Test.make ~name:"empirical risks (n=200, k=64)"
      (Staged.stage (fun () ->
           ignore (Dp_pac_bayes.Risk.empirical_all ~loss:zero_one sample grid)));
    Test.make ~name:"catoni bound"
      (Staged.stage (fun () ->
           ignore
             (Dp_pac_bayes.Bounds.catoni ~beta:20. ~n:200 ~delta:0.05
                ~emp_risk:0.2 ~kl:1.5)));
    Test.make ~name:"seeger bound (kl inverse)"
      (Staged.stage (fun () ->
           ignore
             (Dp_pac_bayes.Bounds.seeger ~n:200 ~delta:0.05 ~emp_risk:0.2
                ~kl:1.5)));
    Test.make ~name:"channel mutual information (64x2)"
      (Staged.stage (fun () ->
           ignore (Dp_pac_bayes.Gibbs_channel.mutual_information gc)));
    Test.make ~name:"clipped logistic risk (n=100, d=5)"
      (Staged.stage (fun () ->
           ignore (clipped_risk [| 0.1; 0.2; -0.1; 0.3; 0. |])));
  ]

(* E16 companion: the cost of one private regression draw, exact
   conjugate sampling vs a fresh MCMC chain. *)
let regression_draw_tests () =
  let g = Dp_rng.Prng.create 3 in
  let data =
    Dp_dataset.Dataset.map_labels
      (Dp_math.Numeric.clamp ~lo:(-1.) ~hi:1.)
      (Dp_dataset.Synthetic.linear_regression ~theta:[| 0.5; -0.3 |]
         ~noise_std:0.1 ~n:200 g)
  in
  let conj = Dp_pac_bayes.Gaussian_gibbs.fit ~beta:50. ~radius:2. data in
  [
    Test.make ~name:"conjugate gibbs draw (n=200, d=2)"
      (Staged.stage (fun () ->
           ignore (Dp_pac_bayes.Gaussian_gibbs.sample conj g)));
    Test.make ~name:"mcmc gibbs draw (n=200, d=2, 500 burn-in)"
      (Staged.stage (fun () ->
           ignore
             (Dp_learn.Ridge.fit_gibbs
                ~mcmc_config:
                  { Dp_pac_bayes.Mcmc.step_std = 0.2; burn_in = 500; thin = 1 }
                ~epsilon:1. ~radius:2. data g)));
  ]

(* Serving-engine throughput. A huge budget and a tiny per-query
   epsilon keep the ledger from exhausting mid-benchmark; the audit log
   is off so memory stays flat over millions of requests. *)
let engine_tests () =
  let make ~cache =
    let eng = Dp_engine.Engine.create ~seed:11 ~audit:false () in
    let policy =
      {
        (Dp_engine.Registry.default_policy
           ~total:(Dp_mechanism.Privacy.pure 1e12))
        with
        Dp_engine.Registry.cache;
        default_epsilon = 1e-4;
      }
    in
    (match
       Dp_engine.Engine.register_synthetic eng ~name:"bench" ~rows:4096 ~policy
     with
    | Ok _ -> ()
    | Error msg -> failwith msg);
    eng
  in
  let uncached = make ~cache:false and cached = make ~cache:true in
  let submit eng expr =
    match Dp_engine.Engine.submit_text eng ~dataset:"bench" expr with
    | Ok r -> ignore r.Dp_engine.Engine.answer
    | Error e -> failwith (Format.asprintf "%a" Dp_engine.Engine.pp_error e)
  in
  (* prime the cache so the cached case measures pure hits *)
  submit cached "count(income>50000)";
  submit cached "histogram(age,64)";
  [
    Test.make ~name:"engine count (uncached)"
      (Staged.stage (fun () -> submit uncached "count(income>50000)"));
    Test.make ~name:"engine count (cached)"
      (Staged.stage (fun () -> submit cached "count(income>50000)"));
    Test.make ~name:"engine mean (uncached)"
      (Staged.stage (fun () -> submit uncached "mean(income)"));
    Test.make ~name:"engine histogram k=64 (uncached)"
      (Staged.stage (fun () -> submit uncached "histogram(age,64)"));
    Test.make ~name:"engine histogram k=64 (cached)"
      (Staged.stage (fun () -> submit cached "histogram(age,64)"));
  ]

(* Durability overhead: the same serving path with the write-ahead
   journal attached (every fresh release pays an fsync), plus the cost
   of recovering an engine from a journal of a few hundred charges. *)
let durability_tests () =
  let journaled =
    let eng = Dp_engine.Engine.create ~seed:11 ~audit:false () in
    let path = Filename.temp_file "dpkit_bench" ".wal" in
    at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
    (match Dp_engine.Engine.open_journal eng path with
    | Ok _ -> ()
    | Error msg -> failwith msg);
    let policy =
      {
        (Dp_engine.Registry.default_policy
           ~total:(Dp_mechanism.Privacy.pure 1e12))
        with
        Dp_engine.Registry.default_epsilon = 1e-4;
        cache = false;
      }
    in
    (match
       Dp_engine.Engine.register_synthetic eng ~name:"bench" ~rows:4096 ~policy
     with
    | Ok _ -> ()
    | Error msg -> failwith msg);
    eng
  in
  let submit eng expr =
    match Dp_engine.Engine.submit_text eng ~dataset:"bench" expr with
    | Ok r -> ignore r.Dp_engine.Engine.answer
    | Error e -> failwith (Format.asprintf "%a" Dp_engine.Engine.pp_error e)
  in
  let recovery_path =
    let path = Filename.temp_file "dpkit_bench_rec" ".wal" in
    at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
    let eng = Dp_engine.Engine.create ~seed:12 ~audit:false () in
    (match Dp_engine.Engine.open_journal eng path with
    | Ok _ -> ()
    | Error msg -> failwith msg);
    let policy =
      {
        (Dp_engine.Registry.default_policy
           ~total:(Dp_mechanism.Privacy.pure 1e12))
        with
        Dp_engine.Registry.default_epsilon = 1e-4;
      }
    in
    (match
       Dp_engine.Engine.register_synthetic eng ~name:"bench" ~rows:512 ~policy
     with
    | Ok _ -> ()
    | Error msg -> failwith msg);
    for i = 0 to 499 do
      submit eng (Printf.sprintf "count(age>%d)" (18 + (i mod 60)))
    done;
    Dp_engine.Engine.close eng;
    path
  in
  [
    Test.make ~name:"engine count (journaled, fsync/query)"
      (Staged.stage (fun () -> submit journaled "count(income>50000)"));
    Test.make ~name:"engine recovery (500-charge journal)"
      (Staged.stage (fun () ->
           let eng = Dp_engine.Engine.create ~seed:12 ~audit:false () in
           (match Dp_engine.Engine.open_journal eng recovery_path with
           | Ok r -> ignore r.Dp_engine.Engine.charges
           | Error msg -> failwith msg);
           Dp_engine.Engine.close eng));
  ]

(* Per-phase latency breakdown, measured by the engine's own
   observability layer: run a journaled, uncached workload and read the
   plan/noise/journal-append/submit histograms back out of the metric
   registry. One row per phase: count, mean, p50/p90/p99 (log2-bucket
   quantile estimates, so within 2x). *)
let phase_rows () =
  let eng = Dp_engine.Engine.create ~seed:13 ~audit:false () in
  let path = Filename.temp_file "dpkit_bench_phases" ".wal" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  (match Dp_engine.Engine.open_journal eng path with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  let policy =
    {
      (Dp_engine.Registry.default_policy
         ~total:(Dp_mechanism.Privacy.pure 1e12))
      with
      Dp_engine.Registry.default_epsilon = 1e-4;
      cache = false;
    }
  in
  (match
     Dp_engine.Engine.register_synthetic eng ~name:"bench" ~rows:4096 ~policy
   with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  for i = 0 to 499 do
    match
      Dp_engine.Engine.submit_text eng ~dataset:"bench"
        (Printf.sprintf "count(age>%d)" (18 + (i mod 60)))
    with
    | Ok _ -> ()
    | Error e -> failwith (Format.asprintf "%a" Dp_engine.Engine.pp_error e)
  done;
  let scope = Dp_obs.Metrics.dataset (Dp_engine.Engine.metrics eng) "bench" in
  let global = Dp_obs.Metrics.global (Dp_engine.Engine.metrics eng) in
  let row name sc latency =
    let h = Dp_obs.Metrics.latency sc latency in
    ( name,
      Dp_obs.Histo.count h,
      Dp_obs.Histo.mean h,
      Dp_obs.Histo.quantile h 0.5,
      Dp_obs.Histo.quantile h 0.9,
      Dp_obs.Histo.quantile h 0.99 )
  in
  let rows =
    [
      row "plan" scope Dp_obs.Name.Plan_ns;
      row "noise" scope Dp_obs.Name.Noise_ns;
      row "journal" global Dp_obs.Name.Journal_append_ns;
      row "total" scope Dp_obs.Name.Submit_ns;
    ]
  in
  Dp_engine.Engine.close eng;
  rows

let print_phases phases =
  Format.printf "@.== serving-phase latency (500 journaled count queries) ==@.";
  List.iter
    (fun (name, count, mean, p50, p90, p99) ->
      Format.printf "%-10s count=%d mean=%.0fns p50=%.0fns p90=%.0fns p99=%.0fns@."
        name count mean p50 p90 p99)
    phases

let write_json file rows phases =
  let oc = open_out file in
  output_string oc "{\"benchmarks\":[";
  List.iteri
    (fun i (name, t) ->
      if i > 0 then output_string oc ",";
      Printf.fprintf oc "\n  {\"name\": %S, \"ns_per_run\": %.3f}" name t)
    rows;
  output_string oc "\n],\n\"phases\":[";
  List.iteri
    (fun i (name, count, mean, p50, p90, p99) ->
      if i > 0 then output_string oc ",";
      Printf.fprintf oc
        "\n  {\"name\": %S, \"count\": %d, \"mean_ns\": %.3f, \"p50_ns\": %.1f, \
         \"p90_ns\": %.1f, \"p99_ns\": %.1f}"
        name count mean p50 p90 p99)
    phases;
  output_string oc "\n]}\n";
  close_out oc;
  Format.printf "wrote %d benchmark estimates and %d phase rows to %s@."
    (List.length rows) (List.length phases) file

let run_benchmarks json =
  let tests =
    Test.make_grouped ~name:"dp"
      (sampler_tests () @ kernel_tests () @ regression_draw_tests ()
      @ engine_tests () @ durability_tests ())
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name v acc ->
        match Analyze.OLS.estimates v with
        | Some [ t ] -> (name, t) :: acc
        | _ -> acc)
      results []
  in
  let rows = List.sort compare rows in
  Format.printf "@.== micro-benchmarks (ns/run, OLS on monotonic clock) ==@.";
  List.iter (fun (name, t) -> Format.printf "%-45s %12.1f@." name t) rows;
  let phases = phase_rows () in
  print_phases phases;
  Option.iter (fun file -> write_json file rows phases) json

(* Instrumentation overhead gate (CI). The instrumented path adds four
   spans, four histogram records and three tags per submit, none of
   which allocates; [count] is answered by rank on the column's
   synopsis, so an uncached submit takes a few microseconds and that
   work must stay inside 5% of it. Min-of-batches medians keep the
   measurement out of scheduler noise; the whole comparison retries so
   one noisy trial cannot fail the gate. *)
let overhead_gate () =
  let batch = 400 and batches = 7 in
  let run_one obs =
    let eng = Dp_engine.Engine.create ~seed:11 ~audit:false ~obs () in
    let policy =
      {
        (Dp_engine.Registry.default_policy
           ~total:(Dp_mechanism.Privacy.pure 1e12))
        with
        Dp_engine.Registry.default_epsilon = 1e-4;
        cache = false;
      }
    in
    (match
       Dp_engine.Engine.register_synthetic eng ~name:"bench" ~rows:16384 ~policy
     with
    | Ok _ -> ()
    | Error msg -> failwith msg);
    let submit () =
      match Dp_engine.Engine.submit_text eng ~dataset:"bench" "count(age>40)" with
      | Ok _ -> ()
      | Error e -> failwith (Format.asprintf "%a" Dp_engine.Engine.pp_error e)
    in
    for _ = 1 to batch do submit () done;
    (* warm-up *)
    let best = ref infinity in
    for _ = 1 to batches do
      let t0 = Unix.gettimeofday () in
      for _ = 1 to batch do submit () done;
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best /. float_of_int batch
  in
  let trial () =
    let bare = run_one false in
    let inst = run_one true in
    inst /. bare
  in
  let ratio = List.fold_left min (trial ()) [ trial (); trial () ] in
  Format.printf
    "instrumentation overhead gate: best ratio %.4f (instrumented / bare, \
     limit 1.05)@."
    ratio;
  if ratio > 1.05 then begin
    Format.printf "FAIL: instrumentation overhead exceeds 5%%@.";
    exit 1
  end
  else Format.printf "PASS@."

(* TCP round-trip throughput: the full client-socket -> select loop ->
   Protocol.exec -> reply-frame path, cached vs uncached, against the
   in-process engine numbers above. One persistent connection, requests
   in lockstep, so this measures per-request frontend overhead rather
   than concurrency. *)
let net_bench () =
  let eng = Dp_engine.Engine.create ~seed:11 ~audit:false () in
  let policy =
    {
      (Dp_engine.Registry.default_policy
         ~total:(Dp_mechanism.Privacy.pure 1e12))
      with
      Dp_engine.Registry.default_epsilon = 1e-4;
    }
  in
  (match
     Dp_engine.Engine.register_synthetic eng ~name:"bench" ~rows:4096 ~policy
   with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  let srv =
    match Dp_net.Server.create eng with
    | Ok s -> s
    | Error msg -> failwith msg
  in
  let server_thread = Thread.create (fun () -> Dp_net.Server.run srv) () in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, Dp_net.Server.port srv));
  let ic = Unix.in_channel_of_descr fd
  and oc = Unix.out_channel_of_descr fd in
  let roundtrip line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    let rec drain () = if input_line ic <> "" then drain () in
    drain ()
  in
  let rate n f =
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      f i
    done;
    float_of_int n /. (Unix.gettimeofday () -. t0)
  in
  roundtrip "query bench count(age>40)";
  (* warm-up; primes the cached case *)
  let hit = rate 2000 (fun _ -> roundtrip "query bench count(age>40)") in
  let miss =
    rate 2000 (fun i ->
        roundtrip (Printf.sprintf "query bench count(income>%d)" i))
  in
  Format.printf "@.== TCP round-trip throughput (1 conn, lockstep) ==@.";
  Format.printf "net query (cache=hit)  %10.0f req/s@." hit;
  Format.printf "net query (cache=miss) %10.0f req/s@." miss;
  Dp_net.Server.request_stop srv;
  Thread.join server_thread;
  Unix.close fd;
  Dp_engine.Engine.close eng

(* Served-learning bench (--train): the full train pipeline — charge,
   journal, chains, gate, handle — timed by phase from the engine's own
   histograms, plus end-to-end MCMC step and prediction throughput.
   Emits the same "phases" JSON rows as the serving bench so CI can
   trend both from one schema. *)
let train_bench json =
  let eng = Dp_engine.Engine.create ~seed:17 ~audit:false () in
  let path = Filename.temp_file "dpkit_bench_train" ".wal" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  (match Dp_engine.Engine.open_journal eng path with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  let policy =
    Dp_engine.Registry.default_policy ~total:(Dp_mechanism.Privacy.pure 1e12)
  in
  (match
     Dp_engine.Engine.register_synthetic eng ~name:"bench" ~rows:512 ~policy
   with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  let params opts =
    match Dp_train.Train.params_of_opts ~default_epsilon:0.1 opts with
    | Ok p -> p
    | Error e -> failwith e
  in
  let steps = 1000 and trains = 3 in
  let gibbs =
    params
      [
        ("eps", Some "0.2"); ("steps", Some (string_of_int steps));
        ("burn", Some (string_of_int steps));
      ]
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun _ ->
      match Dp_engine.Engine.train eng ~dataset:"bench" gibbs with
      | Ok _ | Error (Dp_engine.Engine.Unconverged _) -> ()
      | Error e -> failwith (Format.asprintf "%a" Dp_engine.Engine.pp_error e))
    (List.init trains Fun.id);
  let train_dt = Unix.gettimeofday () -. t0 in
  let iters = trains * gibbs.Dp_train.Train.chains * 2 * steps in
  (* objective perturbation always releases, so its handle anchors the
     prediction loop *)
  (match
     Dp_engine.Engine.train eng ~dataset:"bench"
       (params [ ("backend", Some "objpert") ])
   with
  | Ok _ -> ()
  | Error e -> failwith (Format.asprintf "%a" Dp_engine.Engine.pp_error e));
  let handle = Printf.sprintf "bench/m%d" (trains + 1) in
  let npred = 50_000 in
  let point = [| 40.; 50_000. |] in
  let p0 = Unix.gettimeofday () in
  for _ = 1 to npred do
    match Dp_engine.Engine.predict eng handle point with
    | Ok _ -> ()
    | Error e -> failwith (Format.asprintf "%a" Dp_engine.Engine.pp_error e)
  done;
  let pred_dt = Unix.gettimeofday () -. p0 in
  let scope = Dp_obs.Metrics.dataset (Dp_engine.Engine.metrics eng) "bench" in
  let row name latency =
    let h = Dp_obs.Metrics.latency scope latency in
    ( name,
      Dp_obs.Histo.count h,
      Dp_obs.Histo.mean h,
      Dp_obs.Histo.quantile h 0.5,
      Dp_obs.Histo.quantile h 0.9,
      Dp_obs.Histo.quantile h 0.99 )
  in
  let phases =
    [
      row "train" Dp_obs.Name.Train_ns;
      row "gate" Dp_obs.Name.Gate_ns;
      row "predict" Dp_obs.Name.Predict_ns;
    ]
  in
  Format.printf "== served learning (%d gibbs trains, %d rows) ==@." trains 512;
  Format.printf "mcmc steps     %10.0f steps/s@."
    (float_of_int iters /. train_dt);
  Format.printf "predict        %10.0f req/s@." (float_of_int npred /. pred_dt);
  List.iter
    (fun (name, count, mean, p50, p90, p99) ->
      Format.printf
        "%-10s count=%d mean=%.0fns p50=%.0fns p90=%.0fns p99=%.0fns@." name
        count mean p50 p90 p99)
    phases;
  Option.iter (fun file -> write_json file [] phases) json;
  Dp_engine.Engine.close eng

(* Continual-observation bench (--stream): append throughput through
   the full journaled tree-counter path — noise draw on closing nodes,
   Stream_append frame fsync'd, then commit — plus prefix and
   sliding-window release throughput (pure post-processing, no
   journal), with the engine's own append/read latency histograms
   emitted as "phases" JSON rows. *)
let stream_bench json =
  let eng = Dp_engine.Engine.create ~seed:19 ~audit:false () in
  let path = Filename.temp_file "dpkit_bench_stream" ".wal" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  (match Dp_engine.Engine.open_journal eng path with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  let policy =
    Dp_engine.Registry.default_policy ~total:(Dp_mechanism.Privacy.pure 1e12)
  in
  (match
     Dp_engine.Engine.register_synthetic eng ~name:"bench" ~rows:512 ~policy
   with
  | Ok _ -> ()
  | Error msg -> failwith msg);
  let die e = failwith (Format.asprintf "%a" Dp_engine.Engine.pp_error e) in
  let handle =
    match
      Dp_engine.Engine.stream_open eng ~dataset:"bench"
        { Dp_stream.Stream.epsilon = 0.1; horizon = 32_768; window = 256 }
    with
    | Ok o -> o.Dp_engine.Engine.stream.Dp_stream.Stream_store.handle
    | Error e -> die e
  in
  let rate n f =
    let t0 = Unix.gettimeofday () in
    for i = 0 to n - 1 do
      f i
    done;
    float_of_int n /. (Unix.gettimeofday () -. t0)
  in
  let nappend = 20_000 and nread = 50_000 in
  let appends =
    rate nappend (fun i ->
        match Dp_engine.Engine.append eng handle (i land 1) with
        | Ok _ -> ()
        | Error e -> die e)
  in
  let reads =
    rate nread (fun _ ->
        match Dp_engine.Engine.stream_read eng handle with
        | Ok _ -> ()
        | Error e -> die e)
  in
  let windows =
    rate nread (fun _ ->
        match Dp_engine.Engine.stream_window eng handle () with
        | Ok _ -> ()
        | Error e -> die e)
  in
  let scope = Dp_obs.Metrics.dataset (Dp_engine.Engine.metrics eng) "bench" in
  let row name latency =
    let h = Dp_obs.Metrics.latency scope latency in
    ( name,
      Dp_obs.Histo.count h,
      Dp_obs.Histo.mean h,
      Dp_obs.Histo.quantile h 0.5,
      Dp_obs.Histo.quantile h 0.9,
      Dp_obs.Histo.quantile h 0.99 )
  in
  let phases =
    [ row "append" Dp_obs.Name.Append_ns; row "stream-read" Dp_obs.Name.Stream_read_ns ]
  in
  Format.printf "== continual observation (journaled, %d appends) ==@." nappend;
  Format.printf "append         %10.0f appends/s@." appends;
  Format.printf "prefix read    %10.0f reads/s@." reads;
  Format.printf "window read    %10.0f reads/s@." windows;
  List.iter
    (fun (name, count, mean, p50, p90, p99) ->
      Format.printf
        "%-10s count=%d mean=%.0fns p50=%.0fns p90=%.0fns p99=%.0fns@." name
        count mean p50 p90 p99)
    phases;
  Option.iter (fun file -> write_json file [] phases) json;
  Dp_engine.Engine.close eng

(* Worker-pool throughput (--pool): req/s through the coordinator →
   fd-pass → worker → lease-gate → reply path at N=1, 2 and 4 workers,
   over 4 concurrent lockstep connections so N>1 can actually overlap
   noise draws and journal fsyncs. N=1 is the single-process fast path
   `dpkit serve` dispatches to, so the N=1 row is the pool's baseline,
   not a pool with one worker. Each serving process is forked (its own
   journal in a temp dir) and TERM-drained after the measurement. *)
let pool_bench json =
  let nconc = 4 and nreq = 2000 in
  let bench_n workers =
    let dir = Filename.temp_file "dpkit_bench_pool" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o700;
    let cleanup () =
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    in
    at_exit cleanup;
    let journal = Filename.concat dir "bench.wal" in
    let spawn port =
      let rd, wr = Unix.pipe () in
      let pid = Unix.fork () in
      if pid = 0 then begin
        Unix.close rd;
        Unix.dup2 wr Unix.stdout;
        Unix.close wr;
        if workers = 1 then begin
          let eng = Dp_engine.Engine.create ~seed:29 ~audit:false () in
          (match Dp_engine.Engine.open_journal eng journal with
          | Ok _ -> ()
          | Error msg ->
              prerr_endline msg;
              exit 1);
          let config = { Dp_net.Server.default_config with port } in
          match Dp_net.Server.create ~config eng with
          | Error _ -> exit 1
          | Ok srv ->
              Printf.printf "listening port=%d workers=1\n%!"
                (Dp_net.Server.port srv);
              Sys.set_signal Sys.sigterm
                (Sys.Signal_handle (fun _ -> Dp_net.Server.request_stop srv));
              Dp_net.Server.run srv;
              Dp_engine.Engine.close eng;
              exit 0
        end
        else
          exit
            (Dp_pool.Pool.run
               {
                 (Dp_pool.Pool.default_config ~workers ~port ~journal) with
                 Dp_pool.Pool.seed = 29;
               })
      end;
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      match
        let rec banner () =
          let line = input_line ic in
          if String.length line < 9 || String.sub line 0 9 <> "listening" then
            banner ()
        in
        banner ()
      with
      | () -> Some (pid, rd)
      | exception End_of_file ->
          (* bind lost the port race; reap and let the caller retry *)
          Unix.close rd;
          ignore (Unix.waitpid [] pid);
          None
    in
    let base = 25800 + (Unix.getpid () mod 1500) in
    let rec start try_ =
      if try_ >= 5 then failwith "pool bench: no bindable port"
      else
        match spawn (base + (workers * 7) + try_) with
        | Some (pid, rd) -> (pid, rd, base + (workers * 7) + try_)
        | None -> start (try_ + 1)
    in
    let pid, rd, port = start 0 in
    let connect () =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
    in
    let roundtrip ic oc line =
      output_string oc line;
      output_char oc '\n';
      flush oc;
      let rec drain () = if input_line ic <> "" then drain () in
      drain ()
    in
    (* register once; the coordinator broadcasts it to every shard *)
    let fd0, ic0, oc0 = connect () in
    roundtrip ic0 oc0 "register bench rows=4096 eps=1000000 default-eps=0.0001";
    Unix.close fd0;
    let conns = Array.init nconc (fun _ -> connect ()) in
    let per = nreq / nconc in
    let work k () =
      let _, ic, oc = conns.(k) in
      for i = 0 to per - 1 do
        (* distinct thresholds: every answer is a fresh lease-gated draw *)
        roundtrip ic oc
          (Printf.sprintf "query bench count(income>%d)" ((k * per) + i))
      done
    in
    (* warm-up outside the clock: leases granted, caches keyed *)
    Array.iteri
      (fun k (_, ic, oc) ->
        roundtrip ic oc (Printf.sprintf "query bench count(age>%d)" k))
      conns;
    let t0 = Unix.gettimeofday () in
    let threads = Array.init nconc (fun k -> Thread.create (work k) ()) in
    Array.iter Thread.join threads;
    let dt = Unix.gettimeofday () -. t0 in
    Array.iter (fun (fd, _, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
    Unix.kill pid Sys.sigterm;
    ignore (Unix.waitpid [] pid);
    Unix.close rd;
    cleanup ();
    float_of_int nreq /. dt
  in
  Format.printf "== worker-pool throughput (%d conns, %d fresh queries) ==@."
    nconc nreq;
  let rows =
    List.map
      (fun workers ->
        let rate = bench_n workers in
        Format.printf "pool serve N=%d  %10.0f req/s@." workers rate;
        (Printf.sprintf "pool serve N=%d" workers, 1e9 /. rate))
      [ 1; 2; 4 ]
  in
  Option.iter (fun file -> write_json file rows []) json

let rec json_arg = function
  | "--json" :: file :: _ -> Some file
  | _ :: rest -> json_arg rest
  | [] -> None

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  let tables_only = List.mem "--tables-only" argv in
  let bench_only = List.mem "--bench-only" argv in
  if List.mem "--overhead" argv then overhead_gate ()
  else if List.mem "--net" argv then net_bench ()
  else if List.mem "--train" argv then train_bench (json_arg argv)
  else if List.mem "--stream" argv then stream_bench (json_arg argv)
  else if List.mem "--pool" argv then pool_bench (json_arg argv)
  else begin
    if not bench_only then
      Dp_experiments.Registry.run_all ~quick ~seed:20120330 Format.std_formatter;
    if not tables_only then run_benchmarks (json_arg argv);
    Format.printf "@.done.@."
  end
