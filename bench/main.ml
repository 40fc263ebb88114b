(* Kernel and serving-phase benchmarks.

   The default run times the performance-critical kernels with
   bechamel: ablation A1 (alias-table vs Gumbel-max vs linear-scan
   sampling for the exponential mechanism), the mechanisms, the
   PAC-Bayes bounds, and engine submit through the full plan → ledger →
   mechanism → cache path, cached vs uncached and journaled. It then
   reads a serving-phase latency breakdown (plan/noise/journal/total
   histograms) out of the engine's own observability layer.

   Usage: main.exe [--json FILE] [--overhead | --train]

   --json FILE writes the micro-benchmark estimates plus the phase
   breakdown as JSON (schema in bench/README.md).

   --overhead runs only the instrumentation overhead gate: the CPU time
   of engine submits with observability enabled must stay within 5% of
   the same engine with it disabled; exits 1 otherwise (CI leg).

   --train runs only the served-learning bench: MCMC step throughput,
   convergence-gate overhead and prediction throughput through the full
   charge → journal → chains → gate → handle path, emitted as "phases"
   rows into --json.

   The experiment tables are `dpkit experiment all [--quick]`; serving
   throughput against a live server, with every reply checked, is
   servebench (`sh servebench/run.sh`). *)

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

(* One phase row from an engine latency histogram: count, mean,
   p50/p90/p99 (log2-bucket quantile estimates, so within 2x). *)
let phase_row scope name latency =
  let h = Dp_obs.Metrics.latency scope latency in
  ( name,
    Dp_obs.Histo.count h,
    Dp_obs.Histo.mean h,
    Dp_obs.Histo.quantile h 0.5,
    Dp_obs.Histo.quantile h 0.9,
    Dp_obs.Histo.quantile h 0.99 )

let print_phase_rows =
  List.iter (fun (name, count, mean, p50, p90, p99) ->
      Format.printf "%-10s count=%d mean=%.0fns p50=%.0fns p90=%.0fns p99=%.0fns@."
        name count mean p50 p90 p99)

(* Per-phase latency breakdown, measured by the engine's own
   observability layer: run a journaled, uncached workload and read the
   plan/noise/journal-append/submit histograms back out of the metric
   registry. *)
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
  let rows =
    [
      phase_row scope "plan" Dp_obs.Name.Plan_ns;
      phase_row scope "noise" Dp_obs.Name.Noise_ns;
      phase_row global "journal" Dp_obs.Name.Journal_append_ns;
      phase_row scope "total" Dp_obs.Name.Submit_ns;
    ]
  in
  Dp_engine.Engine.close eng;
  rows

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
  Format.printf "@.== serving-phase latency (500 journaled count queries) ==@.";
  print_phase_rows phases;
  Option.iter (fun file -> write_json file rows phases) json

(* Instrumentation overhead gate (CI). The instrumented path adds four
   spans, four histogram records and three tags per submit, none of
   which allocates; [count] is answered by rank on the column's
   synopsis, so an uncached submit takes a few microseconds and that
   work must stay inside 5% of it. Both engines are built and warmed
   first, then their batches alternate, so a change in the machine's
   speed during the run lands on both sides alike. Each batch is timed
   in process CPU time (user + sys), which time spent descheduled does
   not inflate, and each side keeps its fastest batch. A trial still
   reads high now and then (1.15 in one run of ten on a shared 2-vCPU
   VM), so the gate takes the best of three trials, each with fresh
   engines. *)
let overhead_gate () =
  let batch = 400 and rounds = 21 in
  let engine obs =
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
    submit
  in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let time submit best =
    let t0 = cpu () in
    for _ = 1 to batch do submit () done;
    best := Float.min !best (cpu () -. t0)
  in
  let trial () =
    let bare = engine false and inst = engine true in
    let best_bare = ref infinity and best_inst = ref infinity in
    for round = 1 to rounds do
      if round mod 2 = 0 then (time bare best_bare; time inst best_inst)
      else (time inst best_inst; time bare best_bare)
    done;
    !best_inst /. !best_bare
  in
  let ratio = List.fold_left min (trial ()) [ trial (); trial () ] in
  Format.printf
    "instrumentation overhead gate: best ratio %.4f (instrumented / bare, \
     fastest of %d alternating %d-submit batches each, CPU time, best of 3 \
     trials; limit 1.05)@."
    ratio rounds batch;
  if ratio > 1.05 then begin
    Format.printf "FAIL: instrumentation overhead exceeds 5%%@.";
    exit 1
  end
  else Format.printf "PASS@."

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
  let phases =
    [
      phase_row scope "train" Dp_obs.Name.Train_ns;
      phase_row scope "gate" Dp_obs.Name.Gate_ns;
      phase_row scope "predict" Dp_obs.Name.Predict_ns;
    ]
  in
  Format.printf "== served learning (%d gibbs trains, %d rows) ==@." trains 512;
  Format.printf "mcmc steps     %10.0f steps/s@."
    (float_of_int iters /. train_dt);
  Format.printf "predict        %10.0f req/s@." (float_of_int npred /. pred_dt);
  print_phase_rows phases;
  Option.iter (fun file -> write_json file [] phases) json;
  Dp_engine.Engine.close eng

let usage () =
  prerr_endline "usage: main.exe [--json FILE] [--overhead | --train]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec json_arg acc = function
    | [] -> acc
    | "--json" :: file :: rest -> json_arg (Some file) rest
    | ("--overhead" | "--train") :: rest -> json_arg acc rest
    | _ -> usage ()
  in
  let json = json_arg None args in
  if List.mem "--overhead" args then overhead_gate ()
  else if List.mem "--train" args then train_bench json
  else run_benchmarks json
