open Dp_mechanism

type answer = Scalar of float | Vector of float array

type mechanism = Laplace | Geometric | Exponential | Discrete_gaussian

let mechanism_name = function
  | Laplace -> "laplace"
  | Geometric -> "geometric"
  | Exponential -> "exponential"
  | Discrete_gaussian -> "discrete-gaussian"

type spec = {
  query : Query.t;
  mechanism : mechanism;
  sensitivity : float;
  epsilon : float;
  charge : Ledger.charge;
}

type plan = { spec : spec; run : Dp_rng.Prng.t -> answer }

let rdp_delta (s : Registry.schema) =
  match s.policy.backend with Ledger.Rdp { delta } -> Some delta | _ -> None

(* Classical Gaussian calibration: sigma achieving (eps, delta) for the
   given L2 sensitivity; the charge is then re-derived through the RDP
   conversion, which only tightens it. *)
let gaussian_sigma ~l2 ~epsilon ~delta =
  l2 *. sqrt (2. *. log (1.25 /. delta)) /. epsilon

(* ------------------------------------------------------------------ *)
(* Static half: mechanism selection and pricing. Everything below is a
   function of the schema and the query alone — no column data, no
   sampling — so the same code prices a live release and a purely
   static `dpkit analyze` pass, bit-identically. *)

(* An integer release with sensitivity [isens]: geometric under
   basic/advanced composition, discrete Gaussian under RDP. *)
let integer_spec s ~epsilon ~isens =
  match rdp_delta s with
  | None -> (Geometric, { Ledger.budget = Privacy.pure epsilon; rdp = None })
  | Some delta ->
      let sigma = gaussian_sigma ~l2:(float_of_int isens) ~epsilon ~delta in
      let m = Discrete_gaussian.create ~sensitivity:isens ~sigma in
      ( Discrete_gaussian,
        {
          Ledger.budget = Discrete_gaussian.budget m ~delta;
          rdp = Some (Discrete_gaussian.rdp m);
        } )

(* A nonnegative-count vector release with L1 sensitivity 2 (one record
   moves between two cells; L2 sensitivity sqrt 2 for the Gaussian
   path). *)
let cell_spec s ~epsilon =
  match rdp_delta s with
  | None ->
      ( Laplace,
        {
          Ledger.budget = Privacy.pure epsilon;
          rdp = Some (Rdp.laplace ~sensitivity:1. ~epsilon);
        } )
  | Some delta ->
      let l2 = sqrt 2. in
      let sigma = gaussian_sigma ~l2 ~epsilon ~delta in
      let curve = Rdp.gaussian ~l2_sensitivity:l2 ~std:sigma in
      ( Discrete_gaussian,
        { Ledger.budget = Rdp.to_dp ~delta curve; rdp = Some curve } )

let laplace_charge ~epsilon =
  {
    Ledger.budget = Privacy.pure epsilon;
    rdp = Some (Rdp.laplace ~sensitivity:1. ~epsilon);
  }

let spec (s : Registry.schema) ~epsilon query =
  if (not (Float.is_finite epsilon)) || epsilon <= 0. then
    Error (Printf.sprintf "epsilon must be positive and finite, got %g" epsilon)
  else
    let with_column name k =
      match Registry.schema_column s name with
      | Some c -> k c
      | None ->
          Error
            (Printf.sprintf "unknown column %S in dataset %S (have: %s)" name
               s.name
               (String.concat ", "
                  (Array.to_list
                     (Array.map
                        (fun (c : Registry.col_schema) -> c.col)
                        s.cols))))
    in
    match query with
    | Query.Count pred ->
        let build () =
          let mechanism, charge = integer_spec s ~epsilon ~isens:1 in
          Ok
            {
              query;
              mechanism;
              sensitivity = Sensitivity.count ();
              epsilon;
              charge;
            }
        in
        (match pred with
        | None -> build ()
        | Some { threshold; _ } when not (Float.is_finite threshold) ->
            Error (Printf.sprintf "count threshold must be finite, got %g" threshold)
        | Some { column; _ } -> with_column column (fun _ -> build ()))
    | Query.Sum { column } ->
        with_column column (fun c ->
            Ok
              {
                query;
                mechanism = Laplace;
                sensitivity = Sensitivity.bounded_sum ~lo:c.lo ~hi:c.hi;
                epsilon;
                charge = laplace_charge ~epsilon;
              })
    | Query.Mean { column } ->
        with_column column (fun c ->
            Ok
              {
                query;
                mechanism = Laplace;
                sensitivity =
                  Sensitivity.bounded_mean ~lo:c.lo ~hi:c.hi ~n:s.rows;
                epsilon;
                charge = laplace_charge ~epsilon;
              })
    | Query.Histogram { column; bins } ->
        if bins <= 0 then Error "histogram needs a positive bin count"
        else
          with_column column (fun _ ->
              let mechanism, charge = cell_spec s ~epsilon in
              Ok
                {
                  query;
                  mechanism;
                  sensitivity = Sensitivity.histogram ();
                  epsilon;
                  charge;
                })
    | Query.Quantile { q; _ } when not (q >= 0. && q <= 1.) ->
        Error (Printf.sprintf "quantile q must be in [0, 1], got %g" q)
    | Query.Quantile { column; _ } ->
        with_column column (fun _ ->
            Ok
              {
                query;
                mechanism = Exponential;
                sensitivity = 1.;
                epsilon;
                charge = { Ledger.budget = Privacy.pure epsilon; rdp = None };
              })
    | Query.Cdf { column; points } ->
        if Array.length points = 0 then Error "cdf needs at least one point"
        else if not (Array.for_all Float.is_finite points) then
          Error "cdf points must be finite"
        else
          with_column column (fun _ ->
              let mechanism, charge = cell_spec s ~epsilon in
              Ok
                {
                  query;
                  mechanism;
                  sensitivity = Sensitivity.histogram ();
                  epsilon;
                  charge;
                })

(* ------------------------------------------------------------------ *)
(* Dynamic half: attach a fresh-noise closure to a priced spec. This is
   the only place that touches column values, and it re-derives each
   mechanism from the same (epsilon, policy) facts the spec was priced
   from, so the closure can never drift from the charge. *)

let integer_run s ~epsilon ~isens ~value =
  match rdp_delta s with
  | None ->
      let m = Geometric_mech.create ~sensitivity:isens ~epsilon in
      fun g -> Scalar (float_of_int (Geometric_mech.release m ~value g))
  | Some delta ->
      let sigma = gaussian_sigma ~l2:(float_of_int isens) ~epsilon ~delta in
      let m = Discrete_gaussian.create ~sensitivity:isens ~sigma in
      fun g -> Scalar (float_of_int (Discrete_gaussian.release m ~value g))

(* per-cell noising is the mechanism itself (the discrete-gaussian arm
   adds noise with a bare +.), so the flow analyzer treats this closure
   factory as a declared sanitizer *)
let[@dp.sanitizer] cell_run s ~epsilon (counts : float array) =
  match rdp_delta s with
  | None ->
      let lap = Laplace.create ~sensitivity:(Sensitivity.histogram ()) ~epsilon in
      fun g -> Laplace.release_vector lap ~value:counts g
  | Some delta ->
      let sigma = gaussian_sigma ~l2:(sqrt 2.) ~epsilon ~delta in
      fun g ->
        Array.map
          (fun c -> c +. float_of_int (Discrete_gaussian.sample_noise ~sigma g))
          counts

let runner (ds : Registry.dataset) (sp : spec) =
  let s = Registry.schema_of ds in
  let epsilon = sp.epsilon in
  let col name =
    (* spec already validated the column, so this cannot fail *)
    match Registry.column ds name with
    | Some c -> c
    | None -> invalid_arg ("Planner.runner: missing column " ^ name)
  in
  (* every face reads the column only through its sorted order or its
     sum: it is answered from the column's synopsis *)
  let synopsis name = Registry.synopsis ds (col name) in
  match sp.query with
  | Query.Count pred ->
      let value =
        match pred with
        | None -> ds.rows
        | Some { column; op; threshold } ->
            Synopsis.count (synopsis column) op threshold
      in
      integer_run s ~epsilon ~isens:1 ~value
  | Query.Sum { column } ->
      let lap = Laplace.create ~sensitivity:sp.sensitivity ~epsilon in
      let value = (synopsis column).sum in
      fun g -> Scalar (Laplace.release lap ~value g)
  | Query.Mean { column } ->
      let lap = Laplace.create ~sensitivity:sp.sensitivity ~epsilon in
      let value = Synopsis.mean (synopsis column) in
      fun g -> Scalar (Laplace.release lap ~value g)
  | Query.Histogram { column; bins } ->
      let noisy = cell_run s ~epsilon (Synopsis.histogram (synopsis column) ~bins) in
      fun g ->
        (* clamping at zero is post-processing *)
        Vector (Array.map (Float.max 0.) (noisy g))
  | Query.Quantile { column; q } ->
      let sy = synopsis column in
      fun g ->
        Scalar
          (Dp_learn.Quantile.estimate_sorted ~epsilon ~q ~lo:sy.lo ~hi:sy.hi
             sy.sorted g)
  | Query.Cdf { column; points } ->
      let sy = synopsis column in
      (* Cell counts between consecutive thresholds; noising the cells
         (L1 sensitivity 2) and post-processing a running sum beats
         noising the k cumulative counts directly. *)
      let n = ds.rows in
      let k = Array.length points in
      let cum = Array.map (Synopsis.rank_le sy) points in
      let cells =
        Array.init (k + 1) (fun i ->
            let prev = if i = 0 then 0 else cum.(i - 1) in
            let next = if i = k then n else cum.(i) in
            float_of_int (next - prev))
      in
      let noisy = cell_run s ~epsilon cells in
      fun g ->
        let noisy_cells = noisy g in
        let fn = float_of_int n in
        let acc = ref 0. and best = ref 0. in
        Vector
          (Array.init k (fun i ->
               acc := !acc +. Float.max 0. noisy_cells.(i);
               let v = Dp_math.Numeric.clamp ~lo:0. ~hi:1. (!acc /. fn) in
               best := Float.max !best v;
               !best))

let plan (ds : Registry.dataset) ~epsilon query =
  match spec (Registry.schema_of ds) ~epsilon query with
  | Error _ as e -> e
  | Ok sp -> Ok { spec = sp; run = runner ds sp }
