open Dp_mechanism

type column = { name : string; values : float array; lo : float; hi : float }

type policy = {
  total : Privacy.budget;
  backend : Ledger.backend;
  default_epsilon : float;
  analyst_epsilon : float option;
  universe : int;
  cache : bool;
  low_water : float;
}

let default_policy ~total =
  {
    total;
    backend = Ledger.Basic;
    default_epsilon = 0.1;
    analyst_epsilon = None;
    universe = 64;
    cache = true;
    low_water = 0.;
  }

type synopses = Synopsis.t Lazy.t array

type dataset = {
  name : string;
  columns : column array;
  rows : int;
  policy : policy;
  synopses : synopses;
}

let neighbor_flip name =
  match String.rindex_opt name '~' with
  | None -> None
  | Some i when i = 0 -> None
  | Some i ->
      let suffix = String.sub name (i + 1) (String.length name - i - 1) in
      if String.length suffix > 4 && String.sub suffix 0 4 = "flip" then
        match
          int_of_string_opt (String.sub suffix 4 (String.length suffix - 4))
        with
        | Some row when row >= 0 -> Some (String.sub name 0 i, row)
        | _ -> None
      else None

(* one rule a line: every bound the ledger, planner and meter assume *)
let admit ~name ~rows p =
  let positive x = Float.is_finite x && x > 0. in
  let inside x = x > 0. && x < 1. in
  let flip_ok =
    match neighbor_flip name with Some (_, row) -> row < rows | None -> true
  in
  let backend_ok, backend_rule =
    match p.backend with
    | Ledger.Basic -> (true, "")
    | Ledger.Advanced { slack } -> (inside slack, "slack must be in (0,1)")
    | Ledger.Rdp { delta } -> (inside delta, "rdp delta must be in (0,1)")
  in
  let delta = p.total.Privacy.delta and low_water = p.low_water in
  let rules =
    [
      (name <> "", "empty dataset name");
      (rows > 0, "rows must be positive");
      (flip_ok, Printf.sprintf "neighbour flip row out of range (%d rows)" rows);
      (positive p.total.Privacy.epsilon, "eps must be positive");
      (delta >= 0. && delta <= 1., "delta must be in [0,1]");
      (positive p.default_epsilon, "default-eps must be positive");
      ( Option.fold ~none:true ~some:(fun e -> e > 0.) p.analyst_epsilon,
        "analyst-eps must be positive" );
      (p.universe >= 2, "universe must be >= 2");
      (Float.is_finite low_water && low_water >= 0., "low-water must be >= 0");
      (backend_ok, backend_rule);
    ]
  in
  match List.find_opt (fun (ok, _) -> not ok) rules with
  | Some (_, reason) -> Error reason
  | None -> Ok ()

let admit_or_raise fn ~name ~rows p =
  Result.iter_error (fun why -> invalid_arg (fn ^ ": " ^ why)) (admit ~name ~rows p)

let dataset ~name ~policy ~columns =
  if columns = [] then invalid_arg "Registry.dataset: no columns";
  let rows = Array.length (List.hd columns).values in
  admit_or_raise "Registry.dataset" ~name ~rows policy;
  let seen = Hashtbl.create 8 in
  let columns =
    List.map
      (fun (c : column) ->
        if Hashtbl.mem seen c.name then
          invalid_arg
            (Printf.sprintf "Registry.dataset: duplicate column %S" c.name);
        Hashtbl.add seen c.name ();
        if c.lo >= c.hi then
          invalid_arg
            (Printf.sprintf "Registry.dataset: column %S has lo >= hi" c.name);
        if Array.length c.values <> rows then
          invalid_arg "Registry.dataset: ragged columns";
        if not (Array.for_all Float.is_finite c.values) then
          invalid_arg
            (Printf.sprintf "Registry.dataset: column %S has a non-finite value"
               c.name);
        {
          c with
          values =
            Array.map (Dp_math.Numeric.clamp ~lo:c.lo ~hi:c.hi) c.values;
        })
      columns
  in
  let columns = Array.of_list columns in
  (* the clamped arrays are never mutated after this point, so a
     synopsis built from one stays valid for the dataset's lifetime *)
  let synopses =
    Array.map
      (fun (c : column) -> lazy (Synopsis.build ~lo:c.lo ~hi:c.hi c.values))
      columns
  in
  { name; columns; rows; policy; synopses }

let column ds name =
  Array.find_opt (fun (c : column) -> c.name = name) ds.columns

let synopsis ds (c : column) =
  let rec go i =
    if i = Array.length ds.columns then
      invalid_arg ("Registry.synopsis: no column " ^ c.name)
    else if ds.columns.(i).name = c.name then Lazy.force ds.synopses.(i)
    else go (i + 1)
  in
  go 0

type col_schema = { col : string; lo : float; hi : float }

type schema = {
  name : string;
  cols : col_schema array;
  rows : int;
  policy : policy;
}

let schema ~name ~rows ~policy cols =
  match admit ~name ~rows policy with
  | Error msg -> Error ("schema: " ^ msg)
  | Ok () when cols = [] -> Error "schema: no columns"
  | Ok () ->
      let seen = Hashtbl.create 8 in
      let rec check = function
        | [] -> Ok { name; cols = Array.of_list cols; rows; policy }
        | (c : col_schema) :: rest ->
            if Hashtbl.mem seen c.col then
              Error (Printf.sprintf "schema: duplicate column %S" c.col)
            else if c.lo >= c.hi then
              Error (Printf.sprintf "schema: column %S has lo >= hi" c.col)
            else begin
              Hashtbl.add seen c.col ();
              check rest
            end
      in
      check cols

let schema_of (ds : dataset) =
  {
    name = ds.name;
    cols =
      Array.map
        (fun (c : column) -> { col = c.name; lo = c.lo; hi = c.hi })
        ds.columns;
    rows = ds.rows;
    policy = ds.policy;
  }

let schema_column s name =
  Array.find_opt (fun (c : col_schema) -> c.col = name) s.cols

let synthetic ~name ~rows ~policy g =
  admit_or_raise "Registry.synthetic" ~name ~rows policy;
  let age =
    Array.init rows (fun _ -> Dp_rng.Sampler.uniform ~lo:18. ~hi:80. g)
  in
  let income =
    Dp_dataset.Synthetic.gaussian_mixture_1d ~weights:[| 0.65; 0.35 |]
      ~means:[| 32_000.; 95_000. |] ~stds:[| 12_000.; 30_000. |] ~n:rows g
  in
  let score =
    Array.init rows (fun _ -> Dp_rng.Sampler.gaussian ~mean:0. ~std:1. g)
  in
  (* A [BASE~flipN] name asks for the canonical neighbour of BASE: the
     same generator stream produces identical columns, then row N is
     pushed to its opposite bound in every column. Comparing against the
     post-clamp value guarantees the pair differs in exactly that record
     even when the raw draw was already outside the bounds. *)
  (match neighbor_flip name with
  | None -> ()
  | Some (_, row) ->
      let flip values lo hi =
        let v = Dp_math.Numeric.clamp ~lo ~hi values.(row) in
        values.(row) <- (if v = lo then hi else lo)
      in
      flip age 18. 80.;
      flip income 0. 200_000.;
      flip score (-4.) 4.);
  dataset ~name ~policy
    ~columns:
      [
        { name = "age"; values = age; lo = 18.; hi = 80. };
        { name = "income"; values = income; lo = 0.; hi = 200_000. };
        { name = "score"; values = score; lo = -4.; hi = 4. };
      ]
