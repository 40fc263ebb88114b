open Dp_mechanism

type backend = Basic | Advanced of { slack : float } | Rdp of { delta : float }

type charge = { budget : Privacy.budget; rdp : Rdp.curve option }

type rejection = {
  requested : Privacy.budget;
  remaining : Privacy.budget;
  analyst : string option;
}

type t = {
  total : Privacy.budget;
  backend : backend;
  analyst_epsilon : float option;
  analysts : (string, Privacy.Accountant.t) Hashtbl.t;
  mutable n : int;
  mutable sum_eps : float;
  mutable sum_delta : float;
  mutable sum_eps_sq : float;
  mutable sum_eps_exp : float;  (* Σ εᵢ(e^{εᵢ} − 1) *)
  mutable sum_delta_no_curve : float;  (* δ of charges outside RDP accounting *)
  rho : float array;
      (* accumulated RDP curve on Rdp.alpha_grid: each spend costs
         O(|grid|) instead of O(#charges) *)
}

let pp_backend fmt = function
  | Basic -> Format.pp_print_string fmt "basic"
  | Advanced { slack } -> Format.fprintf fmt "advanced(slack=%g)" slack
  | Rdp { delta } -> Format.fprintf fmt "rdp(delta=%g)" delta

let create ~total ~backend ?analyst_epsilon () =
  (match backend with
  | Basic -> ()
  | Advanced { slack } ->
      if slack <= 0. || slack >= 1. then
        invalid_arg "Ledger.create: advanced slack must be in (0,1)"
  | Rdp { delta } ->
      if delta <= 0. || delta >= 1. then
        invalid_arg "Ledger.create: rdp delta must be in (0,1)");
  (match analyst_epsilon with
  | Some e when e <= 0. ->
      invalid_arg "Ledger.create: analyst_epsilon must be positive"
  | _ -> ());
  {
    total;
    backend;
    analyst_epsilon;
    analysts = Hashtbl.create 8;
    n = 0;
    sum_eps = 0.;
    sum_delta = 0.;
    sum_eps_sq = 0.;
    sum_eps_exp = 0.;
    sum_delta_no_curve = 0.;
    rho = Array.make (Array.length Rdp.alpha_grid) 0.;
  }

let total t = t.total
let backend t = t.backend
let n_charges t = t.n

(* Spent budget from a snapshot of the accumulator fields. *)
let spent_of t ~n ~sum_eps ~sum_delta ~sum_eps_sq ~sum_eps_exp
    ~sum_delta_no_curve ~rho_at =
  let basic = { Privacy.epsilon = sum_eps; delta = sum_delta } in
  if n = 0 then { Privacy.epsilon = 0.; delta = 0. }
  else
    match t.backend with
    | Basic -> basic
    | Advanced { slack } ->
        let adv =
          sqrt (2. *. log (1. /. slack) *. sum_eps_sq) +. sum_eps_exp
        in
        if adv < basic.Privacy.epsilon then
          { Privacy.epsilon = adv; delta = sum_delta +. slack }
        else basic
    | Rdp { delta } ->
        let eps = Rdp.epsilon_on_grid ~delta rho_at in
        if eps < basic.Privacy.epsilon then
          { Privacy.epsilon = eps; delta = delta +. sum_delta_no_curve }
        else basic

let spent t =
  spent_of t ~n:t.n ~sum_eps:t.sum_eps ~sum_delta:t.sum_delta
    ~sum_eps_sq:t.sum_eps_sq ~sum_eps_exp:t.sum_eps_exp
    ~sum_delta_no_curve:t.sum_delta_no_curve
    ~rho_at:(fun i -> t.rho.(i))

(* What spent would become if [c] were charged. *)
let spent_with t (c : charge) =
  let eps = c.budget.Privacy.epsilon and dlt = c.budget.Privacy.delta in
  let curve =
    match c.rdp with
    | Some f -> f
    | None -> Rdp.pure_dp ~epsilon:eps
  in
  spent_of t ~n:(t.n + 1) ~sum_eps:(t.sum_eps +. eps)
    ~sum_delta:(t.sum_delta +. dlt)
    ~sum_eps_sq:(t.sum_eps_sq +. (eps *. eps))
    ~sum_eps_exp:(t.sum_eps_exp +. (eps *. (exp eps -. 1.)))
    ~sum_delta_no_curve:
      (t.sum_delta_no_curve +. if Option.is_none c.rdp then dlt else 0.)
    ~rho_at:(fun i -> t.rho.(i) +. curve Rdp.alpha_grid.(i))

let remaining t =
  let s = spent t in
  {
    Privacy.epsilon = Float.max 0. (t.total.Privacy.epsilon -. s.Privacy.epsilon);
    delta = Float.max 0. (t.total.Privacy.delta -. s.Privacy.delta);
  }

let fits total (b : Privacy.budget) =
  b.Privacy.epsilon <= total.Privacy.epsilon +. 1e-12
  && b.Privacy.delta <= total.Privacy.delta +. 1e-15

let analyst_accountant t a =
  match Hashtbl.find_opt t.analysts a with
  | Some acc -> acc
  | None ->
      let cap =
        match t.analyst_epsilon with
        | Some e ->
            { Privacy.epsilon = e; delta = t.total.Privacy.delta }
        | None -> t.total
      in
      let acc = Privacy.Accountant.create ~total:cap in
      Hashtbl.add t.analysts a acc;
      acc

let analyst_spent t a =
  match Hashtbl.find_opt t.analysts a with
  | Some acc -> Privacy.Accountant.spent acc
  | None -> { Privacy.epsilon = 0.; delta = 0. }

let can_afford t ?analyst c =
  fits t.total (spent_with t c)
  &&
  match (analyst, t.analyst_epsilon) with
  | Some a, Some _ ->
      Privacy.Accountant.can_afford (analyst_accountant t a) c.budget
  | _ -> true

let commit t (c : charge) =
  let eps = c.budget.Privacy.epsilon and dlt = c.budget.Privacy.delta in
  let curve =
    match c.rdp with Some f -> f | None -> Rdp.pure_dp ~epsilon:eps
  in
  t.n <- t.n + 1;
  t.sum_eps <- t.sum_eps +. eps;
  t.sum_delta <- t.sum_delta +. dlt;
  t.sum_eps_sq <- t.sum_eps_sq +. (eps *. eps);
  t.sum_eps_exp <- t.sum_eps_exp +. (eps *. (exp eps -. 1.));
  if Option.is_none c.rdp then t.sum_delta_no_curve <- t.sum_delta_no_curve +. dlt;
  Array.iteri
    (fun i alpha -> t.rho.(i) <- t.rho.(i) +. curve alpha)
    Rdp.alpha_grid

let rho_of_charge (c : charge) =
  Option.map (fun curve -> Array.map curve Rdp.alpha_grid) c.rdp

let replay_charge t ?analyst ~face ~rho () =
  (match (analyst, t.analyst_epsilon) with
  | Some a, Some _ -> Privacy.Accountant.spend (analyst_accountant t a) face
  | _ -> ());
  match rho with
  | None -> commit t { budget = face; rdp = None }
  | Some arr ->
      if Array.length arr <> Array.length Rdp.alpha_grid then
        invalid_arg "Ledger.replay_charge: rho does not match the alpha grid";
      let eps = face.Privacy.epsilon and dlt = face.Privacy.delta in
      t.n <- t.n + 1;
      t.sum_eps <- t.sum_eps +. eps;
      t.sum_delta <- t.sum_delta +. dlt;
      t.sum_eps_sq <- t.sum_eps_sq +. (eps *. eps);
      t.sum_eps_exp <- t.sum_eps_exp +. (eps *. (exp eps -. 1.));
      Array.iteri (fun i d -> t.rho.(i) <- t.rho.(i) +. d) arr

let preview ~total ~backend charges =
  let t = create ~total ~backend () in
  List.iter (commit t) charges;
  spent t

let spend t ?analyst c =
  if not (fits t.total (spent_with t c)) then
    Error { requested = c.budget; remaining = remaining t; analyst = None }
  else
    match (analyst, t.analyst_epsilon) with
    | Some a, Some _ ->
        let acc = analyst_accountant t a in
        if not (Privacy.Accountant.can_afford acc c.budget) then
          Error
            {
              requested = c.budget;
              remaining = Privacy.Accountant.remaining acc;
              analyst = Some a;
            }
        else (
          Privacy.Accountant.spend acc c.budget;
          commit t c;
          Ok ())
    | _ ->
        commit t c;
        Ok ()
