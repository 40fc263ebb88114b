open Dp_math

type curve = float -> float

let check_alpha alpha =
  if alpha <= 1. then invalid_arg "Rdp: RDP order must be > 1"

let gaussian ~l2_sensitivity ~std =
  let std = Numeric.check_pos "Rdp.gaussian std" std in
  let d = Numeric.check_nonneg "Rdp.gaussian sensitivity" l2_sensitivity in
  fun alpha ->
    check_alpha alpha;
    alpha *. d *. d /. (2. *. std *. std)

let laplace ~sensitivity ~epsilon =
  ignore (Numeric.check_nonneg "Rdp.laplace sensitivity" sensitivity);
  let eps = Numeric.check_pos "Rdp.laplace epsilon" epsilon in
  fun alpha ->
    check_alpha alpha;
    (* Mironov 2017, Table II: Renyi divergence between Lap(b) shifted
       by its scale times eps... closed form for shift = sensitivity,
       scale = sensitivity/eps. *)
    let a = alpha in
    let t1 = log (a /. ((2. *. a) -. 1.)) +. ((a -. 1.) *. eps) in
    let t2 = log ((a -. 1.) /. ((2. *. a) -. 1.)) -. (a *. eps) in
    Logspace.log_sum_exp2 t1 t2 /. (a -. 1.)

let pure_dp ~epsilon =
  let eps = Numeric.check_nonneg "Rdp.pure_dp epsilon" epsilon in
  fun alpha ->
    check_alpha alpha;
    eps

let compose curves alpha = Summation.sum_list (List.map (fun c -> c alpha) curves)

let scale k curve =
  if k <= 0 then invalid_arg "Rdp.scale: k must be positive";
  fun alpha -> float_of_int k *. curve alpha

let alpha_grid =
  (* log-spaced orders in (1, 512] plus a fine low-end *)
  let low = List.init 18 (fun i -> 1.05 +. (0.15 *. float_of_int i)) in
  let high = List.init 24 (fun i -> 4. *. (1.26 ** float_of_int i)) in
  Array.of_list (low @ List.filter (fun a -> a <= 512.) high)

let epsilon_on_grid ~delta rho =
  let eps = ref infinity in
  Array.iteri
    (fun i alpha ->
      eps := Float.min !eps (rho i +. (log (1. /. delta) /. (alpha -. 1.))))
    alpha_grid;
  !eps

let to_dp ~delta curve =
  if delta <= 0. || delta >= 1. then
    invalid_arg "Rdp.to_dp: delta must be in (0, 1)";
  let eps = epsilon_on_grid ~delta (fun i -> curve alpha_grid.(i)) in
  Privacy.approx ~epsilon:eps ~delta

let gaussian_sgm_epsilon ~noise_multiplier ~steps ~delta =
  let sigma = Numeric.check_pos "Rdp.gaussian_sgm noise_multiplier" noise_multiplier in
  if steps <= 0 then invalid_arg "Rdp.gaussian_sgm_epsilon: steps must be positive";
  let curve = scale steps (gaussian ~l2_sensitivity:1. ~std:sigma) in
  (to_dp ~delta curve).Privacy.epsilon
