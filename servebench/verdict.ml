type direction = Higher | Lower
type verdict = Better | Worse | Unresolved | Same

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"
  | Same -> "same"

let ks a b =
  if Array.length a < 2 || Array.length b < 2 then None
  else Some (Dp_stats.Gof.ks_two_sample a b)

let decide ~better ~bound ~old_value ~new_value ks =
  let delta = (new_value -. old_value) /. old_value in
  if Float.abs delta <= bound then Same
  else
    match ks with
    | Some { Dp_stats.Gof.p_value; _ } when p_value < 0.05 ->
        let worse = match better with Lower -> delta > 0. | Higher -> delta < 0. in
        if worse then Worse else Better
    | _ -> Unresolved

let fail_ratio_bound = 0.001

let decide_absolute ~bound ~old_value ~new_value =
  let delta = new_value -. old_value in
  if delta > bound then Worse else if delta < -.bound then Better else Same

let path j keys = List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) keys
let list j keys = Json.to_list (Option.value ~default:Json.Null (path j keys))
let floats js = Array.of_list (List.filter_map Json.to_float js)

let table ~bench ~old_result ~new_result =
  let workloads j = match path j [ "workloads" ] with Some (Json.Obj kvs) -> List.map fst kvs | _ -> [] in
  let ok = ref true in
  let row w m =
    let str k = match Json.member k m with Some (Json.Str s) -> s | _ -> "" in
    let name = str "name" in
    let runs j = list j [ "workloads"; w; "runs" ] in
    let values j = floats (List.filter_map (fun r -> path r [ "end_to_end"; name; "value" ]) (runs j)) in
    let samples j =
      match List.concat_map (fun r -> list r [ "batches"; name ]) (runs j) with
      | [] -> values j
      | batches -> floats batches
    in
    let o = values old_result and n = values new_result in
    match Option.bind (Json.member "bound" m) Json.to_float with
    | Some bound when Array.length o > 0 && Array.length n > 0 ->
        let om = Dp_stats.Describe.median o and nm = Dp_stats.Describe.median n in
        let test = ks (samples old_result) (samples new_result) in
        let better = if str "better" = "higher" then Higher else Lower in
        let v = decide ~better ~bound ~old_value:om ~new_value:nm test in
        if v = Worse then ok := false;
        Some
          (Printf.sprintf "%-14s %-17s runs=%d/%d old=%-12.6g new=%-12.6g delta=%+7.2f%% bound=%5.1f%% %s %s" w name
             (Array.length o) (Array.length n) om nm
             (100. *. (nm -. om) /. om)
             (100. *. bound)
             (match test with
             | Some r -> Printf.sprintf "ks_d=%.3f ks_p=%.3g" r.statistic r.p_value
             | None -> "ks=n/a")
             (verdict_name v))
    | _ -> None
  in
  (* failed / attempted over all runs of a workload *)
  let fail_ratio j w =
    let runs = list j [ "workloads"; w; "runs" ] in
    let total key = List.fold_left (fun acc r -> acc +. Option.value ~default:0. (Option.bind (path r [ "counts"; key ]) Json.to_float)) 0. runs in
    let attempted = total "ops_attempted" in
    if attempted > 0. then Some (total "ops_failed" /. attempted) else None
  in
  let fail_row w =
    match (fail_ratio old_result w, fail_ratio new_result w) with
    | Some o, Some n ->
        let v = decide_absolute ~bound:fail_ratio_bound ~old_value:o ~new_value:n in
        if v = Worse then ok := false;
        Some
          (Printf.sprintf "%-14s %-17s old=%-12.6g new=%-12.6g delta=%+.6f bound=%+.3f absolute %s" w "fail_ratio" o n
             (n -. o) fail_ratio_bound (verdict_name v))
    | _ -> None
  in
  let lines =
    List.concat_map
      (fun w ->
        if List.mem w (workloads old_result) then
          List.filter_map (row w) (list bench [ "end_to_end" ]) @ Option.to_list (fail_row w)
        else [])
      (workloads new_result)
  in
  (lines, !ok)
