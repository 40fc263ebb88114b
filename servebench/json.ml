type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let num_to_string x =
  if not (Float.is_finite x) then "null"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else shortest (p + 1)
    in
    shortest 15

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> num_to_string x
  | Str s -> escape s
  | Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Obj kvs ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) kvs)
      ^ "}"

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let bad what = raise (Bad (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then begin
      incr pos;
      ws ()
    end
  in
  let expect c = if !pos < n && s.[!pos] = c then incr pos else bad (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else bad "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then bad "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' when !pos + 1 < n ->
            (match s.[!pos + 1] with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'u' when !pos + 5 < n ->
                Buffer.add_char b (Char.chr (int_of_string ("0x" ^ String.sub s (!pos + 2) 4) land 0xff));
                pos := !pos + 4
            | c -> Buffer.add_char b c);
            pos := !pos + 2;
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some x -> Num x
    | None -> bad "bad number"
  in
  let rec value () =
    ws ();
    if !pos >= n then bad "unexpected end"
    else
      match s.[!pos] with
      | '{' ->
          incr pos;
          ws ();
          if !pos < n && s.[!pos] = '}' then begin
            incr pos;
            Obj []
          end
          else
            let rec members acc =
              ws ();
              let k = string () in
              ws ();
              expect ':';
              let v = value () in
              ws ();
              if !pos < n && s.[!pos] = ',' then begin
                incr pos;
                members ((k, v) :: acc)
              end
              else begin
                expect '}';
                Obj (List.rev ((k, v) :: acc))
              end
            in
            members []
      | '[' ->
          incr pos;
          ws ();
          if !pos < n && s.[!pos] = ']' then begin
            incr pos;
            Arr []
          end
          else
            let rec elements acc =
              let v = value () in
              ws ();
              if !pos < n && s.[!pos] = ',' then begin
                incr pos;
                elements (v :: acc)
              end
              else begin
                expect ']';
                Arr (List.rev (v :: acc))
              end
            in
            elements []
      | '"' -> Str (string ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> number ()
  in
  match value () with
  | v ->
      ws ();
      if !pos <> n then Error (Printf.sprintf "trailing bytes at byte %d" !pos) else Ok v
  | exception Bad msg -> Error msg

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let set k v = function
  | Obj kvs when List.mem_assoc k kvs -> Obj (List.map (fun (k', v') -> (k', if k' = k then v else v')) kvs)
  | Obj kvs -> Obj (kvs @ [ (k, v) ])
  | _ -> Obj [ (k, v) ]

let to_float = function Num x -> Some x | _ -> None
let to_list = function Arr xs -> xs | _ -> []
