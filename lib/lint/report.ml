(* Findings are shared between the token linter (R1..R9) and the flow
   analyzer (F1..F3): one report type, one text/JSON rendering, one
   sort order. Token findings have an empty witness; flow findings
   carry the source-to-sink call chain. *)

type step = { s_file : string; s_line : int; s_col : int; s_what : string }

type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;  (** 0-based column of the offending token *)
  message : string;
  witness : step list;
      (** source-to-sink chain, outermost call first; [] for token rules *)
}

let compare_findings a b =
  match compare a.file b.file with
  | 0 -> (
      match compare a.line b.line with
      | 0 -> (
          match compare a.col b.col with
          | 0 -> compare a.rule b.rule
          | c -> c)
      | c -> c)
  | c -> c

(* Overlapping clauses of one rule can fire on the same token;
   identical (rule, site) findings collapse to the first. *)
let dedup findings =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun f ->
      let key = (f.rule, f.file, f.line, f.col) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    findings

let pp_step fmt s =
  Format.fprintf fmt "    via %s:%d:%d %s" s.s_file s.s_line s.s_col s.s_what

let pp_text fmt f =
  Format.fprintf fmt "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message;
  List.iter (fun s -> Format.fprintf fmt "@.%a" pp_step s) f.witness

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let step_json s =
  Printf.sprintf {|{"file":"%s","line":%d,"col":%d,"what":"%s"}|}
    (json_escape s.s_file) s.s_line s.s_col (json_escape s.s_what)

(* One object per line: greppable, and a stream stays valid JSON-lines
   even if the process dies mid-report. *)
let pp_json fmt f =
  Format.fprintf fmt
    {|{"rule":"%s","file":"%s","line":%d,"col":%d,"message":"%s","witness":[%s]}|}
    (json_escape f.rule) (json_escape f.file) f.line f.col
    (json_escape f.message)
    (String.concat "," (List.map step_json f.witness))
