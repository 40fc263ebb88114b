(* The coordinator's grant write-ahead log, framed by Dp_engine.Frame
   like the engine journal, because it protects the same invariant from
   the other side: a lease must be durable before the worker that asked
   for it learns it may charge. Records are absolute (cumulative leased
   ε, absolute reclaimed spend), so replaying a prefix of the log after
   a coordinator crash reconstructs a state the shard journals can only
   refine, never contradict. *)

module Frame = Dp_engine.Frame

type record =
  | Dataset of { name : string; eps : float; line : string }
  | Incarnation of { shard : int; token : int }
  | Grant of {
      shard : int;
      token : int;
      dataset : string;
      leased : float;
      deadline : float;
    }
  | Reclaim of { shard : int; token : int; dataset : string; spent : float }

let encode r =
  let open Frame in
  let b = Buffer.create 64 in
  (match r with
  | Dataset { name; eps; line } ->
      Buffer.add_char b 'D';
      put_str b name;
      put_float b eps;
      put_str b line
  | Incarnation { shard; token } ->
      Buffer.add_char b 'I';
      put_int b shard;
      put_int b token
  | Grant { shard; token; dataset; leased; deadline } ->
      Buffer.add_char b 'G';
      put_int b shard;
      put_int b token;
      put_str b dataset;
      put_float b leased;
      put_float b deadline
  | Reclaim { shard; token; dataset; spent } ->
      Buffer.add_char b 'R';
      put_int b shard;
      put_int b token;
      put_str b dataset;
      put_float b spent);
  Buffer.contents b

let decode c =
  let open Frame in
  match get_char c with
  | 'D' ->
      let name = get_str c in
      let eps = get_float c in
      let line = get_str c in
      Dataset { name; eps; line }
  | 'I' ->
      let shard = get_int c in
      let token = get_int c in
      Incarnation { shard; token }
  | 'G' ->
      let shard = get_int c in
      let token = get_int c in
      let dataset = get_str c in
      let leased = get_float c in
      let deadline = get_float c in
      Grant { shard; token; dataset; leased; deadline }
  | 'R' ->
      let shard = get_int c in
      let token = get_int c in
      let dataset = get_str c in
      let spent = get_float c in
      Reclaim { shard; token; dataset; spent }
  | _ -> raise Corrupt

(* ------------------------------------------------------------------ *)

type t = Frame.t

let path = Frame.path
let close = Frame.close
let named path = Result.map_error (Printf.sprintf "grant wal %s: %s" path)
let load path = named path (Frame.load decode path)
let open_ path = named path (Frame.open_ decode path)

let append t record =
  let framed = Frame.frame (encode record) in
  try
    Frame.write t framed;
    Frame.fsync t;
    Frame.commit t framed;
    Ok ()
  with Unix.Unix_error (e, fn, _) ->
    (* cut back to the last clean frame so a partial write cannot be
       mistaken for a grant on the next open *)
    (try Frame.cut t with Unix.Unix_error _ -> ());
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
