module Splitmix = Ls_rng.Splitmix

let add_i64 = Buffer.add_int64_le
let add_int buf n = add_i64 buf (Int64.of_int n)

let get_i64 s cur =
  if !cur + 8 > String.length s then
    invalid_arg "Sketch codec: truncated serialization";
  let v = String.get_int64_le s !cur in
  cur := !cur + 8;
  v

let get_int s cur =
  let v = get_i64 s cur in
  let n = Int64.to_int v in
  if Int64.of_int n <> v then invalid_arg "Sketch codec: field exceeds int";
  n

let check_magic s cur magic =
  let l = String.length magic in
  if
    !cur + l > String.length s
    || String.sub s !cur l <> magic
  then invalid_arg (Printf.sprintf "Sketch codec: expected %S header" magic);
  cur := !cur + l

(* Result-returning readers for decoders that must never raise (the
   hardened [decode] entry points and the shard frame/checkpoint codecs).
   Same wire format and error wording as the raising readers above. *)
let read_i64 s cur =
  if !cur + 8 > String.length s then
    Error "Sketch codec: truncated serialization"
  else begin
    let v = String.get_int64_le s !cur in
    cur := !cur + 8;
    Ok v
  end

let read_int s cur =
  match read_i64 s cur with
  | Error _ as e -> e
  | Ok v ->
      let n = Int64.to_int v in
      if Int64.of_int n <> v then Error "Sketch codec: field exceeds int"
      else Ok n

let read_magic s cur magic =
  let l = String.length magic in
  if !cur + l > String.length s || String.sub s !cur l <> magic then
    Error (Printf.sprintf "Sketch codec: expected %S header" magic)
  else begin
    cur := !cur + l;
    Ok ()
  end

let remaining s cur = String.length s - !cur

let add_string buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let read_string ~what s cur ~cap =
  match read_int s cur with
  | Error _ as e -> e
  | Ok len when len < 0 || len > cap ->
      Error (Printf.sprintf "%s length %d outside [0, %d]" what len cap)
  | Ok len when len > remaining s cur ->
      Error (Printf.sprintf "%s length exceeds the bytes present" what)
  | Ok len ->
      let v = String.sub s !cur len in
      cur := !cur + len;
      Ok v

let digest s =
  let h = ref 0x5345454BL in
  String.iter
    (fun c ->
      h := Splitmix.mix64 (Int64.logxor !h (Int64.of_int (Char.code c))))
    s;
  Printf.sprintf "%016Lx" !h
