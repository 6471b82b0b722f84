(* Just enough JSON for result records and BENCHMARK.json: a value type,
   a printer that keeps every digit of a float, and a strict parser. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Printf.sprintf "%.0f" f
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Str s -> escape s
  | Arr l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Obj l ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) l)
      ^ "}"

exception Bad of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let fail what = raise (Bad (Printf.sprintf "%s at byte %d" what !pos)) in
  let rec skip () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let num () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then (
          incr pos;
          Obj [])
        else
          let rec members acc =
            let k = str () in
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                skip ();
                members ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then (
          incr pos;
          Arr [])
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> num ()
  in
  match
    let v = value () in
    skip ();
    if !pos <> n then fail "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
  | exception Failure msg -> Error msg

let member k = function Obj l -> List.assoc_opt k l | _ -> None

let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> l | _ -> []

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg
