type 'a t = {
  name : string;
  default : unit -> 'a;
  parse : string -> ('a, string) result;
}

(* The startup checks, newest first. *)
let registry : (unit -> (unit, string) result) list ref = ref []

(* [Ok None] when unset or empty. *)
let read v =
  match Sys.getenv_opt v.name with
  | None | Some "" -> Ok None
  | Some s -> (
      match v.parse s with
      | Ok x -> Ok (Some x)
      | Error why -> Error (Printf.sprintf "%s=%S: %s" v.name s why))

let declare name ~default parse =
  let v = { name; default; parse } in
  registry := (fun () -> Result.map ignore (read v)) :: !registry;
  v

let get v =
  match read v with
  | Ok (Some x) -> x
  | Ok None -> v.default ()
  | Error msg -> invalid_arg msg

let check_all () =
  List.fold_left Result.bind (Ok ()) (List.rev !registry)

let int_at_least min s =
  match int_of_string_opt (String.trim s) with
  | Some k when k >= min -> Ok k
  | _ -> Error (Printf.sprintf "expected an integer >= %d" min)

let dir d =
  if Sys.file_exists d && not (Sys.is_directory d) then
    Error "exists but is not a directory"
  else Ok d
