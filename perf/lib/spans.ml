(* Wall-clock spans recorded around calls into each layer's public
   functions.  Spans live in memory until the run ends; a span's self time
   is its duration minus the part of it its direct children cover. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span. *)
  workload : string;
  name : string;
  start_ns : int;
  end_ns : int;
  minor_words : float;  (** Minor-heap words allocated inside the span. *)
}

type t = {
  workload : string;
  origin : float;  (** Span times are nanoseconds since this instant. *)
  mutable stack : int list;
  mutable next_id : int;
  mutable recorded : span list;
}

let create workload =
  {
    workload;
    origin = Unix.gettimeofday ();
    stack = [];
    next_id = 0;
    recorded = [];
  }

let now_ns t = int_of_float ((Unix.gettimeofday () -. t.origin) *. 1e9)

let span t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let w0 = Gc.minor_words () in
  let start_ns = now_ns t in
  Fun.protect f ~finally:(fun () ->
      let end_ns = now_ns t in
      let minor_words = Gc.minor_words () -. w0 in
      t.stack <- List.tl t.stack;
      t.recorded <-
        { id; parent; workload = t.workload; name; start_ns; end_ns; minor_words }
        :: t.recorded)

let spans t = List.rev t.recorded
let duration_ns s = s.end_ns - s.start_ns

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let rec sweep acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc + (b - a) | None -> acc)
    | (a, b) :: rest -> (
        match cur with
        | Some (ca, cb) when a <= cb -> sweep acc (Some (ca, max cb b)) rest
        | Some (ca, cb) -> sweep (acc + (cb - ca)) (Some (a, b)) rest
        | None -> sweep acc (Some (a, b)) rest)
  in
  sweep 0 None (List.sort compare clipped)

(* Self time of every span, by id. *)
let self_ns spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start_ns, s.end_ns)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let self = Hashtbl.create (List.length spans) in
  List.iter
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      Hashtbl.replace self s.id
        (duration_ns s - covered ~lo:s.start_ns ~hi:s.end_ns kids))
    spans;
  self

let to_json s =
  Json.Obj
    [
      ("id", Json.Num (float_of_int s.id));
      ("parent", Json.Num (float_of_int s.parent));
      ("workload", Json.Str s.workload);
      ("name", Json.Str s.name);
      ("start_ns", Json.Num (float_of_int s.start_ns));
      ("end_ns", Json.Num (float_of_int s.end_ns));
      ("minor_words", Json.Num s.minor_words);
    ]

let write_jsonl path spans =
  Out_channel.with_open_bin path (fun oc ->
      List.iter (fun s -> output_string oc (Json.to_string (to_json s) ^ "\n")) spans)
