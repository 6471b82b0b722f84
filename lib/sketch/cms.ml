module Splitmix = Ls_rng.Splitmix
module Metrics = Ls_obs.Metrics

type t = {
  width : int;
  depth : int;
  seed : int64;
  salts : int64 array;
  rows : int array array; (* depth rows of width counters *)
  mutable total : int;
}

(* One salt per row, a pure function of (seed, row): the hash family is
   fixed by the seed alone, so independently created sketches agree on
   where every key lands. *)
let derive_salts ~depth ~seed =
  let base = Splitmix.mix64 seed in
  Array.init depth (fun i ->
      Splitmix.mix64 (Int64.add base (Int64.of_int (i + 1))))

let create ~width ~depth ~seed =
  if width < 1 then invalid_arg "Cms.create: width must be >= 1";
  if depth < 1 then invalid_arg "Cms.create: depth must be >= 1";
  {
    width;
    depth;
    seed;
    salts = derive_salts ~depth ~seed;
    rows = Array.init depth (fun _ -> Array.make width 0);
    total = 0;
  }

let width t = t.width
let depth t = t.depth
let seed t = t.seed
let epsilon t = Float.exp 1. /. float_of_int t.width
let delta t = Float.exp (-.float_of_int t.depth)

(* Coordinate-indexed key hash: a mix64 chain over (salt, length,
   elements).  Folding the length first keeps [|1|] and [|1; 0|] apart. *)
let hash_key salt (key : int array) =
  let h = ref (Splitmix.mix64 (Int64.logxor salt 0x9E3779B97F4A7C15L)) in
  h := Splitmix.mix64 (Int64.logxor !h (Int64.of_int (Array.length key)));
  Array.iter
    (fun c -> h := Splitmix.mix64 (Int64.logxor !h (Int64.of_int c)))
    key;
  !h

let index t row key =
  Int64.to_int
    (Int64.unsigned_rem (hash_key t.salts.(row) key) (Int64.of_int t.width))

let add ?(count = 1) t key =
  if count < 0 then invalid_arg "Cms.add: count must be >= 0";
  for row = 0 to t.depth - 1 do
    let i = index t row key in
    t.rows.(row).(i) <- t.rows.(row).(i) + count
  done;
  t.total <- t.total + count;
  Metrics.bump Metrics.sketch_adds

let total t = t.total

let count t key =
  let best = ref max_int in
  for row = 0 to t.depth - 1 do
    let c = t.rows.(row).(index t row key) in
    if c < !best then best := c
  done;
  !best

let compatible a b =
  a.width = b.width && a.depth = b.depth && Int64.equal a.seed b.seed

let merge a b =
  if not (compatible a b) then
    invalid_arg "Cms.merge: incompatible sketches (width/depth/seed must match)";
  let m = create ~width:a.width ~depth:a.depth ~seed:a.seed in
  for row = 0 to m.depth - 1 do
    let ra = a.rows.(row) and rb = b.rows.(row) and rm = m.rows.(row) in
    for i = 0 to m.width - 1 do
      rm.(i) <- ra.(i) + rb.(i)
    done
  done;
  m.total <- a.total + b.total;
  Metrics.bump Metrics.sketch_merges;
  m

let magic = "CMS1"

let to_string t =
  let buf = Buffer.create ((t.width * t.depth * 8) + 64) in
  Buffer.add_string buf magic;
  Codec.add_int buf t.width;
  Codec.add_int buf t.depth;
  Codec.add_i64 buf t.seed;
  Codec.add_int buf t.total;
  Array.iter (fun row -> Array.iter (Codec.add_int buf) row) t.rows;
  Buffer.contents buf

let decode s =
  try
    let cur = ref 0 in
    Codec.check_magic s cur magic;
    let width = Codec.get_int s cur in
    let depth = Codec.get_int s cur in
    let seed = Codec.get_i64 s cur in
    let total = Codec.get_int s cur in
    if width < 1 || depth < 1 then
      invalid_arg "Cms.of_string: width and depth must be >= 1";
    if total < 0 then invalid_arg "Cms.of_string: negative total";
    (* The declared width x depth table must actually be present before
       any allocation is sized by it: a crafted header cannot force a
       giant table out of a short string.  (Divide, don't multiply —
       width * depth * 8 could overflow.) *)
    let rem = Codec.remaining s cur in
    if depth > rem / 8 || width > rem / (8 * depth) then
      invalid_arg "Cms.of_string: declared table exceeds remaining bytes";
    let t = create ~width ~depth ~seed in
    for row = 0 to depth - 1 do
      for i = 0 to width - 1 do
        t.rows.(row).(i) <- Codec.get_int s cur
      done
    done;
    if !cur <> String.length s then
      invalid_arg "Cms.of_string: trailing bytes after table";
    t.total <- total;
    Ok t
  with Invalid_argument msg -> Error msg

let of_string s =
  match decode s with Ok t -> t | Error msg -> invalid_arg msg

let digest t = Codec.digest (to_string t)
