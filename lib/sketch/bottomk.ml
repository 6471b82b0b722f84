module Splitmix = Ls_rng.Splitmix
module Metrics = Ls_obs.Metrics

module Key = struct
  type t = int array

  let equal = ( = )
  let hash = Hashtbl.hash
end

module Tbl = Hashtbl.Make (Key)

type entry = { rank : float; mutable count : int }

type t = {
  k : int;
  seed : int64;
  salt : int64;
  entries : entry Tbl.t;
  mutable total : int;
  mutable evictions : int;
  (* Cached (largest rank, its key) while the sketch is saturated; [None]
     below saturation.  Rebuilt by an O(k) scan on each eviction. *)
  mutable worst : (float * int array) option;
}

let salt_of_seed seed = Splitmix.mix64 (Int64.logxor seed 0xB0770B0770B0770BL)

let create ~k ~seed =
  if k < 1 then invalid_arg "Bottomk.create: k must be >= 1";
  {
    k;
    seed;
    salt = salt_of_seed seed;
    entries = Tbl.create (2 * k);
    total = 0;
    evictions = 0;
    worst = None;
  }

let k t = t.k
let seed t = t.seed

let hash_key salt (key : int array) =
  let h = ref (Splitmix.mix64 (Int64.logxor salt 0x9E3779B97F4A7C15L)) in
  h := Splitmix.mix64 (Int64.logxor !h (Int64.of_int (Array.length key)));
  Array.iter
    (fun c -> h := Splitmix.mix64 (Int64.logxor !h (Int64.of_int c)))
    key;
  !h

(* Rank in (0,1]: the top 53 bits of the key hash, shifted into the unit
   interval.  Pure function of (seed, key). *)
let rank t key =
  let bits = Int64.shift_right_logical (hash_key t.salt key) 11 in
  (Int64.to_float bits +. 1.) *. 0x1p-53

(* Total order on (rank, key): rank first, lexicographic key as the
   (astronomically unlikely) tie-break, so truncation is deterministic. *)
let before (r1, k1) (r2, k2) =
  r1 < r2 || (r1 = r2 && compare k1 k2 < 0)

let size t = Tbl.length t.entries
let mem t key = Tbl.mem t.entries key

let count t key =
  Option.map (fun e -> e.count) (Tbl.find_opt t.entries key)

let find_worst t =
  Tbl.fold
    (fun key e acc ->
      match acc with
      | Some w when before (e.rank, key) w -> acc
      | _ -> Some (e.rank, key))
    t.entries None

let add ?(count = 1) t key =
  if count < 0 then invalid_arg "Bottomk.add: count must be >= 0";
  t.total <- t.total + count;
  Metrics.bump Metrics.sketch_adds;
  match Tbl.find_opt t.entries key with
  | Some e -> e.count <- e.count + count
  | None -> (
      let r = rank t key in
      if Tbl.length t.entries < t.k then begin
        Tbl.replace t.entries (Array.copy key) { rank = r; count };
        if Tbl.length t.entries = t.k then t.worst <- find_worst t
      end
      else
        match t.worst with
        | Some ((_, wk) as w) when before (r, key) w ->
            Tbl.remove t.entries wk;
            Tbl.replace t.entries (Array.copy key) { rank = r; count };
            t.evictions <- t.evictions + 1;
            Metrics.bump Metrics.sketch_evictions;
            t.worst <- find_worst t
        | _ -> ())

let threshold t =
  match t.worst with Some (r, _) -> r | None -> 1.0

let total t = t.total
let evictions t = t.evictions

let distinct t =
  let m = Tbl.length t.entries in
  if m < t.k then float_of_int m
  else float_of_int (t.k - 1) /. threshold t

let rel_std_error t =
  if t.k <= 2 then infinity else 1. /. sqrt (float_of_int (t.k - 2))

let sorted_entries t =
  let all = Tbl.fold (fun key e l -> (key, e) :: l) t.entries [] in
  List.sort
    (fun (k1, e1) (k2, e2) ->
      if e1.rank < e2.rank then -1
      else if e1.rank > e2.rank then 1
      else compare k1 k2)
    all

let entries t = List.map (fun (key, e) -> (key, e.count)) (sorted_entries t)

let compatible a b = a.k = b.k && Int64.equal a.seed b.seed

let merge a b =
  if not (compatible a b) then
    invalid_arg "Bottomk.merge: incompatible sketches (k and seed must match)";
  let m = create ~k:a.k ~seed:a.seed in
  let acc = Tbl.create (2 * a.k) in
  let feed t =
    Tbl.iter
      (fun key e ->
        match Tbl.find_opt acc key with
        | Some (r, c) -> Tbl.replace acc key (r, c + e.count)
        | None -> Tbl.replace acc key (e.rank, e.count))
      t.entries
  in
  feed a;
  feed b;
  let all = Tbl.fold (fun key (r, c) l -> (key, r, c) :: l) acc [] in
  let all =
    List.sort
      (fun (k1, r1, _) (k2, r2, _) ->
        if r1 < r2 then -1 else if r1 > r2 then 1 else compare k1 k2)
      all
  in
  List.iteri
    (fun i (key, r, c) ->
      if i < m.k then
        Tbl.replace m.entries (Array.copy key) { rank = r; count = c })
    all;
  if Tbl.length m.entries = m.k then m.worst <- find_worst m;
  m.total <- a.total + b.total;
  Metrics.bump Metrics.sketch_merges;
  m

let magic = "BKS1"

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf magic;
  Codec.add_int buf t.k;
  Codec.add_i64 buf t.seed;
  Codec.add_int buf t.total;
  Codec.add_int buf (Tbl.length t.entries);
  List.iter
    (fun (key, e) ->
      Codec.add_int buf (Array.length key);
      Array.iter (Codec.add_int buf) key;
      Codec.add_int buf e.count)
    (sorted_entries t);
  Buffer.contents buf

let decode s =
  try
    let cur = ref 0 in
    Codec.check_magic s cur magic;
    let k = Codec.get_int s cur in
    let seed = Codec.get_i64 s cur in
    let total = Codec.get_int s cur in
    let n = Codec.get_int s cur in
    if k < 1 then invalid_arg "Bottomk.create: k must be >= 1";
    if n < 0 then invalid_arg "Bottomk.of_string: negative entry count";
    if n > k then invalid_arg "Bottomk.of_string: more entries than k";
    if total < 0 then invalid_arg "Bottomk.of_string: negative total";
    (* Size the table by the entries actually present, never by the
       declared k: a crafted 40-byte header cannot force a 2k-slot
       allocation.  (Hashtbl grows on demand if a legitimate sketch later
       admits more keys.) *)
    let t =
      {
        k;
        seed;
        salt = salt_of_seed seed;
        entries = Tbl.create (2 * min k (n + 1));
        total = 0;
        evictions = 0;
        worst = None;
      }
    in
    for _ = 1 to n do
      let len = Codec.get_int s cur in
      if len < 0 then invalid_arg "Bottomk.of_string: negative key length";
      if len > Codec.remaining s cur / 8 then
        invalid_arg "Bottomk.of_string: declared key exceeds remaining bytes";
      let key = Array.init len (fun _ -> Codec.get_int s cur) in
      let count = Codec.get_int s cur in
      Tbl.replace t.entries key { rank = rank t key; count }
    done;
    if !cur <> String.length s then
      invalid_arg "Bottomk.of_string: trailing bytes after entries";
    if Tbl.length t.entries = k then t.worst <- find_worst t;
    t.total <- total;
    Ok t
  with Invalid_argument msg -> Error msg

let of_string s =
  match decode s with Ok t -> t | Error msg -> invalid_arg msg

let digest t = Codec.digest (to_string t)
