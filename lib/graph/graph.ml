type t = { n : int; adj : int array array; m : int }

module Edge_set = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let normalize_edge u v = if u < v then (u, v) else (v, u)

let create ~n ~edges =
  if n < 0 then invalid_arg "Graph.create: negative vertex count";
  let set =
    List.fold_left
      (fun acc (u, v) ->
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg "Graph.create: endpoint out of range";
        if u = v then invalid_arg "Graph.create: self-loop";
        Edge_set.add (normalize_edge u v) acc)
      Edge_set.empty edges
  in
  let deg = Array.make n 0 in
  Edge_set.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    set;
  let adj = Array.init n (fun v -> Array.make deg.(v) 0) in
  let fill = Array.make n 0 in
  Edge_set.iter
    (fun (u, v) ->
      adj.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    set;
  Array.iter (fun a -> Array.sort compare a) adj;
  { n; adj; m = Edge_set.cardinal set }

let n g = g.n

let m g = g.m

let neighbors g v = g.adj.(v)

let degree g v = Array.length g.adj.(v)

let max_degree g =
  Array.fold_left (fun acc a -> max acc (Array.length a)) 0 g.adj

let mem_edge g u v =
  let a = g.adj.(u) in
  let rec bin lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = v then true
      else if a.(mid) < v then bin (mid + 1) hi
      else bin lo mid
  in
  bin 0 (Array.length a)

let iter_edges g f =
  for u = 0 to g.n - 1 do
    Array.iter (fun v -> if u < v then f u v) g.adj.(u)
  done

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v -> acc := (u, v) :: !acc);
  List.rev !acc

let distances_from_set g sources =
  let dist = Array.make g.n max_int in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if dist.(s) = max_int then begin
        dist.(s) <- 0;
        Queue.add s queue
      end)
    sources;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Array.iter
      (fun v ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      g.adj.(u)
  done;
  dist

let bfs_distances g v = distances_from_set g [ v ]

let dist g u v = (bfs_distances g u).(v)

(* Radius-bounded BFS over this module's {!Stamp} scratch: [stamp.(u) =
   epoch] marks [u] as reached, [ints.(0)] holds its distance and
   [ints.(1)] the search order, so the cost is the size of the ball (plus
   its boundary edges). *)
let scratch = Stamp.key ~ints:2 (fun () -> ())

(* The search is a closed function: as the body of the closure handed to
   [Stamp.use] it would read [g] and [r] from the closure's environment
   inside its loop, which made a radius-3 ball query about 5% slower
   (dev profile, on a 2-vCPU VM). *)
let search g v r k (s : _ Stamp.t) =
  let epoch = s.epoch and stamp = s.stamp in
  let dist = s.ints.(0) and order = s.ints.(1) in
  (* The scratch may be longer than [g.n] (a bigger graph grew it),
     so an out-of-range [v] is caught on the graph's rows. *)
  let (_ : int array) = g.adj.(v) in
  stamp.(v) <- epoch;
  dist.(v) <- 0;
  order.(0) <- v;
  (* B_r(v) is empty for r < 0. *)
  let head = ref 0 and tail = ref (if r < 0 then 0 else 1) in
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    let du = dist.(u) in
    if du < r then begin
      (* A [for] loop over the row, not [Array.iter]: a closure over [du]
         would be allocated once per dequeued vertex. *)
      let row = g.adj.(u) in
      for i = 0 to Array.length row - 1 do
        let w = row.(i) in
        if stamp.(w) <> epoch then begin
          stamp.(w) <- epoch;
          dist.(w) <- du + 1;
          order.(!tail) <- w;
          incr tail
        end
      done
    end
  done;
  (* Unreachable vertices are at distance [max_int], so they lie in
     [B_max_int(v)]: append them last, in id order. *)
  if r = max_int then
    for u = 0 to g.n - 1 do
      if stamp.(u) <> epoch then begin
        dist.(u) <- max_int;
        order.(!tail) <- u;
        incr tail
      end
    done;
  k ~order ~dist ~size:!tail

let with_ball g v r k = Stamp.use scratch g.n (fun s -> search g v r k s)

let iter_ball g v r f =
  with_ball g v r (fun ~order ~dist ~size ->
      for i = 0 to size - 1 do
        let u = order.(i) in
        f u dist.(u)
      done)

(* Distances in G^k are [⌈d_G/k⌉], so B_r(v) of G^k is B_{k·r}(v) of G:
   one host search, no power graph.  A host radius past [max_int] is
   clamped to [max_int], whose search also appends the unreachable
   vertices; those are outside every finite power ball, so [pd <= r]
   drops them unless [r = max_int] asks for them. *)
let iter_power_ball g ~k v r f =
  if k < 1 then invalid_arg "Graph.iter_power_ball: exponent must be >= 1";
  let host_r = if r < 0 then -1 else if r > max_int / k then max_int else k * r in
  with_ball g v host_r (fun ~order ~dist ~size ->
      for i = 0 to size - 1 do
        let u = order.(i) in
        let d = dist.(u) in
        let pd = if d = max_int then max_int else (d + k - 1) / k in
        if pd <= r then f u pd
      done)

(* The ball's vertices [order.(lo .. hi-1)], sorted by id. *)
let sorted_slice order lo hi =
  let a = Array.sub order lo (hi - lo) in
  Array.sort Int.compare a;
  a

let ball g v r = with_ball g v r (fun ~order ~dist:_ ~size -> sorted_slice order 0 size)

let ball_dist g v r =
  with_ball g v r (fun ~order ~dist ~size ->
      let vs = sorted_slice order 0 size in
      (vs, Array.map (fun u -> dist.(u)) vs))

let sphere g v r =
  with_ball g v r (fun ~order ~dist ~size ->
      (* BFS order has non-decreasing distance: the sphere is a suffix. *)
      let lo = ref size in
      while !lo > 0 && dist.(order.(!lo - 1)) = r do
        decr lo
      done;
      sorted_slice order !lo size)

let eccentricity g v =
  let d = bfs_distances g v in
  Array.fold_left (fun acc x -> if x = max_int then acc else max acc x) 0 d

let connected g =
  if g.n = 0 then true
  else
    let d = bfs_distances g 0 in
    Array.for_all (fun x -> x <> max_int) d

let diameter g =
  if g.n <= 1 then 0
  else if not (connected g) then max_int
  else
    let best = ref 0 in
    for v = 0 to g.n - 1 do
      best := max !best (eccentricity g v)
    done;
    !best

let components g =
  let comp = Array.make g.n (-1) in
  let next = ref 0 in
  for v = 0 to g.n - 1 do
    if comp.(v) = -1 then begin
      let id = !next in
      incr next;
      let queue = Queue.create () in
      comp.(v) <- id;
      Queue.add v queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Array.iter
          (fun w ->
            if comp.(w) = -1 then begin
              comp.(w) <- id;
              Queue.add w queue
            end)
          g.adj.(u)
      done
    end
  done;
  comp

let induced g vs =
  let vs = Array.copy vs in
  Array.sort compare vs;
  let k = Array.length vs in
  for i = 1 to k - 1 do
    if vs.(i) = vs.(i - 1) then invalid_arg "Graph.induced: duplicate vertex"
  done;
  let index = Hashtbl.create (2 * k) in
  Array.iteri (fun i v -> Hashtbl.replace index v i) vs;
  let edges = ref [] in
  Array.iteri
    (fun i v ->
      Array.iter
        (fun u ->
          if u > v then
            match Hashtbl.find_opt index u with
            | Some j -> edges := (i, j) :: !edges
            | None -> ())
        g.adj.(v))
    vs;
  (create ~n:k ~edges:!edges, vs)

let is_triangle_free g =
  try
    iter_edges g (fun u v ->
        Array.iter (fun w -> if w <> u && mem_edge g u w then raise Exit) g.adj.(v));
    true
  with Exit -> false

let is_forest g =
  (* A graph is a forest iff every component has |E| = |V| - 1, i.e.
     m = n - #components. *)
  let comp = components g in
  let k = Array.fold_left (fun acc c -> max acc (c + 1)) 0 comp in
  g.m = g.n - k

let complement g =
  let edges = ref [] in
  for u = 0 to g.n - 1 do
    for v = u + 1 to g.n - 1 do
      if not (mem_edge g u v) then edges := (u, v) :: !edges
    done
  done;
  create ~n:g.n ~edges:!edges

let union g1 g2 =
  if g1.n <> g2.n then invalid_arg "Graph.union: vertex count mismatch";
  create ~n:g1.n ~edges:(edges g1 @ edges g2)
