module Graph = Ls_graph.Graph
module Dist = Ls_dist.Dist

type factor = { scope : int array; table : int array -> float }

type pairwise = {
  vertex_weight : int -> int -> float;
  edge_weight : int -> int -> int -> int -> float;
}

type tables = {
  vertex : float array;
  off : int array;
  dst : int array;
  edge : float array;
  rev : int array;
  live : bool array;
}

type t = {
  graph : Graph.t;
  q : int;
  factors : factor array;
  factors_of_vertex : int array array;
  locality : int;
  pairwise : pairwise option;
  tables : tables option;
}

(* Largest graph distance between two vertices of [scope].  Each BFS stops
   as soon as it has reached every scope vertex, so a pairwise scope costs
   one adjacency scan per endpoint.  [seen]/[target] are n-length stamp
   buffers shared by all the scopes of one spec (one [epoch] per BFS, one
   [tag] per scope), so nothing is cleared between searches. *)
type bfs = {
  seen : int array;
  dist : int array;
  queue : int array;
  target : int array;
  mutable epoch : int;
  mutable tag : int;
}

let scope_diameter g b scope =
  let k = Array.length scope in
  if k <= 1 then 0
  else begin
    b.tag <- b.tag + 1;
    let tag = b.tag in
    Array.iter (fun u -> b.target.(u) <- tag) scope;
    let worst = ref 0 in
    Array.iter
      (fun src ->
        b.epoch <- b.epoch + 1;
        let epoch = b.epoch in
        b.seen.(src) <- epoch;
        b.dist.(src) <- 0;
        b.queue.(0) <- src;
        let head = ref 0 and tail = ref 1 and missing = ref (k - 1) in
        while !missing > 0 && !head < !tail do
          let u = b.queue.(!head) in
          incr head;
          let du = b.dist.(u) + 1 in
          Array.iter
            (fun w ->
              if b.seen.(w) <> epoch then begin
                b.seen.(w) <- epoch;
                b.dist.(w) <- du;
                b.queue.(!tail) <- w;
                incr tail;
                if b.target.(w) = tag then begin
                  decr missing;
                  worst := max !worst du
                end
              end)
            (Graph.neighbors g u)
        done;
        if !missing > 0 then
          invalid_arg "Spec.create: scope spans disconnected vertices")
      scope;
    !worst
  end

let build graph ~q ~factors ~pairwise ~tables =
  if q < 1 then invalid_arg "Spec: alphabet must be non-empty";
  let factors = Array.of_list factors in
  let n = Graph.n graph in
  Array.iter
    (fun f ->
      Array.iteri
        (fun i v ->
          if v < 0 || v >= n then invalid_arg "Spec: scope vertex out of range";
          if i > 0 && f.scope.(i - 1) >= v then
            invalid_arg "Spec: scope must be sorted and distinct")
        f.scope;
      if Array.length f.scope = 0 then invalid_arg "Spec: empty scope")
    factors;
  let per_vertex = Array.make n [] in
  Array.iteri
    (fun i f ->
      Array.iter (fun v -> per_vertex.(v) <- i :: per_vertex.(v)) f.scope)
    factors;
  let factors_of_vertex = Array.map (fun l -> Array.of_list (List.rev l)) per_vertex in
  let locality =
    let b =
      {
        seen = Array.make n 0;
        dist = Array.make n 0;
        queue = Array.make n 0;
        target = Array.make n 0;
        epoch = 0;
        tag = 0;
      }
    in
    Array.fold_left (fun acc f -> max acc (scope_diameter graph b f.scope)) 0 factors
  in
  { graph; q; factors; factors_of_vertex; locality; pairwise; tables }

let create graph ~q ~factors = build graph ~q ~factors ~pairwise:None ~tables:None

let[@inline] fmax (x0 : float) (x1 : float) =
  if x0 <> x0 then x0 else if x1 > x0 || x1 <> x1 then x1 else x0

let peak (a : float array) pos len =
  let acc = ref 0. in
  for i = pos to pos + len - 1 do
    acc := fmax !acc a.(i)
  done;
  !acc

(* [c] as a table index, when it is a value of the alphabet. *)
let colour q c =
  if c < 0 || c >= q then invalid_arg "Spec: value outside the alphabet" else c

let create_pairwise graph ~q pw =
  if q < 1 then invalid_arg "Spec: alphabet must be non-empty";
  let n = Graph.n graph in
  (* False for a negative, infinite or NaN weight. *)
  let ok x = x >= 0. && x < infinity in
  let bad what x =
    invalid_arg
      (Printf.sprintf "Spec.create_pairwise: %s = %g is not a finite non-negative weight"
         what x)
  in
  let vertex =
    Array.init (n * q) (fun i ->
        let x = pw.vertex_weight (i / q) (i mod q) in
        if not (ok x) then bad (Printf.sprintf "vertex_weight %d %d" (i / q) (i mod q)) x;
        x)
  in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Graph.degree graph u
  done;
  let slots = off.(n) in
  let dst = Array.make slots 0 and rev = Array.make slots 0 in
  let edge = Array.make (slots * q * q) 0. in
  let vertex_factor v =
    { scope = [| v |]; table = (fun vals -> vertex.((v * q) + colour q vals.(0))) }
  in
  (* Scope sorted, so vals.(0) belongs to [u], the row vertex of slot [s]. *)
  let edge_factor u w s =
    {
      scope = [| u; w |];
      table = (fun vals -> edge.((((s * q) + colour q vals.(0)) * q) + colour q vals.(1)));
    }
  in
  (* Rows are sorted and [u] runs upwards, so the [k]-th time [w] is met
     as a destination, the source is the [k]-th entry of [w]'s row.  By
     the time [u] meets a smaller [w], slot [w -> u] is filled, and slot
     [u -> w] holds its transpose.  Edges are met in [Graph.iter_edges]
     order. *)
  let seen = Array.make n 0 and edge_factors = ref [] in
  for u = 0 to n - 1 do
    let row = Graph.neighbors graph u in
    for i = 0 to Array.length row - 1 do
      let w = row.(i) and s = off.(u) + i in
      dst.(s) <- w;
      rev.(s) <- seen.(w);
      seen.(w) <- seen.(w) + 1;
      let back = off.(w) + rev.(s) in
      for j = 0 to (q * q) - 1 do
        let cu = j / q and cw = j mod q in
        edge.((s * q * q) + j) <-
          (if u > w then edge.((back * q * q) + (cw * q) + cu)
           else begin
             let x = pw.edge_weight u w cu cw in
             if not (ok x) then bad (Printf.sprintf "edge_weight %d %d %d %d" u w cu cw) x;
             x
           end)
      done;
      if u < w then edge_factors := edge_factor u w s :: !edge_factors
    done
  done;
  (* The SAW walk's guarantee per spin, derived in [Saw]'s interface:
     the smallest weight [lo] on spin [c]'s side (its vertex weights and
     its row of every slot), the largest entry [hi] and the maximum
     degree [Δ] satisfy [hi ≤ 2^26] and [lo·(lo/2hi)^(Δ+1) ≥ 2^-70]. *)
  let live =
    if q <> 2 then Array.make q false
    else begin
      (* One pass over each table: [vertex.(2u + c)] and
         [edge.(4s + 2c + cw)] are on spin [c]'s side. *)
      let hi = ref 0. and lo0 = ref infinity and lo1 = ref infinity in
      for i = 0 to (2 * n) - 1 do
        let x = vertex.(i) in
        if x > !hi then hi := x;
        if i land 1 = 0 then (if x < !lo0 then lo0 := x) else if x < !lo1 then lo1 := x
      done;
      for i = 0 to (4 * slots) - 1 do
        let x = edge.(i) in
        if x > !hi then hi := x;
        if i land 2 = 0 then (if x < !lo0 then lo0 := x) else if x < !lo1 then lo1 := x
      done;
      let hi = !hi and power = float_of_int (Graph.max_degree graph + 1) in
      let ok lo = lo > 0. && hi <= 0x1p26 && lo *. ((lo /. (2. *. hi)) ** power) >= 0x1p-70 in
      [| ok !lo0; ok !lo1 |]
    end
  in
  build graph ~q
    ~factors:(List.init n vertex_factor @ !edge_factors)
    ~pairwise:(Some pw) ~tables:(Some { vertex; off; dst; edge; rev; live })

let graph s = s.graph
let q s = s.q
let locality s = s.locality
let factors s = s.factors
let factors_of_vertex s v = s.factors_of_vertex.(v)
let as_pairwise s = s.pairwise
let tables s = s.tables

let factor_value s i tau =
  let f = s.factors.(i) in
  let k = Array.length f.scope in
  let vals = Array.make k 0 in
  let rec fill j =
    if j = k then Some (f.table vals)
    else
      let c = tau.(f.scope.(j)) in
      if c = Config.unassigned then None
      else begin
        vals.(j) <- c;
        fill (j + 1)
      end
  in
  fill 0

(* Fold [f] over the value of every factor of a total configuration. *)
let fold_factors name s tau ~init ~f =
  if not (Config.is_total tau) then
    invalid_arg (name ^ ": configuration not total");
  let acc = ref init in
  Array.iteri (fun i _ -> acc := f !acc (Option.get (factor_value s i tau))) s.factors;
  !acc

let weight s tau = fold_factors "Spec.weight" s tau ~init:1. ~f:( *. )
let log_weight s tau =
  let w = weight s tau in
  if Float.classify_float w = FP_normal && w > 0. then log w
  else fold_factors "Spec.log_weight" s tau ~init:0. ~f:(fun w x -> w +. log x)

let weight_in s ~member tau =
  let w = ref 1. in
  Array.iteri
    (fun i f ->
      if Array.for_all member f.scope then
        match factor_value s i tau with
        | Some x -> w := !w *. x
        | None -> invalid_arg "Spec.weight_in: unassigned vertex inside the set")
    s.factors;
  !w

let locally_feasible s tau =
  let ok = ref true in
  Array.iteri
    (fun i _ ->
      if !ok then
        match factor_value s i tau with
        | Some x -> if x <= 0. then ok := false
        | None -> ())
    s.factors;
  !ok

let conditional s tau v =
  let scratch = Array.copy tau in
  let weights =
    Array.init s.q (fun c ->
        scratch.(v) <- c;
        let w = ref 1. in
        Array.iter
          (fun i ->
            match factor_value s i scratch with
            | Some x -> w := !w *. x
            | None ->
                invalid_arg
                  "Spec.conditional: a scope containing v has another \
                   unassigned vertex")
          s.factors_of_vertex.(v);
        !w)
  in
  if Array.for_all (fun w -> w <= 0.) weights then None
  else Some (Dist.of_weights weights)
