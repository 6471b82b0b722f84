module Graph = Ls_graph.Graph
module Stamp = Ls_graph.Stamp
module Dist = Ls_dist.Dist

(* Index of [x] in the sorted array [a], or -1. *)
let find a x =
  let rec bin lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = x then mid else if a.(mid) < x then bin (mid + 1) hi else bin lo mid
  in
  bin 0 (Array.length a)

let strictly_increasing a =
  let rec go i = i >= Array.length a || (a.(i - 1) < a.(i) && go (i + 1)) in
  go 1

(* This module's {!Stamp} scratch: [stamp.(u) = epoch] marks [u] as a
   member and [ints.(0)] holds where its value sits in the working
   configuration.  Its payload [ent] holds the completion entries, three
   ints each, grown by doubling. *)
type entries = { mutable ent : int array }

let scratch = Stamp.key ~ints:1 (fun () -> { ent = [||] })

(* A completion entry is [kind; base; other].  With the working
   configuration [x] and the completing vertex's value [c], its factor's
   value is, by kind:
   - 0, a vertex factor: [vertex.(base + c)];
   - 1, an edge factor: [edge.(base + c·q + x.(other))], [other] the
     other endpoint's slot (pinned, or assigned earlier);
   - 2, a factor of a general spec: the closure of [general.(base)]. *)
let push b i kind base other =
  if 3 * (i + 1) > Array.length b.ent then begin
    let ent = Array.make (max 48 (2 * Array.length b.ent)) 0 in
    Array.blit b.ent 0 ent 0 (3 * i);
    b.ent <- ent
  end;
  b.ent.(3 * i) <- kind;
  b.ent.((3 * i) + 1) <- base;
  b.ent.((3 * i) + 2) <- other

(* A factor of a general spec, its scope resolved once to slots of the
   working configuration; [vals] is its one values buffer, refilled at
   every evaluation. *)
type general = { table : int array -> float; src : int array; vals : int array }

let eval_general g x =
  for p = 0 to Array.length g.vals - 1 do
    g.vals.(p) <- x.(g.src.(p))
  done;
  g.table g.vals

(* Slot [u -> w] of the pairwise tables: the rank of [w] in [u]'s row. *)
let slot_of (tb : Spec.tables) u w =
  let rec bin lo hi =
    let mid = (lo + hi) / 2 in
    let d = tb.dst.(mid) in
    if d = w then mid else if d < w then bin (mid + 1) hi else bin lo mid
  in
  bin tb.off.(u) tb.off.(u + 1)

(* Is every vertex of [scope] from index [j] on a member that [tau] pins
   or that is assigned no later than [v]?  Free members are assigned in
   ascending order, so with [v] free this says that assigning [v]
   completes the factor; with [v = -1], that [tau] fixes it. *)
let rec completes (sc : _ Stamp.t) tau scope v j =
  j = Array.length scope
  ||
  let u = scope.(j) in
  sc.stamp.(u) = sc.epoch
  && (u <= v || tau.(u) <> Config.unassigned)
  && completes sc tau scope v (j + 1)

(* Enumerate the completions of [tau] over the sorted distinct [members]
   in the working configuration [x] and call [leaf w] at each one of
   positive weight.  When [local], [x] is indexed by position in
   [members] (its length at least theirs); otherwise [x] is a copy of
   [tau], indexed by vertex.  The order of the products is part of the
   output, since float products depend on it: the prefix over the fully
   pinned factors in ascending factor id, then at each assignment the
   factors it completes in [factors_of_vertex] order. *)
let enumerate spec ~members tau ~local x ~leaf =
  let n = Graph.n (Spec.graph spec) in
  let q = Spec.q spec and factors = Spec.factors spec and tables = Spec.tables spec in
  Stamp.use scratch n (fun sc ->
      let epoch = sc.epoch and stamp = sc.stamp and slot = sc.ints.(0) and k = ref 0 in
      Array.iteri
        (fun m u ->
          stamp.(u) <- epoch;
          slot.(u) <- (if local then m else u);
          let c = tau.(u) in
          if c = Config.unassigned then incr k
          else begin
            (* A pinned member's vertex factor is always evaluated, and
               its table read would refuse such a value. *)
            if tables <> None && (c < 0 || c >= q) then
              invalid_arg "Spec: value outside the alphabet";
            if local then x.(m) <- c
          end)
        members;
      let k = !k in
      (* The prefix: every factor already fully pinned, each found once
         from the smallest vertex of its scope, in ascending factor id. *)
      let pinned_ids = ref [] in
      Array.iter
        (fun u ->
          if tau.(u) <> Config.unassigned then
            Array.iter
              (fun i ->
                let scope = factors.(i).Spec.scope in
                if scope.(0) = u && completes sc tau scope (-1) 0 then
                  pinned_ids := i :: !pinned_ids)
              (Spec.factors_of_vertex spec u))
        members;
      let pinned_ids = Array.of_list !pinned_ids in
      Array.sort Int.compare pinned_ids;
      let prefix = ref 1. in
      Array.iter
        (fun i ->
          let scope = factors.(i).Spec.scope in
          prefix :=
            !prefix
            *.
            match tables with
            | Some tb when Array.length scope = 1 ->
                let u = scope.(0) in
                tb.vertex.((u * q) + tau.(u))
            | Some tb ->
                let a = scope.(0) and b = scope.(1) in
                tb.edge.((((slot_of tb a b * q) + tau.(a)) * q) + tau.(b))
            | None -> factors.(i).Spec.table (Array.map (fun u -> tau.(u)) scope))
        pinned_ids;
      let prefix = !prefix in
      if prefix <= 0. then ()
      else begin
        (* The free members in ascending order: the one of rank [i] is
           written at [x.(pos.(i))], and [start.(i) .. start.(i + 1) - 1]
           are the entries of the factors that assigning it completes. *)
        let pos = Array.make k 0 and start = Array.make (k + 1) 0 in
        let general = ref [] and ngeneral = ref 0 and i = ref 0 and e = ref 0 in
        Array.iter
          (fun v ->
            if tau.(v) = Config.unassigned then begin
              pos.(!i) <- slot.(v);
              start.(!i) <- !e;
              incr i;
              Array.iter
                (fun fi ->
                  let scope = factors.(fi).Spec.scope in
                  if completes sc tau scope v 0 then begin
                    (match tables with
                    | Some _ when Array.length scope = 1 -> push sc.payload !e 0 (v * q) (-1)
                    | Some tb ->
                        let o = if scope.(0) = v then scope.(1) else scope.(0) in
                        push sc.payload !e 1 (slot_of tb v o * q * q) slot.(o)
                    | None ->
                        let src = Array.map (fun u -> slot.(u)) scope in
                        let vals = Array.make (Array.length scope) 0 in
                        general := { table = factors.(fi).Spec.table; src; vals } :: !general;
                        push sc.payload !e 2 !ngeneral (-1);
                        incr ngeneral);
                    incr e
                  end)
                (Spec.factors_of_vertex spec v)
            end)
          members;
        start.(k) <- !e;
        let general = Array.of_list (List.rev !general) in
        let vertex, edge =
          match tables with Some tb -> (tb.vertex, tb.edge) | None -> ([||], [||])
        in
        let ent = sc.payload.ent in
        (* [ws.(i)] is the weight of the partial assignment of ranks below
           [i]; keeping it in a float array spares a boxed float per node. *)
        let ws = Array.make (k + 1) prefix in
        let rec go idx =
          let w = ws.(idx) in
          if w <= 0. then ()
          else if idx = k then leaf w
          else begin
            let p = pos.(idx) in
            for c = 0 to q - 1 do
              x.(p) <- c;
              let dw = ref 1. in
              for t = start.(idx) to start.(idx + 1) - 1 do
                let base = ent.((3 * t) + 1) in
                dw :=
                  !dw
                  *.
                  match ent.(3 * t) with
                  | 0 -> vertex.(base + c)
                  | 1 -> edge.(base + (c * q) + x.(ent.((3 * t) + 2)))
                  | _ -> eval_general general.(base) x
              done;
              ws.(idx + 1) <- w *. !dw;
              go (idx + 1)
            done
          end
        in
        go 0
      end)

let fold_completions spec ~members tau ~init ~f =
  if not (strictly_increasing members) then
    invalid_arg "Enumerate.fold_completions: members must be sorted and distinct";
  let acc = ref init and sigma = Array.copy tau in
  enumerate spec ~members tau ~local:false sigma ~leaf:(fun w -> acc := f !acc sigma w);
  !acc

let all_members spec = Array.init (Graph.n (Spec.graph spec)) Fun.id

let partition spec tau =
  fold_completions spec ~members:(all_members spec) tau ~init:0. ~f:(fun acc _ w ->
      acc +. w)

let feasible spec tau = partition spec tau > 0.

let distribution spec tau =
  let support =
    fold_completions spec ~members:(all_members spec) tau ~init:[]
      ~f:(fun acc sigma w -> (Array.copy sigma, w) :: acc)
  in
  let z = List.fold_left (fun acc (_, w) -> acc +. w) 0. support in
  if not (z > 0.) then failwith "Enumerate.distribution: infeasible pinning";
  List.rev_map (fun (sigma, w) -> (sigma, w /. z)) support

(* [v] is the free member at position [iv] of [members]. *)
let marginal_weights spec ~members tau iv =
  let weights = Array.make (Spec.q spec) 0. and x = Array.make (Array.length members) 0 in
  enumerate spec ~members tau ~local:true x ~leaf:(fun w ->
      weights.(x.(iv)) <- weights.(x.(iv)) +. w);
  if Array.for_all (fun w -> w <= 0.) weights then None
  else Some (Dist.of_weights weights)

let marginal spec tau v =
  let q = Spec.q spec in
  if Config.is_assigned tau v then
    if feasible spec tau then Some (Dist.point q tau.(v)) else None
  else marginal_weights spec ~members:(all_members spec) tau v

let ball_marginal spec ~ball tau v =
  let members =
    if strictly_increasing ball then ball
    else begin
      let members = Array.copy ball in
      Array.sort Int.compare members;
      Array.iteri
        (fun i u ->
          if i > 0 && members.(i - 1) = u then
            invalid_arg "Enumerate.ball_marginal: duplicate vertex in ball")
        members;
      members
    end
  in
  let iv = find members v in
  if iv < 0 then invalid_arg "Enumerate.ball_marginal: v not in ball";
  if Config.is_assigned tau v then Some (Dist.point (Spec.q spec) tau.(v))
  else marginal_weights spec ~members tau iv

let count_feasible spec =
  let n = Graph.n (Spec.graph spec) in
  fold_completions spec ~members:(all_members spec) (Config.empty n) ~init:0
    ~f:(fun acc _ _ -> acc + 1)
