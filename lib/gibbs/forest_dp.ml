module Graph = Ls_graph.Graph
module Stamp = Ls_graph.Stamp
module Dist = Ls_dist.Dist

type outcome = Not_forest | Marginal of Dist.t option

(* The indexed set, over this module's {!Stamp} scratch: [vs.(i)] is the
   vertex of local index [i], and [st] stamps each member with its local
   index in [ints.(0)]. *)
type set = { g : Graph.t; vs : int array; st : unit Stamp.t }

let scratch = Stamp.key ~ints:1 (fun () -> ())

let local { st; _ } u = if st.stamp.(u) = st.epoch then st.ints.(0).(u) else -1

let with_set g vs k =
  Stamp.use scratch (Graph.n g) (fun st ->
      let epoch = st.epoch and stamp = st.stamp and slot = st.ints.(0) in
      Array.iteri
        (fun i u ->
          if stamp.(u) = epoch then
            invalid_arg "Forest_dp.ball_marginal: duplicate vertex in ball";
          stamp.(u) <- epoch;
          slot.(u) <- i)
        vs;
      k { g; vs; st })

(* One traversal of the induced subgraph: label its components and count
   its edges.  Returns the component of each local index and the smallest
   vertex of each component (indexed by component), or [None] when the
   induced subgraph is not a forest, i.e. edges <> |set| - components. *)
let forest_components s =
  let k = Array.length s.vs in
  let comp = Array.make k (-1) and queue = Array.make k 0 in
  let ends = ref 0 and roots = ref [] and ncomp = ref 0 in
  for i = 0 to k - 1 do
    if comp.(i) < 0 then begin
      let id = !ncomp in
      incr ncomp;
      comp.(i) <- id;
      queue.(0) <- i;
      let head = ref 0 and tail = ref 1 and lo = ref s.vs.(i) in
      while !head < !tail do
        let u = s.vs.(queue.(!head)) in
        incr head;
        Array.iter
          (fun w ->
            let j = local s w in
            if j >= 0 then begin
              incr ends;
              if comp.(j) < 0 then begin
                comp.(j) <- id;
                queue.(!tail) <- j;
                incr tail;
                if w < !lo then lo := w
              end
            end)
          (Graph.neighbors s.g u)
      done;
      roots := !lo :: !roots
    end
  done;
  if !ends / 2 <> k - !ncomp then None
  else Some (comp, Array.of_list (List.rev !roots))

(* Bottom-up sum-product over the tree of the induced forest containing
   [root], rooted there.  [up] holds q weights per local index: after the
   pass, up.(i*q + c) = Σ over assignments of the subtree of vs.(i) with
   vs.(i) = c of the product of vertex and edge weights, respecting the
   pinning [tau], rescaled so each vector peaks at 1.  Children are
   combined in ascending vertex id, the order of [u]'s slots in [tb].
   Returns the local index of [root]. *)
let up_pass ?logscale (tb : Spec.tables) q tau s ~parent ~order ~up root =
  let r = local s root in
  parent.(r) <- -1;
  order.(0) <- r;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let i = order.(!head) in
    incr head;
    let u = s.vs.(i) and pi = parent.(i) in
    for sl = tb.off.(u) to tb.off.(u + 1) - 1 do
      let j = local s tb.dst.(sl) in
      if j >= 0 && j <> pi then begin
        parent.(j) <- i;
        order.(!tail) <- j;
        incr tail
      end
    done
  done;
  (* Reverse BFS order: children come before parents. *)
  for idx = !tail - 1 downto 0 do
    let i = order.(idx) in
    let u = s.vs.(i) and pi = parent.(i) and base = i * q in
    let pinned = tau.(u) in
    for c = 0 to q - 1 do
      up.(base + c) <-
        (if pinned <> Config.unassigned && pinned <> c then 0.
         else begin
           let acc = ref tb.vertex.((u * q) + c) in
           for sl = tb.off.(u) to tb.off.(u + 1) - 1 do
             let j = local s tb.dst.(sl) in
             if j >= 0 && j <> pi then begin
               (* Slot [u -> w]: [u]'s colour [c] first, the child's [cc]. *)
               let msg = ref 0. and row = ((sl * q) + c) * q in
               for cc = 0 to q - 1 do
                 msg := !msg +. (up.((j * q) + cc) *. tb.edge.(row + cc))
               done;
               acc := !acc *. !msg
             end
           done;
           !acc
         end)
    done;
    (* Rescale to dodge over/underflow on deep trees: marginals are
       invariant under positive scaling of a whole message. *)
    let peak = Spec.peak up base q in
    if peak > 0. then begin
      for c = 0 to q - 1 do
        up.(base + c) <- up.(base + c) /. peak
      done;
      match logscale with Some acc -> acc := !acc +. log peak | None -> ()
    end
  done;
  r

let vanishes up q r =
  let rec go c = c = q || (up.((r * q) + c) <= 0. && go (c + 1)) in
  go 0

let ball_marginal spec ~ball tau v =
  match Spec.tables spec with
  | None -> Not_forest
  | Some tb ->
      with_set (Spec.graph spec) ball (fun s ->
          if v < 0 || v >= Graph.n s.g || local s v < 0 then
            invalid_arg "Forest_dp.ball_marginal: v not in ball";
          let q = Spec.q spec in
          if Config.is_assigned tau v then Marginal (Some (Dist.point q tau.(v)))
          else
            match forest_components s with
            | None -> Not_forest
            | Some (comp, roots) ->
                let k = Array.length ball in
                let parent = Array.make k 0 and order = Array.make k 0 in
                let up = Array.make (k * q) 0. in
                let pass root = up_pass tb q tau s ~parent ~order ~up root in
                (* Other components contribute a constant factor; it cancels
                   in the normalization unless it is zero, in which case the
                   whole measure vanishes and the marginal is undefined. *)
                let cv = comp.(local s v) in
                let others_vanish = ref false in
                Array.iteri
                  (fun c root ->
                    if c <> cv && not !others_vanish then
                      others_vanish := vanishes up q (pass root))
                  roots;
                if !others_vanish then Marginal None
                else begin
                  let r = pass v in
                  if vanishes up q r then Marginal None
                  else Marginal (Some (Dist.of_weights (Array.sub up (r * q) q)))
                end)

let all_vertices spec = Array.init (Graph.n (Spec.graph spec)) Fun.id

let marginal spec tau v =
  if Spec.tables spec = None then
    invalid_arg "Forest_dp.marginal: spec is not pairwise";
  match ball_marginal spec ~ball:(all_vertices spec) tau v with
  | Marginal m -> m
  | Not_forest -> invalid_arg "Forest_dp.marginal: graph is not a forest"

let log_partition spec tau =
  match Spec.tables spec with
  | None -> invalid_arg "Forest_dp.log_partition: spec is not pairwise"
  | Some tb ->
      with_set (Spec.graph spec) (all_vertices spec) (fun s ->
          match forest_components s with
          | None -> invalid_arg "Forest_dp.log_partition: graph is not a forest"
          | Some (_, roots) ->
              (* Members are in ascending order, so [roots] is too: one
                 term per component, smallest root first. *)
              let q = Spec.q spec and k = Array.length s.vs in
              let parent = Array.make k 0 and order = Array.make k 0 in
              let up = Array.make (k * q) 0. in
              let total = ref 0. in
              (try
                 Array.iter
                   (fun root ->
                     let logscale = ref 0. in
                     let r = up_pass ~logscale tb q tau s ~parent ~order ~up root in
                     let z = ref 0. in
                     for c = 0 to q - 1 do
                       z := !z +. up.((r * q) + c)
                     done;
                     if !z > 0. then total := !total +. log !z +. !logscale
                     else begin
                       total := neg_infinity;
                       raise Exit
                     end)
                   roots
               with Exit -> ());
              !total)
