module Graph = Ls_graph.Graph
module Stamp = Ls_graph.Stamp
module Dist = Ls_dist.Dist

let supported spec = Spec.q spec = 2 && Spec.tables spec <> None

(* The return slot of the recursion: an all-float record is stored flat,
   so writing a result into it allocates nothing. *)
type pair = { mutable p0 : float; mutable p1 : float }

(* This module's {!Stamp} scratch holds the cycle-closing rule's state:
   [stamp.(u) = epoch] while [u] is on the current walk's path (0 once
   the walk leaves it), and [ints.(0).(u)] is then the rank, in [u]'s
   row, of the edge the walk left [u] by.  A call reads and writes only
   the vertices its walks reach. *)
let scratch = Stamp.key ~ints:1 (fun () -> ())

(* The spin that the pins in [v]'s row force: [c'] when a pinned
   neighbour's leaf factor is exactly 0 for spin [1 - c'] and none is for
   [c'], and [live.(c')] promises that the walk would end with exactly
   that point mass (see saw.mli); -1 otherwise, and on a pin outside
   {0, 1}, so the walk then runs and raises as it does without this
   test. *)
let forced_spin { Spec.off; dst; edge = a; live; _ } tau v =
  if not (live.(0) || live.(1)) then -1
  else begin
    let kill0 = ref false and kill1 = ref false and bad = ref false in
    for s = off.(v) to off.(v + 1) - 1 do
      let c = tau.(dst.(s)) in
      if c = 0 || c = 1 then begin
        if a.((4 * s) + c) = 0. then kill0 := true;
        if a.((4 * s) + 2 + c) = 0. then kill1 := true
      end
      else if c <> Config.unassigned then bad := true
    done;
    if !bad || !kill0 = !kill1 then -1
    else
      let c' = if !kill0 then 1 else 0 in
      if live.(c') then c' else -1
  end

(* The depth-[depth] walk from the free vertex [v]. *)
let walk ~depth { Spec.vertex; off; dst; edge = a; rev; _ } n tau v =
  (* With q = 2, [vertex.(2u + c)] and [a.(4s + 2su + sw)]. *)
  Stamp.use scratch n @@ fun sc ->
  let epoch = sc.epoch and mark = sc.stamp and exit_rank = sc.ints.(0) in
  let ret = { p0 = 0.; p1 = 0. } in
  (* [pair u ~parent budget] leaves in [ret] the unnormalized (p0, p1)
     at the SAW-tree node for vertex [u], reached from [parent] (-1 at
     the root).  The walk may not reverse through its entry edge, so
     [parent] is skipped; in a simple graph no other edge leads back to
     it. *)
  let rec pair u ~parent budget =
    let p0 = ref vertex.(2 * u) and p1 = ref vertex.((2 * u) + 1) in
    if budget > 0 then begin
      mark.(u) <- epoch;
      for s = off.(u) to off.(u + 1) - 1 do
        let w = dst.(s) in
        if w <> parent && (!p0 > 0. || !p1 > 0.) then begin
          let k = 4 * s in
          (* The spin of a leaf at [w], or -1 to descend: a conditioned
             leaf, or a cycle closure — a leaf pinned by Weitz's
             edge-order rule at the revisited vertex [w]. *)
          let col =
            let c = tau.(w) in
            if c = 0 || c = 1 then c
            else if c <> Config.unassigned then
              invalid_arg "Saw.marginal: pinned value outside {0, 1}"
            else if mark.(w) = epoch then if rev.(s) > exit_rank.(w) then 1 else 0
            else -1
          in
          if col >= 0 then begin
            p0 := !p0 *. a.(k + col);
            p1 := !p1 *. a.(k + 2 + col)
          end
          else begin
            (* A free child at budget 0 is a leaf with its vertex
               weights, read here rather than by a call. *)
            let q0 =
              if budget > 1 then begin
                exit_rank.(u) <- s - off.(u);
                pair w ~parent:u (budget - 1);
                ret.p0
              end
              else vertex.(2 * w)
            in
            let q1 = if budget > 1 then ret.p1 else vertex.((2 * w) + 1) in
            p0 := !p0 *. ((a.(k) *. q0) +. (a.(k + 1) *. q1));
            p1 := !p1 *. ((a.(k + 2) *. q0) +. (a.(k + 3) *. q1))
          end;
          (* Rescale to dodge under/overflow on deep recursions.  The
             peak is [Spec.fmax x0 x1] written out: under [-opaque]
             (dune's dev profile) a call into another module is not
             inlined and boxes both floats, a quarter of this loop. *)
          let x0 = !p0 and x1 = !p1 in
          let peak = if x0 <> x0 then x0 else if x1 > x0 || x1 <> x1 then x1 else x0 in
          if peak > 0. && (peak > 1e150 || peak < 1e-150) then begin
            p0 := x0 /. peak;
            p1 := x1 /. peak
          end
        end
      done;
      mark.(u) <- 0
    end;
    (* With the budget exhausted, [u] is a free leaf: vertex weight only
       (any fixed truncation works; the error is the SSM rate at the
       truncation distance). *)
    ret.p0 <- !p0;
    ret.p1 <- !p1
  in
  pair v ~parent:(-1) depth;
  let p0 = ret.p0 and p1 = ret.p1 in
  if p0 <= 0. && p1 <= 0. then None else Some (Dist.of_weights [| p0; p1 |])

let marginal ~depth spec tau v =
  if not (supported spec) then
    invalid_arg "Saw.marginal: spec must be pairwise with a binary alphabet";
  if depth < 0 then invalid_arg "Saw.marginal: negative depth";
  let n = Graph.n (Spec.graph spec) in
  if Array.length tau <> n then invalid_arg "Saw.marginal: pinning of another size";
  if Config.is_assigned tau v then Some (Dist.point 2 tau.(v))
  else begin
    let tb = Option.get (Spec.tables spec) in
    let forced = if depth > 0 then forced_spin tb tau v else -1 in
    if forced >= 0 then Some (Dist.point 2 forced) else walk ~depth tb n tau v
  end
