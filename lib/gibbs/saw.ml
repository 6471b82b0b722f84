module Graph = Ls_graph.Graph
module Dist = Ls_dist.Dist

let supported spec = Spec.q spec = 2 && Spec.as_pairwise spec <> None

(* Flat tables over the directed adjacency slots: slot [s] in
   [off.(u) .. off.(u + 1) - 1] is the edge [u -> dst.(s)], in the sorted
   order of [Graph.neighbors g u], so [s - off.(u)] is the rank of that
   edge in [u]'s local edge order. *)
type t = {
  w0 : float array;  (** [vertex_weight u 0]. *)
  w1 : float array;  (** [vertex_weight u 1]. *)
  off : int array;  (** Row offsets, length [n + 1]. *)
  dst : int array;
  a : float array;
      (** [a.(4s + 2su + sw)]: the edge matrix of slot [s] oriented from
          [u] to [w], i.e. [edge_weight] with its endpoints in id order. *)
  rev : int array;  (** Rank of [u] in [w]'s row, for slot [u -> w]. *)
}

let compile spec =
  if not (supported spec) then
    invalid_arg "Saw.compile: spec must be pairwise with a binary alphabet";
  let pw = Option.get (Spec.as_pairwise spec) in
  let g = Spec.graph spec in
  let n = Graph.n g in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Graph.degree g u
  done;
  let slots = off.(n) in
  let dst = Array.make slots 0 and rev = Array.make slots 0 in
  let a = Array.make (4 * slots) 0. in
  (* Rows are sorted and [u] runs upwards, so the [k]-th time [w] is met
     as a destination, the source is the [k]-th entry of [w]'s row.  By
     the time [u] meets a smaller [w], slot [w -> u] is filled, and slot
     [u -> w] holds its transpose. *)
  let seen = Array.make n 0 in
  for u = 0 to n - 1 do
    let row = Graph.neighbors g u in
    for i = 0 to Array.length row - 1 do
      let w = row.(i) in
      let s = off.(u) + i in
      dst.(s) <- w;
      rev.(s) <- seen.(w);
      seen.(w) <- seen.(w) + 1;
      let k = 4 * s in
      if u < w then
        for j = 0 to 3 do
          a.(k + j) <- pw.Spec.edge_weight u w (j / 2) (j mod 2)
        done
      else begin
        let back = 4 * (off.(w) + rev.(s)) in
        a.(k) <- a.(back);
        a.(k + 1) <- a.(back + 2);
        a.(k + 2) <- a.(back + 1);
        a.(k + 3) <- a.(back + 3)
      end
    done
  done;
  {
    w0 = Array.init n (fun u -> pw.Spec.vertex_weight u 0);
    w1 = Array.init n (fun u -> pw.Spec.vertex_weight u 1);
    off;
    dst;
    a;
    rev;
  }

(* The return slot of the recursion: an all-float record is stored flat,
   so writing a result into it allocates nothing. *)
type pair = { mutable p0 : float; mutable p1 : float }

let run c ~depth tau v =
  if depth < 0 then invalid_arg "Saw.run: negative depth";
  let n = Array.length c.w0 in
  if Array.length tau <> n then invalid_arg "Saw.run: pinning of another size";
  if Config.is_assigned tau v then Some (Dist.point 2 tau.(v))
  else begin
    let { w0; w1; off; dst; a; rev } = c in
    let on_path = Array.make n false in
    let exit_rank = Array.make n (-1) in
    let ret = { p0 = 0.; p1 = 0. } in
    (* [pair u ~parent budget] leaves in [ret] the unnormalized (p0, p1)
       at the SAW-tree node for vertex [u], reached from [parent] (-1 at
       the root).  The walk may not reverse through its entry edge, so
       [parent] is skipped; in a simple graph no other edge leads back to
       it. *)
    let rec pair u ~parent budget =
      let p0 = ref w0.(u) and p1 = ref w1.(u) in
      if budget > 0 then begin
        on_path.(u) <- true;
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
                invalid_arg "Saw.run: pinned value outside {0, 1}"
              else if on_path.(w) then if rev.(s) > exit_rank.(w) then 1 else 0
              else -1
            in
            if col >= 0 then begin
              p0 := !p0 *. a.(k + col);
              p1 := !p1 *. a.(k + 2 + col)
            end
            else begin
              exit_rank.(u) <- s - off.(u);
              pair w ~parent:u (budget - 1);
              let q0 = ret.p0 and q1 = ret.p1 in
              p0 := !p0 *. ((a.(k) *. q0) +. (a.(k + 1) *. q1));
              p1 := !p1 *. ((a.(k + 2) *. q0) +. (a.(k + 3) *. q1))
            end;
            (* Rescale to dodge under/overflow on deep recursions. *)
            let peak = Float.max !p0 !p1 in
            if peak > 0. && (peak > 1e150 || peak < 1e-150) then begin
              p0 := !p0 /. peak;
              p1 := !p1 /. peak
            end
          end
        done;
        on_path.(u) <- false;
        exit_rank.(u) <- -1
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
  end

let marginal ~depth spec tau v = run (compile spec) ~depth tau v
