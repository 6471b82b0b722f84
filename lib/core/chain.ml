module Config = Ls_gibbs.Config
module Slocal = Ls_local.Slocal

(* [trail.(0 .. depth-1)] are the pinned vertices, oldest first. *)
type t = { live : Instance.t; mutable trail : int array; mutable depth : int }
type mark = int

let start inst =
  let live = { inst with Instance.pinned = Array.copy inst.Instance.pinned } in
  { live; trail = [||]; depth = 0 }

let instance c = c.live
let is_pinned c v = c.live.pinned.(v) <> Config.unassigned

let pin c v x =
  if is_pinned c v then invalid_arg "Chain.pin: vertex already pinned";
  if x < 0 || x >= Instance.q c.live then invalid_arg "Chain.pin: value out of alphabet";
  c.live.pinned.(v) <- x;
  if c.depth = Array.length c.trail then
    c.trail <- Array.append c.trail (Array.make (max 16 c.depth) 0);
  c.trail.(c.depth) <- v;
  c.depth <- c.depth + 1

let mark c = c.depth

let undo c m =
  while c.depth > m do
    c.depth <- c.depth - 1;
    c.live.pinned.(c.trail.(c.depth)) <- Config.unassigned
  done

let check_order inst order =
  let n = Instance.n inst in
  if Array.length order <> n then invalid_arg "Chain: order must list every vertex";
  let seen = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then invalid_arg "Chain: order is not a permutation";
      seen.(v) <- true)
    order

let run inst ~order ~choose =
  check_order inst order;
  let c = start inst in
  Array.iter (fun v -> if not (is_pinned c v) then pin c v (choose c.live v)) order;
  c.live.pinned

let slocal_pass inst rt ~order ~radius ~field ~store ~choose =
  check_order inst order;
  let c = start inst in
  Slocal.run_pass rt ~order ~radius (fun ctx ->
      let v = Slocal.center ctx in
      if not (is_pinned c v) then begin
        (* The chain sits at the caller's pinning between steps: pin what
           the ball shows, choose, and unpin. *)
        let m = mark c in
        Array.iter
          (fun u ->
            let x = field (Slocal.read ctx u) in
            if x <> Config.unassigned && not (is_pinned c u) then pin c u x)
          (Slocal.ball ctx);
        let x = choose ctx c.live v in
        undo c m;
        Slocal.write ctx v (store (Slocal.read ctx v) x)
      end)
