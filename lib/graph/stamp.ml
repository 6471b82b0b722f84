type 'p t = {
  mutable stamp : int array;
  ints : int array array;
  mutable epoch : int;
  mutable busy : bool;
  payload : 'p;
}

type 'p key = { scratch : 'p t Domain.DLS.key; ints : int; make : unit -> 'p }

let fresh ints make =
  { stamp = [||]; ints = Array.make ints [||]; epoch = 0; busy = false; payload = make () }

let key ~ints make = { scratch = Domain.DLS.new_key (fun () -> fresh ints make); ints; make }

let use k n f =
  let s = Domain.DLS.get k.scratch in
  let s = if s.busy then fresh k.ints k.make else s in
  if Array.length s.stamp < n then begin
    s.stamp <- Array.make n 0;
    for i = 0 to k.ints - 1 do
      s.ints.(i) <- Array.make n 0
    done;
    s.epoch <- 0
  end;
  s.epoch <- s.epoch + 1;
  s.busy <- true;
  match f s with
  | x ->
      s.busy <- false;
      x
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      s.busy <- false;
      Printexc.raise_with_backtrace e bt
