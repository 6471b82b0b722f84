(* Order statistics shared by the runner and by compare. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Python's [statistics.quantiles xs ~n:4] with its default "exclusive"
   method, so the spreads printed here are the ones the acceptance rule
   computes.  Needs at least two values. *)
let quartiles xs =
  let d = sorted xs in
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

let median xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then invalid_arg "Stats.median: empty"
  else if n mod 2 = 1 then d.(n / 2)
  else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

(* IQR as a share of the median: the run-to-run spread. *)
let spread xs = iqr xs /. Float.abs (median xs)

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile xs p =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then invalid_arg "Stats.percentile: empty";
  d.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* The highest reporting level that leaves at least ten samples above it,
   or [None] when even the median does not. *)
let levels = [ 0.5; 0.9; 0.99; 0.999 ]

let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))

let supported_level n =
  List.fold_left
    (fun acc p -> if beyond n p >= 10 then Some p else acc)
    None levels

let level_name p =
  let s = Printf.sprintf "%g" (p *. 100.) in
  "p" ^ String.concat "" (String.split_on_char '.' s)
