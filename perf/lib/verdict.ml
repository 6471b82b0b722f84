(* The verdict rule for one (workload, metric) across two sets of runs.

   A gain needs the change to win at least nine tenths of the pairs
   (A.(i), B.(i)), ties counting for neither, and the medians to differ
   by more than the parent's IQR.  When either side's spread exceeds the
   bound the comparison is unresolved, unless every run of the change
   reads better than every run of the parent.  Otherwise a median worse
   than the parent's by more than the bound is a regression. *)

type better = Higher | Lower
type t = Improved | Within_bound | Regressed | Unresolved | Diagnostic

let name = function
  | Improved -> "improved"
  | Within_bound -> "within bound"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Diagnostic -> "diagnostic"

let better_of_string = function
  | "higher" -> Some Higher
  | "lower" -> Some Lower
  | _ -> None

(* [beats better x y]: x reads strictly better than y. *)
let beats better x y = match better with Higher -> x > y | Lower -> x < y

let decide ~better ~bound a b =
  match bound with
  | None -> Diagnostic
  | Some bound ->
      let ma = Stats.median a and mb = Stats.median b in
      let pairs = min (Array.length a) (Array.length b) in
      let wins = ref 0 in
      for i = 0 to pairs - 1 do
        if beats better b.(i) a.(i) then incr wins
      done;
      let spread xs = if Array.length xs < 2 then 0. else Stats.spread xs in
      let iqr_a = if Array.length a < 2 then 0. else Stats.iqr a in
      let all_better =
        Array.for_all (fun y -> Array.for_all (fun x -> beats better y x) a) b
      in
      let worse_by =
        (match better with Higher -> ma -. mb | Lower -> mb -. ma)
        /. Float.abs ma
      in
      if
        pairs > 0
        && 10 * !wins >= 9 * pairs
        && beats better mb ma
        && Float.abs (mb -. ma) > iqr_a
      then Improved
      else if Float.max (spread a) (spread b) > bound && not all_better then
        Unresolved
      else if worse_by > bound then Regressed
      else Within_bound
