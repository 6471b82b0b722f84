let unassigned = -1

type t = int array

let empty n = Array.make n unassigned

let of_pinning n pins =
  let tau = empty n in
  List.iter
    (fun (v, c) ->
      if v < 0 || v >= n then invalid_arg "Config.of_pinning: vertex out of range";
      if c < 0 then invalid_arg "Config.of_pinning: negative value";
      if tau.(v) <> unassigned && tau.(v) <> c then
        invalid_arg "Config.of_pinning: conflicting pinning";
      tau.(v) <- c)
    pins;
  tau

let is_assigned tau v = tau.(v) <> unassigned

let assigned_vertices tau =
  let acc = ref [] in
  for v = Array.length tau - 1 downto 0 do
    if tau.(v) <> unassigned then acc := v :: !acc
  done;
  !acc

let num_assigned tau =
  Array.fold_left (fun acc c -> if c <> unassigned then acc + 1 else acc) 0 tau

let is_total tau = Array.for_all (fun c -> c <> unassigned) tau

let diff_domain tau1 tau2 =
  if Array.length tau1 <> Array.length tau2 then
    invalid_arg "Config.diff_domain: size mismatch";
  let acc = ref [] in
  for v = Array.length tau1 - 1 downto 0 do
    if tau1.(v) <> tau2.(v) then acc := v :: !acc
  done;
  !acc

let values_in_range tau q =
  Array.for_all (fun c -> c = unassigned || (c >= 0 && c < q)) tau
