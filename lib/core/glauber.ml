module Gibbs = Ls_gibbs
module Dist = Ls_dist.Dist
module Rng = Ls_rng.Rng

type state = { config : int array; inst : Instance.t; free : int array }

let free_of inst = Array.of_list (Instance.free_vertices inst)

let init inst =
  match Gibbs.Admissible.greedy_extension inst.Instance.spec inst.Instance.pinned with
  | Some config -> { config; inst; free = free_of inst }
  | None -> failwith "Glauber.init: greedy extension failed"

let init_from inst config =
  if Array.length config <> Instance.n inst then
    invalid_arg "Glauber.init_from: size mismatch";
  Array.iteri
    (fun v c ->
      if Instance.is_pinned inst v && inst.Instance.pinned.(v) <> c then
        invalid_arg "Glauber.init_from: configuration violates the pinning")
    config;
  { config = Array.copy config; inst; free = free_of inst }

let resample st rng v =
  let saved = st.config.(v) in
  st.config.(v) <- Gibbs.Config.unassigned;
  (match Gibbs.Spec.conditional st.inst.Instance.spec st.config v with
  | Some d -> st.config.(v) <- Dist.sample rng d
  | None -> st.config.(v) <- saved)

let step st rng =
  let k = Array.length st.free in
  if k > 0 then resample st rng st.free.(Rng.int rng k)

let sweep st rng =
  let order = Array.copy st.free in
  Rng.shuffle rng order;
  Array.iter (fun v -> resample st rng v) order

let sample_many inst ~sweeps ~thin ~count ~rng =
  let st = init inst in
  for _i = 1 to sweeps do
    sweep st rng
  done;
  let samples = ref [] in
  for _i = 1 to count do
    for _j = 1 to thin do
      sweep st rng
    done;
    samples := Array.copy st.config :: !samples
  done;
  List.rev !samples
