(* Process-global degraded-mode registry: the state machine's spine.

   A subsystem ("snapshot", "accept", "checkpoint", "fork") enters a
   degraded mode when a resource fault forces it to shed work, and
   exits when the operation succeeds again.  The registry keeps the
   current set, and makes every {e transition} observable: an enter
   emits {!Trace.Degraded_enter} + bumps [degraded_enters], an exit
   emits {!Trace.Degraded_exit} + bumps [degraded_exits].  Re-entering
   an already-degraded subsystem only refreshes the reason — no event,
   no double-count — so at any clean shutdown enters = exits, the
   pairing invariant the chaos suite checks from the trace.

   The registry is what the serve [Health] protocol frame and
   [locsample health] report. *)

let m = Mutex.create ()
let tbl : (string, string) Hashtbl.t = Hashtbl.create 8

type status = Healthy | Degraded of (string * string) list

let set_degraded ~subsystem ~reason =
  Mutex.lock m;
  let fresh = not (Hashtbl.mem tbl subsystem) in
  Hashtbl.replace tbl subsystem reason;
  Mutex.unlock m;
  if fresh then begin
    Trace.to_ambient (Trace.Degraded_enter { subsystem; reason });
    Metrics.bump Metrics.degraded_enters
  end

let clear ~subsystem =
  Mutex.lock m;
  let had = Hashtbl.mem tbl subsystem in
  Hashtbl.remove tbl subsystem;
  Mutex.unlock m;
  if had then begin
    Trace.to_ambient (Trace.Degraded_exit { subsystem });
    Metrics.bump Metrics.degraded_exits
  end

(* Sorted for deterministic wire payloads and [describe] strings. *)
let degraded () =
  Mutex.lock m;
  let l = Hashtbl.fold (fun s r acc -> (s, r) :: acc) tbl [] in
  Mutex.unlock m;
  List.sort compare l

let status () =
  match degraded () with [] -> Healthy | l -> Degraded l

let is_degraded () =
  Mutex.lock m;
  let d = Hashtbl.length tbl > 0 in
  Mutex.unlock m;
  d

let clear_all () =
  List.iter (fun (subsystem, _) -> clear ~subsystem) (degraded ())

let reset () =
  Mutex.lock m;
  Hashtbl.reset tbl;
  Mutex.unlock m

let describe () =
  match degraded () with
  | [] -> "ok"
  | l ->
      Printf.sprintf "degraded(%s)"
        (String.concat ";"
           (List.map (fun (s, r) -> Printf.sprintf "%s=%s" s r) l))
