(* Deterministic syscall fault injection: the plan behind the
   {!Ls_shard.Sysio} hook.

   Every consultation draws its verdict from a hash of
   (seed, operation, site, per-site count, dimension) — the same trick
   the message-fault layer plays with (round, src, dst, copy) and the
   socket proxy with (connection, direction, frame).  Nothing is drawn
   from wall time or a stateful rng, so installing the same spec and
   resetting the counts replays the same fault schedule bit for bit.

   Site discrimination keeps injected faults inside their blast radius:
   ENOSPC targets only disk sites ("ckpt.*", "pidfile.*"), so a serve
   response written to a socket can at worst be delayed by a transparent
   short write or EINTR — never failed — and the byte-identity invariant
   of the serve chaos suite stays checkable under injection.

   [ops_budget] bounds faults to the first N consultations of the
   process (0 = unlimited): after the budget, every verdict is Pass, so
   a schedule deterministically clears and recovery — degraded exits,
   health returning to ok — can be asserted, not just hoped for. *)

module Frame = Ls_shard.Frame
module Sysio = Ls_shard.Sysio

type spec = {
  seed : int64;
  write_fail : float;  (* ENOSPC on disk writes *)
  rename_fail : float;  (* ENOSPC on disk renames *)
  open_fail : float;  (* ENOSPC on disk opens *)
  short_write : float;  (* short writes (any write site; transparent) *)
  eintr : float;  (* synthetic EINTR (any retried site; transparent) *)
  accept_fail : float;  (* EMFILE/ENFILE on accept *)
  fork_fail : float;  (* EAGAIN on fork *)
  ops_budget : int;  (* consultations before the schedule goes quiet; 0 = never *)
}

let quiet seed =
  {
    seed;
    write_fail = 0.;
    rename_fail = 0.;
    open_fail = 0.;
    short_write = 0.;
    eintr = 0.;
    accept_fail = 0.;
    fork_fail = 0.;
    ops_budget = 0;
  }

let is_quiet s =
  s.write_fail = 0. && s.rename_fail = 0. && s.open_fail = 0.
  && s.short_write = 0. && s.eintr = 0. && s.accept_fail = 0.
  && s.fork_fail = 0.

(* One canonical string form, both directions: what --sysfault and
   LOCSAMPLE_SYSFAULT parse is exactly what reproducers print. *)
let to_string s =
  Printf.sprintf
    "seed=%Ld,write=%g,rename=%g,open=%g,short=%g,eintr=%g,accept=%g,fork=%g,budget=%d"
    s.seed s.write_fail s.rename_fail s.open_fail s.short_write s.eintr
    s.accept_fail s.fork_fail s.ops_budget

let describe = to_string

let of_string str =
  let ( let* ) = Result.bind in
  let rate v =
    match float_of_string_opt v with
    | Some f when f >= 0. && f <= 1. -> Ok f
    | _ -> Error (Printf.sprintf "rate %S: expected a float in [0, 1]" v)
  in
  let fields = String.split_on_char ',' (String.trim str) in
  List.fold_left
    (fun acc field ->
      let* s = acc in
      match String.index_opt field '=' with
      | None when String.trim field = "" -> Ok s
      | None -> Error (Printf.sprintf "sysfault field %S: expected KEY=VALUE" field)
      | Some i -> (
          let k = String.trim (String.sub field 0 i) in
          let v =
            String.trim
              (String.sub field (i + 1) (String.length field - i - 1))
          in
          match k with
          | "seed" -> (
              match Int64.of_string_opt v with
              | Some seed -> Ok { s with seed }
              | None -> Error (Printf.sprintf "sysfault seed %S: expected an integer" v))
          | "write" ->
              let* r = rate v in
              Ok { s with write_fail = r }
          | "rename" ->
              let* r = rate v in
              Ok { s with rename_fail = r }
          | "open" ->
              let* r = rate v in
              Ok { s with open_fail = r }
          | "short" ->
              let* r = rate v in
              Ok { s with short_write = r }
          | "eintr" ->
              let* r = rate v in
              Ok { s with eintr = r }
          | "accept" ->
              let* r = rate v in
              Ok { s with accept_fail = r }
          | "fork" ->
              let* r = rate v in
              Ok { s with fork_fail = r }
          | "budget" -> (
              match int_of_string_opt v with
              | Some b when b >= 0 -> Ok { s with ops_budget = b }
              | _ ->
                  Error
                    (Printf.sprintf "sysfault budget %S: expected an integer >= 0" v))
          | _ ->
              Error
                (Printf.sprintf
                   "sysfault key %S: expected seed, write, rename, open, \
                    short, eintr, accept, fork or budget"
                   k)))
    (Ok (quiet 1L)) fields

(* --- deterministic verdicts -------------------------------------------- *)

let draw spec ~op ~site ~count ~dim =
  let h =
    Frame.digest64
      (Printf.sprintf "%Lx|%s|%s|%d|%s" spec.seed (Sysio.op_name op) site
         count dim)
  in
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.

let disk_site site =
  String.starts_with ~prefix:"ckpt." site
  || String.starts_with ~prefix:"pidfile." site

(* The pure verdict function, exposed for the replay test.  [total] is
   the process-wide consultation index (the budget clock); [count] the
   per-(op, site) index (the hash coordinate). *)
let decide spec ~total ~op ~site ~count =
  if spec.ops_budget > 0 && total >= spec.ops_budget then Sysio.Pass
  else
    let d dim = draw spec ~op ~site ~count ~dim in
    match op with
    | Sysio.Write ->
        if disk_site site && d "enospc" < spec.write_fail then
          Sysio.Fail Unix.ENOSPC
        else if d "eintr" < spec.eintr then Sysio.Intr
        else if d "short" < spec.short_write then
          Sysio.Short (1 + int_of_float (d "shortlen" *. 64.))
        else Sysio.Pass
    | Sysio.Rename ->
        if disk_site site && d "enospc" < spec.rename_fail then
          Sysio.Fail Unix.ENOSPC
        else if d "eintr" < spec.eintr then Sysio.Intr
        else Sysio.Pass
    | Sysio.Open ->
        if disk_site site && d "enospc" < spec.open_fail then
          Sysio.Fail Unix.ENOSPC
        else if d "eintr" < spec.eintr then Sysio.Intr
        else Sysio.Pass
    | Sysio.Close -> if d "eintr" < spec.eintr then Sysio.Intr else Sysio.Pass
    | Sysio.Accept ->
        if d "exhaust" < spec.accept_fail then
          Sysio.Fail (if d "which" < 0.5 then Unix.EMFILE else Unix.ENFILE)
        else if d "eintr" < spec.eintr then Sysio.Intr
        else Sysio.Pass
    | Sysio.Fork ->
        if d "eagain" < spec.fork_fail then Sysio.Fail Unix.EAGAIN
        else Sysio.Pass

(* --- installation ------------------------------------------------------ *)

let log_m = Mutex.create ()
let log : string list ref = ref []
let total = ref 0
let installed : spec option ref = ref None

let verdict_name = function
  | Sysio.Pass -> "pass"
  | Sysio.Fail e -> (
      match e with
      | Unix.ENOSPC -> "enospc"
      | Unix.EMFILE -> "emfile"
      | Unix.ENFILE -> "enfile"
      | Unix.EAGAIN -> "eagain"
      | e -> Unix.error_message e)
  | Sysio.Short k -> Printf.sprintf "short:%d" k
  | Sysio.Intr -> "eintr"

let install spec =
  Sysio.reset_counts ();
  Mutex.lock log_m;
  log := [];
  total := 0;
  Mutex.unlock log_m;
  installed := Some spec;
  Sysio.set_hook
    (Some
       (fun ~op ~site ~count ->
         Mutex.lock log_m;
         let t = !total in
         incr total;
         Mutex.unlock log_m;
         let v = decide spec ~total:t ~op ~site ~count in
         (match v with
         | Sysio.Pass -> ()
         | v ->
             Mutex.lock log_m;
             log :=
               Printf.sprintf "%s|%s|%d|%s" (Sysio.op_name op) site count
                 (verdict_name v)
               :: !log;
             Mutex.unlock log_m);
         v))

let uninstall () =
  Sysio.set_hook None;
  installed := None

let current () = !installed
let injected () = List.rev !log

(* --- environment ------------------------------------------------------- *)

let env =
  Ls_obs.Env.declare "LOCSAMPLE_SYSFAULT"
    ~default:(fun () -> None)
    (fun s -> Result.map Option.some (of_string s))

let install_from_env () =
  match Ls_obs.Env.get env with
  | Some spec when not (is_quiet spec) -> install spec
  | _ -> ()
