(* Syscall choke point: every IO operation the robustness story cares
   about — checkpoint/snapshot writes, renames, closes, the serve accept
   loop, worker forks — goes through one of these wrappers instead of
   calling [Unix] directly.  In production the wrappers are the raw
   syscalls plus the shared EINTR-retry discipline; under test a hook
   can be installed that decides each operation's fate before the real
   syscall runs (fail with a named [Unix.error], write short, or raise
   a synthetic EINTR).

   The hook receives deterministic coordinates: the operation, a [site]
   string naming the call site ("ckpt.write", "server.accept", ...) and
   a per-(op, site) consultation count.  [Ls_chaos.Sysfault] derives
   every verdict from a hash of those coordinates, so a failure
   schedule replays bit-identically — the same trick the message-fault
   layer plays with (round, src, dst, copy).

   Injected faults are raised {e before} the real syscall, so an
   injected EINTR or ENOSPC never leaves a half-performed operation
   behind: retry loops above this layer stay sound. *)

module Metrics = Ls_obs.Metrics

type op = Write | Rename | Close | Accept | Fork | Open

let op_name = function
  | Write -> "write"
  | Rename -> "rename"
  | Close -> "close"
  | Accept -> "accept"
  | Fork -> "fork"
  | Open -> "open"

type outcome =
  | Pass
  | Fail of Unix.error  (* raise before the syscall runs *)
  | Short of int  (* write at most this many bytes (clamped to >= 1) *)
  | Intr  (* synthetic EINTR before the syscall runs *)

type hook = op:op -> site:string -> count:int -> outcome

let the_hook : hook option ref = ref None
let counts : (string, int) Hashtbl.t = Hashtbl.create 32
let m = Mutex.create ()

let set_hook h = the_hook := h

let reset_counts () =
  Mutex.lock m;
  Hashtbl.reset counts;
  Mutex.unlock m

(* The per-(op, site) consultation index: the [count] coordinate of the
   hook's verdict hash.  Increments on every consultation, including
   retries — an EINTR storm is just several consecutive Intr verdicts at
   successive counts. *)
let next_count op site =
  let key = op_name op ^ "|" ^ site in
  Mutex.lock m;
  let n = Option.value (Hashtbl.find_opt counts key) ~default:0 in
  Hashtbl.replace counts key (n + 1);
  Mutex.unlock m;
  n

let consult ~op ~site =
  match !the_hook with
  | None -> Pass
  | Some h ->
      let verdict = h ~op ~site ~count:(next_count op site) in
      (match verdict with Pass -> () | _ -> Metrics.bump Metrics.sysfaults);
      verdict

(* The one EINTR-retry discipline (satellite of the Frame full-IO
   loops): run [f] again for as long as it raises EINTR.  Callers put
   the hook consultation {e inside} [f], so each retry draws a fresh
   verdict — a storm of injected EINTRs terminates when the schedule
   says so, and the retry path itself is what gets exercised. *)
let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let write ~site fd buf off len =
  match consult ~op:Write ~site with
  | Pass -> Unix.write fd buf off len
  | Fail e -> raise (Unix.Unix_error (e, "write", site))
  | Intr -> raise (Unix.Unix_error (Unix.EINTR, "write", site))
  | Short k ->
      (* A zero-byte "success" would spin the caller's write loop
         forever; the shortest honest short write is one byte. *)
      Unix.write fd buf off (max 1 (min k len))

let rename ~site src dst =
  retry_eintr (fun () ->
      match consult ~op:Rename ~site with
      | Fail e -> raise (Unix.Unix_error (e, "rename", src))
      | Intr -> raise (Unix.Unix_error (Unix.EINTR, "rename", src))
      | Pass | Short _ -> Unix.rename src dst)

let close ~site fd =
  retry_eintr (fun () ->
      match consult ~op:Close ~site with
      | Fail e -> raise (Unix.Unix_error (e, "close", site))
      | Intr -> raise (Unix.Unix_error (Unix.EINTR, "close", site))
      | Pass | Short _ -> (
          (* An injected EINTR fires before the real close, so retrying
             is safe.  A {e real} EINTR from close(2) is different: on
             Linux the descriptor is gone regardless, and a blind retry
             could close an unrelated fd that reused the number. *)
          try Unix.close fd with Unix.Unix_error (Unix.EINTR, _, _) -> ()))

let accept ~site ?cloexec fd =
  match consult ~op:Accept ~site with
  | Fail e -> raise (Unix.Unix_error (e, "accept", site))
  | Intr -> raise (Unix.Unix_error (Unix.EINTR, "accept", site))
  | Pass | Short _ -> Unix.accept ?cloexec fd

let fork ~site () =
  match consult ~op:Fork ~site with
  | Fail e -> raise (Unix.Unix_error (e, "fork", site))
  | Intr -> raise (Unix.Unix_error (Unix.EINTR, "fork", site))
  | Pass | Short _ -> Unix.fork ()

let openfile ~site path flags perm =
  retry_eintr (fun () ->
      match consult ~op:Open ~site with
      | Fail e -> raise (Unix.Unix_error (e, "open", path))
      | Intr -> raise (Unix.Unix_error (Unix.EINTR, "open", path))
      | Pass | Short _ -> Unix.openfile path flags perm)
