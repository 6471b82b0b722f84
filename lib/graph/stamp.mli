(** Per-domain, epoch-stamped, vertex-indexed scratch: how a ball-local
    kernel touches only the vertices it reaches, never all [n].

    Each client declares one {!key} and runs every call inside {!use},
    which hands it this domain's scratch for that key:
    - {b Epoch.}  Each use bumps [epoch] once; [stamp.(u) = epoch] means
      "marked by this use", any other value is stale.  [epoch ≥ 1] during
      a use, so writing 0 unmarks.  The [ints] arrays are never cleared:
      an entry means something only where this use stamped it.
    - {b Growth.}  [stamp] and the [ints] arrays grow, zero-filled, to
      the first [n] that exceeds their length, and [epoch] restarts then.
      They may be longer than the current graph (a bigger one grew them),
      so checking an index against the graph is the client's job.
    - {b Nesting.}  A use made while another use of the same key is live
      on the domain (from inside a callback) gets a fresh scratch, so the
      outer marks survive.  Keys never share arrays, so one client's use
      never sends another's down that path.
    - {b After a raise.}  [busy] is cleared when the use returns or
      raises, and the marks a raising use left are stale at the next
      epoch.

    The scratch is a record, not accessors: a client binds [stamp],
    [epoch] and its [ints] arrays to locals once per use, since under
    dune's dev profile ([-opaque]) a call into another module is never
    inlined, and a call per element would cost its loop. *)

type 'p t = private {
  mutable stamp : int array;
  ints : int array array;  (** The key's int arrays, as long as [stamp]. *)
  mutable epoch : int;
  mutable busy : bool;  (** True while a use holds this scratch. *)
  payload : 'p;  (** The client's own state, made once per scratch. *)
}

type 'p key

val key : ints:int -> (unit -> 'p) -> 'p key
(** [key ~ints make]: a client with [ints] vertex-indexed int arrays
    besides [stamp], and [make ()] for each scratch's payload.  Declare
    keys at module level: each is a [Domain.DLS] key. *)

val use : 'p key -> int -> ('p t -> 'a) -> 'a
(** [use key n f] runs [f] on this domain's scratch for [key] (a fresh
    one if that is in use), grown to at least [n], with a new epoch, and
    releases it when [f] returns or raises. *)
