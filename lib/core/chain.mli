(** The chain rule over a sequentially extended pinning.

    Self-reducibility — pin one more vertex of an instance and the result
    is again an instance — is what every algorithm of the paper runs on:
    walk an order, ask an oracle about the instance pinned so far, pin
    one value.  A chain owns one mutable pinning: {!start} copies the
    caller's once, each {!pin} writes in place, and a trail lets
    backtracking sites {!undo} to a {!mark}.  The caller's instance is
    never written.

    {!instance} is the live view that oracles receive.  Its [pinned]
    array changes with every [pin] and [undo], so an oracle must neither
    keep it past the call nor write to it. *)

type t

val start : Instance.t -> t
val instance : t -> Instance.t
val is_pinned : t -> int -> bool

val pin : t -> int -> int -> unit
(** [pin c v x] pins [v ↦ x].  Raises [Invalid_argument] when [v] is
    already pinned or [x] is outside the alphabet. *)

type mark

val mark : t -> mark

val undo : t -> mark -> unit
(** Unpin every vertex pinned since the mark. *)

val check_order : Instance.t -> int array -> unit
(** Raises [Invalid_argument] unless the order lists every vertex of the
    instance exactly once. *)

val run :
  Instance.t -> order:int array -> choose:(Instance.t -> int -> int) -> Ls_gibbs.Config.t
(** The chain rule along [order]: {!check_order}, {!start}, then at each
    vertex of [order] not yet pinned, pin [choose live v] where [live] is
    the chain's {!instance}.  Returns the final pinning, owned by the
    caller. *)

val slocal_pass :
  Instance.t ->
  's Ls_local.Slocal.t ->
  order:int array ->
  radius:int ->
  field:('s -> int) ->
  store:('s -> int -> 's) ->
  choose:('s Ls_local.Slocal.ctx -> Instance.t -> int -> int) ->
  unit
(** One chain-rule pass on the locality-enforcing SLOCAL runtime, at
    radius [radius] along [order] ({!check_order}).  At each vertex [v]
    the instance does not pin, the step pins into one chain the value
    [field] reads from every state in [v]'s ball ([Config.unassigned]
    for none; a vertex the instance pins keeps its value), stores
    [choose ctx live v] at [v] through [store], and unpins.  Values
    outside the ball cannot move a radius-[radius] oracle's answer, so
    [live] is a faithful prefix instance for such an oracle. *)
