(** SplitMix64: a fast, splittable pseudo-random number generator.

    This is the generator of Steele, Lea and Flood ("Fast splittable
    pseudorandom number generators", OOPSLA 2014).  It is the substrate for
    the per-node independent random bit strings that the LOCAL model hands to
    every processor: [split] deterministically derives an independent stream
    from a parent stream, so a network of [n] nodes seeded from one master
    seed reproducibly owns [n] decorrelated generators. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator from a 64-bit seed. *)

val mix64 : int64 -> int64
(** The stateless SplitMix64 finalizer (Stafford's MurmurHash3 variant 13):
    a bijective avalanche mix of one 64-bit word.  Exposed for modules that
    need {e coordinate-indexed} randomness — a decision that is a pure
    function of [(seed, coordinates)] rather than of a stream position, e.g.
    the per-(round, edge) verdicts of {!Ls_local.Faults}. *)

val copy : t -> t
(** [copy g] is an independent clone that will replay [g]'s future output. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    statistically independent of [g]'s subsequent output. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** Uniform float in [\[0, 1)], using 53 bits of randomness. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  [bound] must be positive;
    rejection sampling removes modulo bias. *)

val bool : t -> bool
(** Fair coin. *)
