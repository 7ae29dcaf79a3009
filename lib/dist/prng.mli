(** Deterministic pseudo-random number generator (splitmix64).

    All randomness in the simulator flows through an explicit [Prng.t] so
    that every run is exactly reproducible from its seed, and independent
    subsystems (channel, scheduler, oracle) can be given split streams that
    do not interfere with one another. *)

type t

val create : int64 -> t

(** [split t] returns a fresh generator whose stream is independent of the
    subsequent outputs of [t]. *)
val split : t -> t

(** [shard_seed seed k] derives the seed of shard [k]'s decision stream
    from a run seed. [shard_seed seed 0 = seed], so a one-shard run is
    bit-identical to the unsharded simulator; for [k > 0] the derived
    streams are decorrelated from the root and from one another. *)
val shard_seed : int64 -> int -> int64

(** [next_int64 t] advances the state and returns 64 uniform bits. *)
val next_int64 : t -> int64

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [bool t p] is true with probability [p]. *)
val bool : t -> float -> bool

(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
