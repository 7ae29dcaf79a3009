(** Workload: which actions are initiated, by whom, and when.

    Initiation is a client-side event, outside the protocol (Section 2.4):
    [init_p(alpha)] may appear only in the owner's history and at most once
    per run. *)

type entry = { action : Action_id.t; at : int }
type t

val empty : t
val of_entries : entry list -> t
val entries : t -> entry list

(** [one ~owner ~at] initiates a single action [a{owner}.0]. *)
val one : owner:Pid.t -> at:int -> t

(** [staggered ~n ~actions_per_process ~spacing] has every process initiate
    [actions_per_process] actions, round-robin, one every [spacing] ticks
    starting at tick 1. *)
val staggered : n:int -> actions_per_process:int -> spacing:int -> t

val pp : Format.formatter -> t -> unit
