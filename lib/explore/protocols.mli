(** Protocol names, shared between the CLI, repro files, and tests.

    The syntax is the CLI's: [nudc | reliable | ack | theta | heartbeat |
    majority:T | gen:T], plus the implemented detector backends
    [phi | swim | gossip]. Repro files written by the shrinker store the
    protocol under this syntax so a counterexample is replayable from the
    file alone. *)

(** [Error] on an unknown label, and on [majority:T] or [gen:T] with
    [T < 0]. *)
val parse : string -> ((module Protocol.S), string) result

(** [backend_pair label] is the fresh-pair constructor when [label] names
    an implemented detector backend ({!Detector.Backends.of_label}).
    Backend pairs are single-use; {!Problem} builds a fresh one per
    execution. *)
val backend_pair : string -> (n:int -> Detector.Backends.pair) option

(** [instantiate label ~n] is the uniform instantiation usable as
    [Sim.execute]'s process factory. For backend labels the returned
    factory is a placeholder wired to a dropped oracle — {!Problem.run}
    and {!Problem.replay} rebuild a fresh oracle/protocol pair per
    execution from [backend_pair] instead of using it. *)
val instantiate : string -> n:int -> (Pid.t -> Protocol.t, string) result
