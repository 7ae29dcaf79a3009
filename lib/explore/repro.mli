(** Human-readable, replayable counterexample files.

    A repro file is a self-contained record of a shrunk violation:
    [key: value] lines carrying the full problem definition (protocol
    label, property, configuration, workload) plus the violation
    description, the run digest with its format version, and the exact
    decision trace. The moves are included as comments for the reader;
    the {e trace} is the authoritative part — {!replay} re-executes it
    strictly and verifies both the digest and the violation, so a stale
    or hand-edited file fails loudly instead of "reproducing" something
    else.

    Repro files only describe scripted problems (no ambient loss rates or
    fault plans) — which is the only kind the explorer searches. *)

type t = {
  problem : Problem.t;
  moves : string list;  (** informational, from the shrunk move set *)
  violation : string;
  digest : string;  (** [Run.digest] of the recorded violating run *)
  trace : Decision.t list;
}

val of_shrunk : Problem.t -> Shrink.shrunk -> t
val to_string : t -> string
val save : string -> t -> unit

(** [of_string text] parses a repro file. A malformed file — a missing or
    ill-typed field, a negative action tag, a digest that is not 32
    lowercase hex characters, or a configuration {!Sim.validate} rejects
    ([n < 1] or a negative crash budget among them) — is an [Error],
    never an exception. So is a file whose [digest-version] field is
    missing or is not the current version (2, the structural
    {!Run.digest}): its digest cannot match a replay, and the error says
    to regenerate it by re-running the search. *)
val of_string : string -> (t, string) result

val load : string -> (t, string) result

(** Strict replay + verification: returns the result and the violation
    description, or an error if the trace diverges, the digest differs,
    or the run no longer violates. *)
val replay : t -> (Sim.result * string, string) result
