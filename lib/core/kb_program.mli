(** A knowledge-based program interpreter (Fagin-Halpern-Moses-Vardi,
    "Knowledge-based programs" — the framework the paper's analysis lives
    in).

    A knowledge-based program replaces a concrete protocol rule by an
    epistemic guard: {e "perform alpha when you know G"}. Its semantics is
    a fixpoint: the guard is evaluated in the very system the program
    generates. This module interprets such programs for the UDC perform
    rule by iteration: start from the program that never performs,
    exhaustively enumerate the system it generates, evaluate the guard at
    every point, let the program perform exactly at the local states where
    the guard held, and repeat until the set of acting states stabilises.

    The payoff (experiment E15): with the Proposition 3.5 consequent as
    the guard — {e "I know that if anyone stays correct, some process that
    stays correct knows the initiation"} — the fixpoint re-derives the
    paper's Proposition 3.1 behaviour, and the resulting system satisfies
    UDC. The knowledge-theoretic characterisation is not just a proof
    device; it is executable. *)

(** Decision table: the set of local states (history digests) at which the
    program performs. *)
type table

val empty_table : unit -> table
val table_size : table -> int

(** The guard, evaluated at a point of the current candidate system. It is
    expected to be [p]-local (built from [K_p ...]), so that it is constant
    on indistinguishability classes; the interpreter samples one
    representative per class. *)
type guard = Epistemic.Checker.env -> Pid.t -> run:int -> tick:int -> bool

(** The standard communication shell: flood alpha-messages with
    acknowledgments (as in Prop 3.1) but perform only at local states
    listed in the table. *)
val shell : alpha:Action_id.t -> table:table -> (module Protocol.S)

type outcome = {
  iterations : int;
  fixpoint : bool;  (** the table stabilised before [max_iters] *)
  table : table;
  env : Epistemic.Checker.env;  (** the system generated by the final table *)
}

(** Iterate the knowledge-based semantics in the bounded context
    ([n] processes, horizon [depth], at most [max_crashes] crashes,
    perfect report points, action [alpha] initiated by its owner at
    tick 1). *)
val interpret :
  n:int ->
  depth:int ->
  max_crashes:int ->
  alpha:Action_id.t ->
  guard:guard ->
  max_iters:int ->
  outcome

(** The Proposition 3.5 guard:
    [K_p (init ∧ (∨q □¬crash(q) ⇒ ∨q (K_q init ∧ □¬crash(q))))]. *)
val prop35_guard : n:int -> alpha:Action_id.t -> guard
