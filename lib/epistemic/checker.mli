(** The model checker: truth of formulas at points of a finite system.

    Semantics follow Section 2.3: [(R, r, m) |= K_p phi] iff [phi] holds at
    every point of [R] indistinguishable from [(r, m)] for [p]; [Always]
    and [Eventually] quantify over [m' >= m] {e up to the run's horizon}
    (finite-horizon semantics — faithful for stable formulas once runs are
    executed to quiescence, see DESIGN.md). Evaluation is memoized per
    subformula over all points, so checking validity of a formula costs one
    pass per subformula.

    Representation (see DESIGN.md, "Truth-table representation"): a truth
    table is one bit-packed {!Bitvec.t} row per run, connectives are
    word-parallel, and the knowledge operators AND-fold precomputed
    per-class (run, word, mask) triples. Each query interns its formula
    once ({!Formula.intern_id}) and memoizes by its id, so semantically
    equal formulas share one table, and a freshly built copy of a formula
    seen before costs one structural lookup. [env] is safe to share
    across domains (all queries serialize on an internal lock). *)

type env

val make : System.t -> env
val system : env -> System.t

(** Truth at a point. *)
val holds : env -> Formula.t -> run:int -> tick:int -> bool

(** Truth at every point of the system ([R |= phi]). *)
val valid : env -> Formula.t -> bool

(** A point where the formula fails, if any. *)
val counterexample : env -> Formula.t -> (int * int) option

(** [knows_crashed env p ~run ~tick] is [{q : (R,r,m) |= K_p crash(q)}] —
    the suspicion set of the simulated perfect failure detector (condition
    P3 of the f-construction, Section 3). The tables of [K_p crash(q)] are
    resolved on the first call for [p] and memoized in [env]; every call
    then reads one bit per process. *)
val knows_crashed : env -> Pid.t -> run:int -> tick:int -> Pid.Set.t

(** [max_known_crashed env p s ~run ~tick] is the largest [k] such that
    [(R,r,m) |= K_p ("at least k processes in s have crashed")] — condition
    P3' of the f'-construction (Section 4). *)
val max_known_crashed : env -> Pid.t -> Pid.Set.t -> run:int -> tick:int -> int

(** [local_to env phi p]: [p] always knows whether [phi] holds
    ([K_p phi ∨ K_p ¬phi] is valid — Section 2.3). *)
val local_to : env -> Formula.t -> Pid.t -> bool

(** [stable env phi]: once true, [phi] stays true ([phi ⇒ □phi] valid). *)
val stable : env -> Formula.t -> bool

(** Number of memoized truth tables — one per distinct interned
    subformula evaluated so far. Exposed for the interning regression
    tests: semantically equal formulas must not split entries. *)
val memo_entries : env -> int

(** Hex digest of the packed truth table of a formula — bit-identical
    tables give equal digests, so determinism across domain counts is
    checkable. *)
val table_digest : env -> Formula.t -> string

(** The pre-kernel evaluator — plain [bool array array] tables, per-point
    class passes, structural memo keys. Kept as an independent
    differential oracle for the kernel (tests and the perf harness); not
    domain-safe. *)
module Reference : sig
  type env

  val make : System.t -> env
  val holds : env -> Formula.t -> run:int -> tick:int -> bool
  val valid : env -> Formula.t -> bool
  val counterexample : env -> Formula.t -> (int * int) option
end
