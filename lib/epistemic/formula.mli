(** The formal language of Section 2.3: linear-time temporal logic with
    epistemic operators, interpreted over systems of runs.

    Truth is relative to a triple [(R, r, m)]; see {!Checker}. [Always] is
    the paper's box (from this point on in the run), [Eventually] its dual,
    [K p] is knowledge of process [p] (truth in all points of [R] that [p]
    cannot distinguish from the current one), and [Dk s] is distributed
    knowledge of the group [s] (used to state condition A4's footnote). *)

type prim =
  | Sent of Pid.t * Pid.t * Message.t  (** [send_p(q,msg)] in p's history *)
  | Received of Pid.t * Pid.t * Message.t
      (** [recv_q(p,msg)] in q's history — arguments are (receiver, sender,
          message) *)
  | Crashed of Pid.t  (** [crash(p)] *)
  | Did of Pid.t * Action_id.t  (** [do_p(alpha)] *)
  | Inited of Action_id.t  (** [init_p(alpha)], [p = owner alpha] *)
  | Suspects of Pid.t * Pid.t
      (** [q ∈ Suspects_p] at the current point (not stable) *)
  | At_least_crashed of Pid.Set.t * int
      (** at least [k] processes of [S] have crashed — the content of a
          generalized report (Section 4) *)

type t =
  | True
  | False
  | Prim of prim
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Always of t
  | Eventually of t
  | K of Pid.t * t
  | Dk of Pid.Set.t * t
  | Ck of Pid.Set.t * t
      (** common knowledge of the group: everyone knows, everyone knows
          that everyone knows, ... — the greatest fixpoint of
          [X = E_G (phi ∧ X)] (Halpern-Moses). Unattainable for new facts
          under unreliable communication, which the tests exhibit. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Hash-consing. [t] embeds set-valued payloads, so structural equality
    under-identifies semantically equal formulas (equal sets built in
    different insertion orders compare structurally unequal — the hazard
    {!System} documents for events). [intern f] returns the canonical,
    physically-unique representative of [f]: set payloads rebalanced to
    their canonical shape, subterms shared, and semantically equal
    formulas mapped to the {e same} node. Nodes are keyed structurally,
    without printing: a primitive by its content under [Message.equal]/
    [Pid.Set.equal], a composite by operator and child ids. Two formulas
    intern to the same node iff they print alike. Thread-safe (the
    intern table is shared across domains).

    Cost: one hash and one structural comparison for a formula
    structurally equal to an interned one, a freshly built copy
    included (a physical comparison for the node itself). A formula
    whose set payloads have another shape than the canonical one takes
    the full walk, one key lookup per subterm. *)
val intern : t -> t

(** Dense unique id of [intern f] — equal iff the formulas are
    semantically equal. Same cost as [intern]; the sound memo key used
    by {!Checker}. *)
val id : t -> int

(** [(intern f, id f)] in one lookup. *)
val intern_id : t -> t * int

(** Semantic equality, via interning. *)
val equal : t -> t -> bool

(** Convenience constructors. *)

val crashed : Pid.t -> t
val inited : Action_id.t -> t
val did : Pid.t -> Action_id.t -> t
val knows : Pid.t -> t -> t

(** [everyone g f]: [E_G f], the conjunction of [K_p f] over the group. *)
val everyone : Pid.Set.t -> t -> t
val always : t -> t
val eventually : t -> t
val neg : t -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val ( ==> ) : t -> t -> t
val conj : t list -> t
val disj : t list -> t
