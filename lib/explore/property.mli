(** What the explorer checks at each terminal run.

    A property names a violation the search is hunting for. Plain
    specification properties ([Dc1] .. [Nudc], detector classes) flag any
    run where the specification fails; [Expect] recognises exactly an
    adversary scenario's expected violation (and only it), which is what
    scenario rediscovery asserts; [Epistemic_dc2] routes the uniformity
    check through the packed epistemic model checker instead of the direct
    run predicate. *)

type t =
  | Dc1
  | Dc2
  | Dc3
  | Udc
  | Nudc
  | Expect of Core.Adversary.expectation
  | Detector of Detector.Spec.cls
  | Epistemic_dc2
  | Kset of int
      (** k-set agreement {e safety}: at most [k] distinct decided values
          and every decision a proposal (pids propose their own id).
          Termination is scored by the classification grids, not here. *)

val to_string : t -> string

(** Inverse of {!to_string}. Parametric properties parse by prefix:
    ["kset:K"] and ["detector:strong-K"] for any [K >= 1]. *)
val of_string : string -> (t, string) result
val all : t list

(** [check_k ~k ~n] rejects a k-set bound outside [[1, n - 1]] with
    ["K outside [1, N-1]"], which callers prefix with what names [k]:
    [n] processes decide at most [n] values, so k-set agreement with
    [k >= n] holds on every run, and a search or a cell scoring it would
    certify a vacuous property. *)
val check_k : k:int -> n:int -> (unit, string) result

(** [check t ~n] rejects a property no run of [n] processes can violate:
    [Kset k] with [k] outside [[1, n - 1]] ({!check_k}). Every other
    property passes. [udc explore] runs it before any run, and a repro
    file that fails it does not load. *)
val check : t -> n:int -> (unit, string) result

(** [violation t run] is [Some description] when the run violates the
    property (for [Expect], when it exhibits the expected violation). *)
val violation : t -> Run.t -> string option
