(** The simulation constructions of Theorems 3.6 and 4.3.

    Given a system [R] (as an epistemic checking environment), [f_run]
    builds the run [f(r)] of Section 3: the original events stretched onto
    even ticks (failure-detector events deleted), with a fresh
    failure-detector event on every odd tick [2m+1] reporting
    [S = {q : (R,r,m) |= K_p crash(q)}] (conditions P1-P3). Theorem 3.6
    says that when [R] attains UDC and satisfies A1-A4/A5, the resulting
    detectors are {e perfect} — which is checked with {!Detector.Spec} on
    the constructed runs.

    [f'_run] is the generalized construction of Section 4 (P3'): the odd
    ticks carry reports [(S_l, k)] where [k] is the largest number of
    crashes in [S_l] the process {e knows} of. The subset schedule is
    selectable: [`History_length] is the paper's [l = |r_p(m+1)| mod 2^n];
    [`Round_robin] ([l = (m + p) mod 2^n]) visits every subset within
    [2^n] ticks and is the default for bounded-horizon demonstrations
    (both hit every subset infinitely often in infinite runs, which is all
    the proof needs — see DESIGN.md). *)

type schedule = [ `History_length | `Round_robin ]

val f_run : Epistemic.Checker.env -> run:int -> Run.t

(** [f] applied to every run of the system. *)
val f_system : Epistemic.Checker.env -> Run.t list

val f'_run : ?schedule:schedule -> Epistemic.Checker.env -> run:int -> Run.t

(** [subset_of_index ~n l] is [S_l] in the fixed order of subsets of
    [Proc]: pid [i] belongs to [S_l] iff bit [i] of [l] is set. *)
val subset_of_index : n:int -> int -> Pid.Set.t
