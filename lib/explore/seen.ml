(* Visited-state cache for the explorer, in two tiers.

   Node tier: complete runs, keyed by a seeded FNV fingerprint of the
   timed histories and resolved by structural equality ([Run.equal]) on
   fingerprint collision — the PR 5 dedup discipline: the fingerprint
   only routes to a bucket, it never decides equality, so a collision
   costs a comparison, not a verdict. A hit here means some
   already-expanded schedule produced the bit-identical run, so the
   node's subtree re-explores decisions whose every observable effect is
   already covered and can be cut. Every probe happens in the engine's
   sequential merge, which is what keeps the cut deterministic.

   Prefix tier: fingerprint-only marks of decision-prefix states (the
   FNV fold of [Decision.hash] along a trace). This tier has no
   structural backup by design: it never cuts anything — it only grades
   fuzz mutants by how many unseen prefixes they reach and feeds the
   coverage counters — so a collision can at worst discard a mutant that
   was genuinely novel, never corrupt a verdict. Storing the prefixes
   themselves would cost O(trace^2) per run for a guidance signal. *)

type t = {
  runs : (int, Run.t list) Hashtbl.t;
  mutable distinct : int;
  prefixes : (int, unit) Hashtbl.t;
}

let create () =
  { runs = Hashtbl.create 1024; distinct = 0; prefixes = Hashtbl.create 1024 }

let fingerprint (r : Run.t) =
  let n = Run.n r in
  let acc = ref (Fnv.mix (Fnv.mix Fnv.seed n) (Run.horizon r)) in
  for p = 0 to n - 1 do
    acc := Fnv.mix !acc (History.hash_timed_events (Run.history r p))
  done;
  !acc

(* [true] iff an equal run was already present; otherwise remembers it.
   A fingerprint hit is confirmed by [Run.equal], which walks the events
   of each bucket entry until one matches. *)
let check_add t r =
  let fp = fingerprint r in
  match Hashtbl.find_opt t.runs fp with
  | Some bucket when List.exists (Run.equal r) bucket -> true
  | Some bucket ->
      Hashtbl.replace t.runs fp (r :: bucket);
      t.distinct <- t.distinct + 1;
      false
  | None ->
      Hashtbl.add t.runs fp [ r ];
      t.distinct <- t.distinct + 1;
      false

let distinct t = t.distinct

let mark_prefixes t (trace : Decision.t list) =
  let fresh = ref 0 in
  let acc = ref Fnv.seed in
  List.iter
    (fun d ->
      acc := Fnv.mix !acc (Decision.hash d);
      if not (Hashtbl.mem t.prefixes !acc) then begin
        Hashtbl.add t.prefixes !acc ();
        incr fresh
      end)
    trace;
  !fresh
