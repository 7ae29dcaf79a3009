type prim =
  | Sent of Pid.t * Pid.t * Message.t
  | Received of Pid.t * Pid.t * Message.t
  | Crashed of Pid.t
  | Did of Pid.t * Action_id.t
  | Inited of Action_id.t
  | Suspects of Pid.t * Pid.t
  | At_least_crashed of Pid.Set.t * int

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

let pp_prim ppf = function
  | Sent (p, q, msg) ->
      Format.fprintf ppf "sent_%a(%a,%a)" Pid.pp p Pid.pp q Message.pp msg
  | Received (q, p, msg) ->
      Format.fprintf ppf "recv_%a(%a,%a)" Pid.pp q Pid.pp p Message.pp msg
  | Crashed p -> Format.fprintf ppf "crash(%a)" Pid.pp p
  | Did (p, a) -> Format.fprintf ppf "do_%a(%a)" Pid.pp p Action_id.pp a
  | Inited a ->
      Format.fprintf ppf "init_%a(%a)" Pid.pp (Action_id.owner a) Action_id.pp a
  | Suspects (p, q) -> Format.fprintf ppf "%a∈Suspects_%a" Pid.pp q Pid.pp p
  | At_least_crashed (s, k) ->
      Format.fprintf ppf "crashed≥%d(%a)" k Pid.Set.pp s

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Prim p -> pp_prim ppf p
  | Not f -> Format.fprintf ppf "¬%a" pp_atomic f
  | And (a, b) -> Format.fprintf ppf "(%a ∧ %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a ∨ %a)" pp a pp b
  | Implies (a, b) -> Format.fprintf ppf "(%a ⇒ %a)" pp a pp b
  | Always f -> Format.fprintf ppf "□%a" pp_atomic f
  | Eventually f -> Format.fprintf ppf "◇%a" pp_atomic f
  | K (p, f) -> Format.fprintf ppf "K_%a%a" Pid.pp p pp_atomic f
  | Dk (s, f) -> Format.fprintf ppf "D_%a%a" Pid.Set.pp s pp_atomic f
  | Ck (s, f) -> Format.fprintf ppf "C_%a%a" Pid.Set.pp s pp_atomic f

and pp_atomic ppf f =
  match f with
  | True | False | Prim _ | Not _ | Always _ | Eventually _ | K _ | Dk _
  | Ck _ ->
      pp ppf f
  | And _ | Or _ | Implies _ -> Format.fprintf ppf "(%a)" pp f

let to_string f = Format.asprintf "%a" pp f
let crashed p = Prim (Crashed p)
let inited a = Prim (Inited a)
let did p a = Prim (Did (p, a))
let knows p f = K (p, f)
let always f = Always f
let eventually f = Eventually f
let neg f = Not f
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)
let ( ==> ) a b = Implies (a, b)
let conj = function [] -> True | x :: rest -> List.fold_left ( &&& ) x rest
let disj = function [] -> False | x :: rest -> List.fold_left ( ||| ) x rest

let everyone g f = conj (List.map (fun p -> K (p, f)) (Pid.Set.elements g))

(* ---- Hash-consing ----------------------------------------------------
   [t] embeds set-valued payloads ([Pid.Set.t] in [Dk]/[Ck]/
   [At_least_crashed], [Fact.Set.t]/[Pid.Set.t] inside [Message.t]), so
   structural equality is NOT semantic equality: equal sets built in
   different insertion orders have different tree shapes (the hazard
   {!System} documents for events). Interning maps every formula to a
   canonical, physically-unique representative with a dense id, giving
   checkers O(1) sound memo keys.

   Canonical keys: a primitive is keyed by itself, compared with
   [Message.equal]/[Pid.Set.equal]/[Action_id.equal] and hashed with the
   shape-independent [Message.hash]/[Pid.Set.hash]; a composite node by
   operator + child ids, and [Dk]/[Ck] by member list + child id, so a
   key is O(1) in the subformula count. Two formulas share a key iff
   they print alike (a property test checks it).

   Callers build formulas per query, so most formulas reaching [intern]
   are fresh copies of a node interned earlier. The canonical nodes are
   therefore also indexed by their own structure: a formula structurally
   equal to one returns it after one hash and one comparison, without
   the walk. Structurally equal formulas print alike, so this index only
   short-cuts the walk and never changes a node or an id. *)

type key =
  | Key_true
  | Key_false
  | Key_prim of prim
  | Key_not of int
  | Key_and of int * int
  | Key_or of int * int
  | Key_implies of int * int
  | Key_always of int
  | Key_eventually of int
  | Key_knows of Pid.t * int
  | Key_dk of Pid.t list * int
  | Key_ck of Pid.t list * int

let prim_equal a b =
  match (a, b) with
  | Sent (p, q, m), Sent (p', q', m')
  | Received (p, q, m), Received (p', q', m') ->
      Pid.equal p p' && Pid.equal q q' && Message.equal m m'
  | Crashed p, Crashed p' -> Pid.equal p p'
  | Did (p, a), Did (p', a') -> Pid.equal p p' && Action_id.equal a a'
  | Inited a, Inited a' -> Action_id.equal a a'
  | Suspects (p, q), Suspects (p', q') -> Pid.equal p p' && Pid.equal q q'
  | At_least_crashed (s, k), At_least_crashed (s', k') ->
      Int.equal k k' && Pid.Set.equal s s'
  | _ -> false

let prim_hash = function
  | Sent (p, q, m) -> Fnv.mix (Fnv.mix (Fnv.mix 1 p) q) (Message.hash m)
  | Received (q, p, m) -> Fnv.mix (Fnv.mix (Fnv.mix 2 q) p) (Message.hash m)
  | Crashed p -> Fnv.mix 3 p
  | Did (p, a) -> Fnv.mix (Fnv.mix 4 p) (Action_id.hash a)
  | Inited a -> Fnv.mix 5 (Action_id.hash a)
  | Suspects (p, q) -> Fnv.mix (Fnv.mix 6 p) q
  | At_least_crashed (s, k) -> Fnv.mix (Fnv.mix 7 k) (Pid.Set.hash s)

module Nodes = Hashtbl.Make (struct
  type t = key

  let equal a b =
    match (a, b) with
    | Key_prim p, Key_prim q -> prim_equal p q
    | Key_prim _, _ | _, Key_prim _ -> false
    | _ -> a = b (* ints and pid lists only *)

  let hash = function Key_prim p -> prim_hash p | k -> Hashtbl.hash k
end)

(* Physical equality first: a canonical node and its subterms, which
   are canonical by construction, hit without a structural comparison. *)
module Structural = Hashtbl.Make (struct
  type nonrec t = t

  let equal a b = a == b || compare a b = 0
  let hash = Hashtbl.hash
end)

let intern_lock = Mutex.create ()
let nodes : (t * int) Nodes.t = Nodes.create 256

(* canonical node, by structure -> (node, id): the fast path for a
   formula structurally equal to an interned one. It holds canonical
   nodes only, so it grows with the distinct formulas, not the queries;
   a set payload of another shape misses and takes the walk. *)
let canonical : (t * int) Structural.t = Structural.create 256
let next_id = ref 0

(* [Set.of_list] sorts and builds a perfectly balanced tree, so equal
   sets become structurally identical — the stored payloads of canonical
   nodes are themselves canonical. *)
let canon_pid_set s = Pid.Set.of_list (Pid.Set.elements s)

let canon_msg = function
  | Message.Coord_request (a, f) ->
      Message.Coord_request (a, Fact.Set.of_list (Fact.Set.elements f))
  | Message.Coord_ack (a, f) ->
      Message.Coord_ack (a, Fact.Set.of_list (Fact.Set.elements f))
  | Message.Gossip s -> Message.Gossip (canon_pid_set s)
  | (Message.Heartbeat _ | Message.Cons_estimate _ | Message.Cons_propose _
    | Message.Cons_ack _ | Message.Cons_decide _ | Message.Swim_ping _
    | Message.Swim_ack _ | Message.Swim_ping_req _ | Message.Gossip_counters _)
    as m ->
      m

let canon_prim = function
  | Sent (p, q, m) -> Sent (p, q, canon_msg m)
  | Received (q, p, m) -> Received (q, p, canon_msg m)
  | At_least_crashed (s, k) -> At_least_crashed (canon_pid_set s, k)
  | (Crashed _ | Did _ | Inited _ | Suspects _) as p -> p

(* [node ()] builds the canonical node, only when [key] is new *)
let hashcons key node =
  match Nodes.find_opt nodes key with
  | Some hit -> hit
  | None ->
      let node = node () in
      let id = !next_id in
      incr next_id;
      Nodes.add nodes key (node, id);
      Structural.add canonical node (node, id);
      (node, id)

let rec go f =
  match Structural.find_opt canonical f with
  | Some hit -> hit
  | None -> (
      match f with
      | True -> hashcons Key_true (fun () -> f)
      | False -> hashcons Key_false (fun () -> f)
      | Prim p -> hashcons (Key_prim p) (fun () -> Prim (canon_prim p))
      | Not a ->
          let a, ia = go a in
          hashcons (Key_not ia) (fun () -> Not a)
      | And (a, b) ->
          let a, ia = go a in
          let b, ib = go b in
          hashcons (Key_and (ia, ib)) (fun () -> And (a, b))
      | Or (a, b) ->
          let a, ia = go a in
          let b, ib = go b in
          hashcons (Key_or (ia, ib)) (fun () -> Or (a, b))
      | Implies (a, b) ->
          let a, ia = go a in
          let b, ib = go b in
          hashcons (Key_implies (ia, ib)) (fun () -> Implies (a, b))
      | Always a ->
          let a, ia = go a in
          hashcons (Key_always ia) (fun () -> Always a)
      | Eventually a ->
          let a, ia = go a in
          hashcons (Key_eventually ia) (fun () -> Eventually a)
      | K (p, a) ->
          let a, ia = go a in
          hashcons (Key_knows (p, ia)) (fun () -> K (p, a))
      | Dk (s, a) ->
          let a, ia = go a in
          hashcons
            (Key_dk (Pid.Set.elements s, ia))
            (fun () -> Dk (canon_pid_set s, a))
      | Ck (s, a) ->
          let a, ia = go a in
          hashcons
            (Key_ck (Pid.Set.elements s, ia))
            (fun () -> Ck (canon_pid_set s, a)))

let intern_id f = Mutex.protect intern_lock (fun () -> go f)
let intern f = fst (intern_id f)
let id f = snd (intern_id f)

let equal a b =
  Mutex.protect intern_lock (fun () -> snd (go a) = snd (go b))
