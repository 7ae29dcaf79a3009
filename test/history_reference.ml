(* The legacy cons-list history, kept as the executable specification
   the flat struct-of-arrays [History] is differentially tested against
   (test_flat_history): same validation, same accessor semantics, same
   chronological hash fold. *)

type t = {
  rev : (Event.t * int) list; (* newest first *)
  len : int;
  crashed : bool;
  last_tick : int; (* -1 when empty *)
}

let empty = { rev = []; len = 0; crashed = false; last_tick = -1 }

let append h e ~tick =
  if h.crashed then invalid_arg "History.append: history ends in crash (R4)";
  if tick <= h.last_tick then
    invalid_arg "History.append: more than one event per tick (R2)";
  {
    rev = (e, tick) :: h.rev;
    len = h.len + 1;
    crashed = Event.is_crash e;
    last_tick = tick;
  }

let length h = h.len
let is_crashed h = h.crashed
let events h = List.rev_map fst h.rev
let timed_events h = List.rev h.rev

let prefix_upto h m =
  let rec drop rev len =
    match rev with
    | (_, tick) :: rest when tick > m -> drop rest (len - 1)
    | _ -> (rev, len)
  in
  let rev, len = drop h.rev h.len in
  match rev with
  | [] -> empty
  | (e, tick) :: _ -> { rev; len; crashed = Event.is_crash e; last_tick = tick }

let last h = match h.rev with [] -> None | (e, _) :: _ -> Some e
let last_tick h = if h.last_tick < 0 then None else Some h.last_tick

let equal_timed a b =
  a.len = b.len
  && List.for_all2
       (fun (e, t) (e', t') -> Int.equal t t' && Event.equal e e')
       a.rev b.rev

(* the chronological (oldest-first) fold of the flat representation *)
let hash_timed_events h =
  List.fold_left
    (fun acc (e, t) -> Fnv.mix (Fnv.mix acc t) (Event.hash e))
    Fnv.seed (timed_events h)
