type t =
  | Coord_request of Action_id.t * Fact.Set.t
  | Coord_ack of Action_id.t * Fact.Set.t
  | Gossip of Pid.Set.t
  | Heartbeat of int
  | Cons_estimate of { round : int; value : int; ts : int }
  | Cons_propose of { round : int; value : int }
  | Cons_ack of { round : int; ok : bool }
  | Cons_decide of { value : int }
  | Swim_ping of { origin : Pid.t; seq : int }
  | Swim_ack of { origin : Pid.t; seq : int }
  | Swim_ping_req of { target : Pid.t; seq : int }
  | Gossip_counters of (Pid.t * int) list

let rank = function
  | Coord_request _ -> 0
  | Coord_ack _ -> 1
  | Gossip _ -> 2
  | Heartbeat _ -> 3
  | Cons_estimate _ -> 4
  | Cons_propose _ -> 5
  | Cons_ack _ -> 6
  | Cons_decide _ -> 7
  | Swim_ping _ -> 8
  | Swim_ack _ -> 9
  | Swim_ping_req _ -> 10
  | Gossip_counters _ -> 11

let compare a b =
  match (a, b) with
  | Coord_request (x, f), Coord_request (y, g) -> (
      match Action_id.compare x y with 0 -> Fact.Set.compare f g | c -> c)
  | Coord_ack (x, f), Coord_ack (y, g) -> (
      match Action_id.compare x y with 0 -> Fact.Set.compare f g | c -> c)
  | Gossip s, Gossip s' -> Pid.Set.compare s s'
  | Heartbeat a', Heartbeat b' -> Int.compare a' b'
  | Cons_estimate a', Cons_estimate b' ->
      Stdlib.compare (a'.round, a'.value, a'.ts) (b'.round, b'.value, b'.ts)
  | Cons_propose a', Cons_propose b' ->
      Stdlib.compare (a'.round, a'.value) (b'.round, b'.value)
  | Cons_ack a', Cons_ack b' ->
      Stdlib.compare (a'.round, a'.ok) (b'.round, b'.ok)
  | Cons_decide a', Cons_decide b' -> Int.compare a'.value b'.value
  | Swim_ping a', Swim_ping b' ->
      Stdlib.compare (a'.origin, a'.seq) (b'.origin, b'.seq)
  | Swim_ack a', Swim_ack b' ->
      Stdlib.compare (a'.origin, a'.seq) (b'.origin, b'.seq)
  | Swim_ping_req a', Swim_ping_req b' ->
      Stdlib.compare (a'.target, a'.seq) (b'.target, b'.seq)
  | Gossip_counters a', Gossip_counters b' -> Stdlib.compare a' b'
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Coord_request (a, f) ->
      Fnv.mix (Fnv.mix 1 (Action_id.hash a)) (Fact.Set.hash f)
  | Coord_ack (a, f) -> Fnv.mix (Fnv.mix 2 (Action_id.hash a)) (Fact.Set.hash f)
  | Gossip s -> Fnv.mix 3 (Pid.Set.hash s)
  | Heartbeat seq -> Fnv.mix 4 seq
  | Cons_estimate { round; value; ts } ->
      Fnv.mix (Fnv.mix (Fnv.mix 5 round) value) ts
  | Cons_propose { round; value } -> Fnv.mix (Fnv.mix 6 round) value
  | Cons_ack { round; ok } -> Fnv.mix (Fnv.mix 7 round) (Bool.to_int ok)
  | Cons_decide { value } -> Fnv.mix 8 value
  | Swim_ping { origin; seq } -> Fnv.mix (Fnv.mix 9 origin) seq
  | Swim_ack { origin; seq } -> Fnv.mix (Fnv.mix 10 origin) seq
  | Swim_ping_req { target; seq } -> Fnv.mix (Fnv.mix 11 target) seq
  | Gossip_counters l ->
      List.fold_left
        (fun h (p, c) -> Fnv.mix (Fnv.mix h p) c)
        (Fnv.mix 12 (List.length l))
        l

let pp ppf = function
  | Coord_request (a, f) ->
      if Fact.Set.is_empty f then Format.fprintf ppf "req(%a)" Action_id.pp a
      else Format.fprintf ppf "req(%a|%a)" Action_id.pp a Fact.Set.pp f
  | Coord_ack (a, f) ->
      if Fact.Set.is_empty f then Format.fprintf ppf "ack(%a)" Action_id.pp a
      else Format.fprintf ppf "ack(%a|%a)" Action_id.pp a Fact.Set.pp f
  | Gossip s -> Format.fprintf ppf "gossip%a" Pid.Set.pp s
  | Heartbeat seq -> Format.fprintf ppf "hb(%d)" seq
  | Cons_estimate { round; value; ts } ->
      Format.fprintf ppf "est(r%d,v%d,ts%d)" round value ts
  | Cons_propose { round; value } ->
      Format.fprintf ppf "prop(r%d,v%d)" round value
  | Cons_ack { round; ok } -> Format.fprintf ppf "cack(r%d,%b)" round ok
  | Cons_decide { value } -> Format.fprintf ppf "decide(v%d)" value
  | Swim_ping { origin; seq } ->
      Format.fprintf ppf "sping(%a,#%d)" Pid.pp origin seq
  | Swim_ack { origin; seq } ->
      Format.fprintf ppf "sack(%a,#%d)" Pid.pp origin seq
  | Swim_ping_req { target; seq } ->
      Format.fprintf ppf "spingreq(%a,#%d)" Pid.pp target seq
  | Gossip_counters l ->
      Format.fprintf ppf "counters[%a]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ';')
           (fun ppf (p, c) -> Format.fprintf ppf "%a:%d" Pid.pp p c))
        l

type fairness = { kind : int; x : int; y : int }

(* A class is the constructor's [rank] plus the payload fields R5 tells
   apart, 0 where unused; classes without fields are static constants,
   so computing them allocates nothing. Piggybacked facts are left out
   on purpose: a protocol that retransmits req(alpha) with a growing fact
   set is still "sending the same message infinitely often" for R5,
   otherwise an adversarial channel could defeat fairness by exploiting
   ever-changing piggyback payloads. Likewise the gossiped counter vector
   and every sequence number are payload: a gossiper resending its
   (ever-growing) counters, or a prober re-probing the same target, sends
   the same message again. *)
let fairness = function
  | Coord_request (a, _) ->
      { kind = 0; x = Action_id.owner a; y = Action_id.tag a }
  | Coord_ack (a, _) -> { kind = 1; x = Action_id.owner a; y = Action_id.tag a }
  | Gossip _ -> { kind = 2; x = 0; y = 0 }
  | Heartbeat _ -> { kind = 3; x = 0; y = 0 }
  | Cons_estimate { round; _ } -> { kind = 4; x = round; y = 0 }
  | Cons_propose { round; _ } -> { kind = 5; x = round; y = 0 }
  | Cons_ack { round; _ } -> { kind = 6; x = round; y = 0 }
  | Cons_decide _ -> { kind = 7; x = 0; y = 0 }
  | Swim_ping { origin; _ } -> { kind = 8; x = origin; y = 0 }
  | Swim_ack { origin; _ } -> { kind = 9; x = origin; y = 0 }
  | Swim_ping_req { target; _ } -> { kind = 10; x = target; y = 0 }
  | Gossip_counters _ -> { kind = 11; x = 0; y = 0 }

let pp_fairness ppf { kind; x; y } =
  let str = Format.pp_print_string ppf in
  match kind with
  | 0 -> Format.fprintf ppf "req:a%d.%d" x y
  | 1 -> Format.fprintf ppf "ack:a%d.%d" x y
  | 2 -> str "gossip"
  | 3 -> str "hb"
  | 4 -> Format.fprintf ppf "est:%d" x
  | 5 -> Format.fprintf ppf "prop:%d" x
  | 6 -> Format.fprintf ppf "cack:%d" x
  | 7 -> str "decide"
  | 8 -> Format.fprintf ppf "sping:%a" Pid.pp x
  | 9 -> Format.fprintf ppf "sack:%a" Pid.pp x
  | 10 -> Format.fprintf ppf "spingreq:%a" Pid.pp x
  | _ -> str "counters"
