(* What the two gossip conversions share: the state around the inner
   protocol, the recurring broadcast, handing a changed derived set to
   the inner protocol, and the turn-taking between gossip and the inner
   protocol. ['m] is what a merge rule keeps of the reports it heard. *)
module Shell (P : Protocol.S) = struct
  type 'm t = {
    inner : P.state;
    me : Pid.t;
    n : int;
    merge : 'm;
    derived : Pid.Set.t; (* what the inner protocol last saw *)
    gossip : Outbox.t;
    gossip_turn : bool;
  }

  let make ~n ~me merge =
    {
      inner = P.create ~n ~me;
      me;
      n;
      merge;
      derived = Pid.Set.empty;
      gossip = Outbox.empty;
      gossip_turn = false;
    }

  (* Re-point the recurring broadcast to every peer at [s]. *)
  let broadcast t s =
    let to_peer g dst =
      if Pid.equal dst t.me then g
      else
        let key = "gossip:" ^ Pid.to_string dst in
        Outbox.set_recurring g ~key ~dst (Message.Gossip s)
    in
    { t with gossip = List.fold_left to_peer t.gossip (Pid.all t.n) }

  (* [t] itself when [derived] is what the inner protocol last saw. *)
  let hand_off t derived =
    if Pid.Set.equal derived t.derived then t
    else { t with derived; inner = P.on_suspect t.inner (Report.std derived) }

  let on_init t a = { t with inner = P.on_init t.inner a }
  let recv_inner t ~src msg = { t with inner = P.on_recv t.inner ~src msg }
  let suspect_inner t r = { t with inner = P.on_suspect t.inner r }

  let step t ~now =
    (* Alternate fairly between gossip traffic and the inner protocol so
       neither starves the other. *)
    let gossip_step () =
      match Outbox.next t.gossip ~now with
      | Some (gossip, (dst, msg)) ->
          let t = { t with gossip; gossip_turn = false } in
          Some (t, Protocol.Send_to (dst, msg))
      | None -> None
    in
    let inner_step () =
      let inner, act = P.step t.inner ~now in
      match act with
      | Protocol.No_op ->
          (* an event-free step may still change the inner state (e.g. a
             consensus coordinator's phase transition) - that progress
             must not be discarded *)
          if inner == t.inner then None
          else Some ({ t with inner; gossip_turn = true }, Protocol.No_op)
      | act -> Some ({ t with inner; gossip_turn = true }, act)
    in
    let first, second =
      if t.gossip_turn then (gossip_step, inner_step)
      else (inner_step, gossip_step)
    in
    match first () with
    | Some r -> r
    | None -> (
        match second () with
        | Some r -> r
        | None -> ({ t with gossip_turn = not t.gossip_turn }, Protocol.No_op))

  let quiescent t = P.quiescent t.inner && Outbox.is_empty t.gossip
  let performed t = P.performed t.inner
end

module With_gossip (P : Protocol.S) : Protocol.S = struct
  include Shell (P)

  type state = unit t

  let name = P.name ^ "+gossip"
  let create ~n ~me = make ~n ~me ()

  (* The derived set only grows and is what gets broadcast. The old sets
     stop being resent but stay in flight, which is fine: any stale
     delivery is subsumed. *)
  let learn t s =
    let t' = hand_off t (Pid.Set.union t.derived s) in
    if t' == t then t else broadcast t' t'.derived

  let on_recv t ~src = function
    | Message.Gossip s -> learn t s
    | msg -> recv_inner t ~src msg

  let on_suspect t r =
    match r with
    | Report.Std s -> learn t s
    | Report.Correct_set _ -> learn t (Report.suspects_in ~n:t.n r)
    | Report.Gen _ -> suspect_inner t r
end

module With_gossip_current (P : Protocol.S) : Protocol.S = struct
  include Shell (P)

  (* own detector's latest report; peer -> that peer's latest report *)
  type heard = { own : Pid.Set.t; peers : Pid.Set.t Pid.Map.t }
  type state = heard t

  let name = P.name ^ "+gossip-current"

  let create ~n ~me = make ~n ~me { own = Pid.Set.empty; peers = Pid.Map.empty }

  let recompute t merge =
    hand_off { t with merge }
      (Pid.Map.fold (fun _ s acc -> Pid.Set.union s acc) merge.peers merge.own)

  let on_recv t ~src = function
    | Message.Gossip s ->
        recompute t { t.merge with peers = Pid.Map.add src s t.merge.peers }
    | msg -> recv_inner t ~src msg

  let on_suspect t r =
    match r with
    | Report.Std _ | Report.Correct_set _ ->
        let own = Report.suspects_in ~n:t.n r in
        recompute (broadcast t own) { t.merge with own }
    | Report.Gen _ -> suspect_inner t r
end
