let period = 4

module P : Protocol.S = struct
  type state = {
    me : Pid.t;
    n : int;
    active : Action_id.Set.t;
    performed : Action_id.Set.t;
    to_perform : Action_id.t list;
    (* per action, peers that have acknowledged it *)
    acked : Pid.Set.t Action_id.Map.t;
    hb_seq : int;
    hb_ring : Pid.t list; (* peers still owed the current heartbeat round *)
    last_hb_round : int;
    out : Outbox.t; (* one-shots only: requests re-armed by heartbeats *)
  }

  let name = "heartbeat-nudc"

  let create ~n ~me =
    {
      me;
      n;
      active = Action_id.Set.empty;
      performed = Action_id.Set.empty;
      to_perform = [];
      acked = Action_id.Map.empty;
      hb_seq = 0;
      hb_ring = [];
      last_hb_round = -1;
      out = Outbox.empty;
    }

  let acked_for t alpha =
    Option.value ~default:Pid.Set.empty (Action_id.Map.find_opt alpha t.acked)

  let peers t = List.filter (fun q -> not (Pid.equal q t.me)) (Pid.all t.n)

  (* Entering nUDC(alpha): perform it and send one immediate round of
     alpha-messages; all further retransmissions are heartbeat-driven. *)
  let enter t alpha =
    if Action_id.Set.mem alpha t.active then t
    else
      let out =
        List.fold_left
          (fun out dst ->
            Outbox.push out ~dst (Message.Coord_request (alpha, Fact.Set.empty)))
          t.out (peers t)
      in
      {
        t with
        active = Action_id.Set.add alpha t.active;
        to_perform = t.to_perform @ [ alpha ];
        out;
      }

  let on_init t alpha = enter t alpha

  let on_recv t ~src msg =
    match msg with
    | Message.Coord_request (alpha, _) ->
        let t =
          {
            t with
            out =
              Outbox.push t.out ~dst:src
                (Message.Coord_ack (alpha, Fact.Set.empty));
          }
        in
        enter t alpha
    | Message.Coord_ack (alpha, _) ->
        {
          t with
          acked =
            Action_id.Map.add alpha
              (Pid.Set.add src (acked_for t alpha))
              t.acked;
        }
    | Message.Heartbeat _ ->
        (* a live peer without an acknowledgment: re-arm one
           retransmission per pending action *)
        let out =
          Action_id.Set.fold
            (fun alpha out ->
              if Pid.Set.mem src (acked_for t alpha) then out
              else
                Outbox.push out ~dst:src
                  (Message.Coord_request (alpha, Fact.Set.empty)))
            t.active t.out
        in
        { t with out }
    | _ -> t

  let on_suspect t _ = t

  let step t ~now =
    match t.to_perform with
    | alpha :: rest ->
        ( {
            t with
            to_perform = rest;
            performed = Action_id.Set.add alpha t.performed;
          },
          Protocol.Perform alpha )
    | [] -> (
        match Outbox.next t.out ~now with
        | Some (out, (dst, msg)) -> ({ t with out }, Protocol.Send_to (dst, msg))
        | None ->
            (* heartbeat stream: one peer per step, a fresh round every
               [period] ticks. A rollover does not burn the step: the
               first heartbeat of the new round goes out immediately. *)
            let round = now / period in
            if round > t.last_hb_round then (
              let t =
                { t with last_hb_round = round; hb_seq = t.hb_seq + 1 }
              in
              match peers t with
              | [] -> ({ t with hb_ring = [] }, Protocol.No_op)
              | dst :: ring ->
                  ( { t with hb_ring = ring },
                    Protocol.Send_to (dst, Message.Heartbeat t.hb_seq) ))
            else (
              match t.hb_ring with
              | [] -> (t, Protocol.No_op)
              | dst :: ring ->
                  ( { t with hb_ring = ring },
                    Protocol.Send_to (dst, Message.Heartbeat t.hb_seq) )))

  (* Heartbeats never stop, so the protocol is never globally quiescent;
     the interesting notion — application quiescence — is measured on the
     run by [app_quiescent_after]. *)
  let quiescent _ = false
  let performed t = t.performed
end

let app_quiescent_after run =
  let last_app_send = ref None in
  List.iter
    (fun p ->
      History.iter
        (fun e ~tick ->
          match e with
          | Event.Send { msg = Message.Heartbeat _; _ } -> ()
          | Event.Send _ ->
              if !last_app_send = None || Option.get !last_app_send < tick
              then last_app_send := Some tick
          | _ -> ())
        (Run.history run p))
    (Pid.all (Run.n run));
  match !last_app_send with
  | Some t when t < Run.horizon run -> Some t
  | _ -> None
