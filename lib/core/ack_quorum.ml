module type RULE = sig
  val name : string

  type det

  val initial : det
  val on_suspect : n:int -> det -> Report.t -> det
  val ready : n:int -> me:Pid.t -> det -> acked:Pid.Set.t -> bool
  val stop_after_perform : bool
end

let covered ~n ~me ~acked s =
  List.for_all
    (fun q -> Pid.equal q me || Pid.Set.mem q acked || Pid.Set.mem q s)
    (Pid.all n)

module Make (R : RULE) : Protocol.S = struct
  type state = {
    me : Pid.t;
    n : int;
    entered : Action_id.Set.t;
    performed : Action_id.Set.t;
    acked : Pid.Set.t Action_id.Map.t; (* per action, who acknowledged *)
    det : R.det;
    out : Outbox.t;
  }

  let name = R.name

  let create ~n ~me =
    {
      me;
      n;
      entered = Action_id.Set.empty;
      performed = Action_id.Set.empty;
      acked = Action_id.Map.empty;
      det = R.initial;
      out = Outbox.empty;
    }

  let req_key alpha dst =
    Printf.sprintf "req:%s:%s" (Action_id.to_string alpha) (Pid.to_string dst)

  let acked_for t alpha =
    Option.value ~default:Pid.Set.empty (Action_id.Map.find_opt alpha t.acked)

  let enter t alpha =
    if Action_id.Set.mem alpha t.entered then t
    else
      let out =
        List.fold_left
          (fun out dst ->
            if Pid.equal dst t.me then out
            else
              Outbox.set_recurring out ~key:(req_key alpha dst) ~dst
                (Message.Coord_request (alpha, Fact.Set.empty)))
          t.out (Pid.all t.n)
      in
      { t with entered = Action_id.Set.add alpha t.entered; out }

  let on_init = enter

  let on_recv t ~src msg =
    match msg with
    | Message.Coord_request (alpha, _) ->
        (* acknowledge every alpha-message, then enter UDC(alpha) *)
        let ack = Message.Coord_ack (alpha, Fact.Set.empty) in
        enter { t with out = Outbox.push t.out ~dst:src ack } alpha
    | Message.Coord_ack (alpha, _) ->
        let acked = Pid.Set.add src (acked_for t alpha) in
        {
          t with
          acked = Action_id.Map.add alpha acked t.acked;
          out = Outbox.cancel t.out ~key:(req_key alpha src);
        }
    | _ -> t

  let on_suspect t r =
    let det = R.on_suspect ~n:t.n t.det r in
    if det == t.det then t else { t with det }

  (* [alpha] is always drawn from [t.entered] *)
  let ready t alpha =
    (not (Action_id.Set.mem alpha t.performed))
    && R.ready ~n:t.n ~me:t.me t.det ~acked:(acked_for t alpha)

  let step t ~now =
    match List.find_opt (ready t) (Action_id.Set.elements t.entered) with
    | Some alpha ->
        let out =
          if not R.stop_after_perform then t.out
          else
            List.fold_left
              (fun out dst -> Outbox.cancel out ~key:(req_key alpha dst))
              t.out (Pid.all t.n)
        in
        ( { t with performed = Action_id.Set.add alpha t.performed; out },
          Protocol.Perform alpha )
    | None -> (
        match Outbox.next t.out ~now with
        | Some (out, (dst, msg)) ->
            ({ t with out }, Protocol.Send_to (dst, msg))
        | None -> (t, Protocol.No_op))

  let quiescent t =
    Outbox.is_empty t.out
    && Action_id.Set.for_all
         (fun alpha ->
           Action_id.Set.mem alpha t.performed || not (ready t alpha))
         t.entered

  let performed t = t.performed
end
