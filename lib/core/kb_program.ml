type table = (string, unit) Hashtbl.t

let empty_table () : table = Hashtbl.create 16
let table_size = Hashtbl.length

let digest events =
  String.concat ";" (List.map (fun e -> Format.asprintf "%a" Event.pp e) events)

type guard = Epistemic.Checker.env -> Pid.t -> run:int -> tick:int -> bool

(* The communication shell: it floods alpha-requests and acknowledges
   each one as the Ack_quorum protocols do, but never cancels a request
   on an acknowledgement, and the perform rule is a table lookup on the
   digest of the local history accumulated so far. The state mirrors its
   own history (every callback and every emitted action appends the
   corresponding event), so the digest seen here is exactly the digest of
   the enumerator's history. *)
let shell ~alpha ~table =
  let module P : Protocol.S = struct
    type state = {
      me : Pid.t;
      n : int;
      entered : bool;
      performed : bool;
      rev_events : Event.t list; (* own history, newest first *)
      out : Outbox.t;
    }

    let name = "kb-shell"

    let create ~n ~me =
      { me; n; entered = false; performed = false; rev_events = []; out = Outbox.empty }

    let record t e = { t with rev_events = e :: t.rev_events }

    let req_key dst = "req:" ^ Pid.to_string dst

    let enter t =
      if t.entered then t
      else
        let out =
          List.fold_left
            (fun out dst ->
              if Pid.equal dst t.me then out
              else
                Outbox.set_recurring out ~key:(req_key dst) ~dst
                  (Message.Coord_request (alpha, Fact.Set.empty)))
            t.out (Pid.all t.n)
        in
        { t with entered = true; out }

    let on_init t a =
      let t = record t (Event.Init a) in
      if Action_id.equal a alpha then enter t else t

    let on_recv t ~src msg =
      let t = record t (Event.Recv { src; msg }) in
      match msg with
      | Message.Coord_request (a, _) when Action_id.equal a alpha ->
          let t =
            {
              t with
              out =
                Outbox.push t.out ~dst:src
                  (Message.Coord_ack (alpha, Fact.Set.empty));
            }
          in
          enter t
      | _ -> t

    let on_suspect t r = record t (Event.Suspect r)

    let ready t =
      t.entered
      && (not t.performed)
      && Hashtbl.mem table (digest (List.rev t.rev_events))

    let step t ~now =
      if ready t then
        let t = { t with performed = true } in
        (record t (Event.Do alpha), Protocol.Perform alpha)
      else
        match Outbox.next t.out ~now with
        | Some (out, (dst, msg)) ->
            let t = { t with out } in
            (record t (Event.Send { dst; msg }), Protocol.Send_to (dst, msg))
        | None -> (t, Protocol.No_op)

    let quiescent t = Outbox.is_empty t.out && not (ready t)

    let performed t =
      if t.performed then Action_id.Set.singleton alpha else Action_id.Set.empty
  end in
  (module P : Protocol.S)

type outcome = {
  iterations : int;
  fixpoint : bool;
  table : table;
  env : Epistemic.Checker.env;
}

let generate ~n ~depth ~max_crashes ~alpha ~table =
  let cfg = Enumerate.config ~n ~depth in
  let cfg =
    {
      cfg with
      Enumerate.max_crashes;
      init_plan =
        Init_plan.of_entries [ { Init_plan.action = alpha; at = 1 } ];
      oracle_mode = Enumerate.Perfect_reports;
      max_nodes = 20_000_000;
    }
  in
  (* [runs_exn]: a truncated system would make the guard evaluation — and
     hence the generated program — silently unsound *)
  let out = Enumerate.runs_exn cfg (shell ~alpha ~table) in
  Epistemic.Checker.make (Epistemic.System.of_runs out.Enumerate.runs)

(* One guard evaluation per indistinguishability class: K_p guards are
   constant on classes, so a single representative point suffices. The
   next table contains the digest of every class at which the guard held
   and the process was in a position to act (entered, not crashed, not yet
   performed). *)
let next_table env ~alpha ~guard =
  let sys = Epistemic.Checker.system env in
  let n = Epistemic.System.n sys in
  let table : table = Hashtbl.create 64 in
  let seen_class = Array.init n (fun _ -> Hashtbl.create 256) in
  Epistemic.System.iter_points sys (fun ~run ~tick ->
      for p = 0 to n - 1 do
        let cls = Epistemic.System.class_id sys p ~run ~tick in
        if not (Hashtbl.mem seen_class.(p) cls) then begin
          Hashtbl.add seen_class.(p) cls ();
          let events =
            History.events
              (Run.history_at (Epistemic.System.run sys run) p tick)
          in
          let crashed = List.exists Event.is_crash events in
          let already_performed =
            List.exists
              (function Event.Do a -> Action_id.equal a alpha | _ -> false)
              events
          in
          let knows_init =
            (* cheap syntactic precondition: the digest can only fire for
               histories that contain evidence of the initiation *)
            List.exists
              (function
                | Event.Init a -> Action_id.equal a alpha
                | Event.Recv { msg = Message.Coord_request (a, _); _ } ->
                    Action_id.equal a alpha
                | _ -> false)
              events
          in
          if
            (not crashed) && (not already_performed) && knows_init
            && guard env p ~run ~tick
          then Hashtbl.replace table (digest events) ()
        end
      done);
  table

let tables_equal a b =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold (fun k () acc -> acc && Hashtbl.mem b k) a true

let interpret ~n ~depth ~max_crashes ~alpha ~guard ~max_iters =
  let rec iterate i table =
    let env = generate ~n ~depth ~max_crashes ~alpha ~table in
    let table' = next_table env ~alpha ~guard in
    if tables_equal table table' then
      { iterations = i; fixpoint = true; table; env }
    else if i >= max_iters then
      { iterations = i; fixpoint = false; table = table'; env }
    else iterate (i + 1) table'
  in
  iterate 1 (Hashtbl.create 16)

let prop35_guard ~n ~alpha : guard =
  let open Epistemic.Formula in
  let formula p =
    knows p
      (inited alpha
      &&& (disj (List.map (fun q -> always (neg (crashed q))) (Pid.all n))
          ==> disj
                (List.map
                   (fun q -> knows q (inited alpha) &&& always (neg (crashed q)))
                   (Pid.all n))))
  in
  let memo = Array.init n (fun p -> formula p) in
  fun env p ~run ~tick -> Epistemic.Checker.holds env memo.(p) ~run ~tick
