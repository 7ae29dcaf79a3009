type t = { n : int; horizon : int; histories : History.t array }

let make ~n ~horizon histories =
  if Array.length histories <> n then invalid_arg "Run.make: wrong arity";
  { n; horizon; histories }

let n t = t.n
let horizon t = t.horizon
let history t p = t.histories.(p)
let history_at t p m = History.prefix_upto t.histories.(p) m

let faulty t =
  let rec collect p acc =
    if p >= t.n then acc
    else
      let acc =
        if History.is_crashed t.histories.(p) then Pid.Set.add p acc else acc
      in
      collect (p + 1) acc
  in
  collect 0 Pid.Set.empty

let correct t = Pid.Set.complement t.n (faulty t)

(* R4 (enforced by History.append): a crash, if present, is the last
   event of its history — so the crash tick is the last tick, O(1). *)
let crash_tick t p =
  let h = t.histories.(p) in
  if History.is_crashed h then History.last_tick h else None

let crashed_by t p m =
  match crash_tick t p with None -> false | Some tick -> tick <= m

let initiated t =
  let per_process p =
    let acc = ref [] in
    History.iter
      (fun e ~tick ->
        match e with Event.Init a -> acc := (a, tick) :: !acc | _ -> ())
      t.histories.(p);
    List.rev !acc
  in
  List.concat_map per_process (Pid.all t.n)

let do_tick t p alpha =
  let h = t.histories.(p) in
  let len = History.length h in
  let rec go i =
    if i >= len then None
    else
      match History.event h i with
      | Event.Do a when Action_id.equal a alpha -> Some (History.tick h i)
      | _ -> go (i + 1)
  in
  go 0

let did t p alpha = Option.is_some (do_tick t p alpha)

let equal a b =
  a.n = b.n && a.horizon = b.horizon
  && Array.for_all2 History.equal_timed a.histories b.histories

(* ---------- The structural digest ---------- *)

(* Canonical bytes, every int an 8-byte little-endian word: a set is its
   cardinal then its ascending elements, a list its length then its
   elements, a constructor its tag then its fields. The matches have no
   wildcard, so a new constructor does not compile until it has an
   encoding. The words go into a per-domain byte sink (digests are not
   re-entrant, so one sink per domain suffices), grown geometrically and
   never shrunk, and are digested in place. *)
type sink = { mutable buf : Bytes.t; mutable pos : int }

let sink_key =
  Domain.DLS.new_key (fun () -> { buf = Bytes.create 4096; pos = 0 })

let reserve s k =
  if s.pos + k > Bytes.length s.buf then begin
    let buf = Bytes.create (max (2 * Bytes.length s.buf) (s.pos + k)) in
    Bytes.blit s.buf 0 buf 0 s.pos;
    s.buf <- buf
  end

let word s x =
  reserve s 8;
  Bytes.set_int64_le s.buf s.pos (Int64.of_int x);
  s.pos <- s.pos + 8

let pids s set =
  word s (Pid.Set.cardinal set);
  Pid.Set.iter (word s) set

let action s a =
  word s (Action_id.owner a);
  word s (Action_id.tag a)

let fact s = function
  | Fact.Inited a ->
      word s 0;
      action s a
  | Fact.Did (p, a) ->
      word s 1;
      word s p;
      action s a
  | Fact.Crashed p ->
      word s 2;
      word s p

let facts s set =
  word s (Fact.Set.cardinal set);
  Fact.Set.iter (fact s) set

let message s = function
  | Message.Coord_request (a, f) ->
      word s 0;
      action s a;
      facts s f
  | Message.Coord_ack (a, f) ->
      word s 1;
      action s a;
      facts s f
  | Message.Gossip set ->
      word s 2;
      pids s set
  | Message.Heartbeat seq ->
      word s 3;
      word s seq
  | Message.Cons_estimate { round; value; ts } ->
      word s 4;
      word s round;
      word s value;
      word s ts
  | Message.Cons_propose { round; value } ->
      word s 5;
      word s round;
      word s value
  | Message.Cons_ack { round; ok } ->
      word s 6;
      word s round;
      word s (Bool.to_int ok)
  | Message.Cons_decide { value } ->
      word s 7;
      word s value
  | Message.Swim_ping { origin; seq } ->
      word s 8;
      word s origin;
      word s seq
  | Message.Swim_ack { origin; seq } ->
      word s 9;
      word s origin;
      word s seq
  | Message.Swim_ping_req { target; seq } ->
      word s 10;
      word s target;
      word s seq
  | Message.Gossip_counters l ->
      word s 11;
      word s (List.length l);
      List.iter
        (fun (p, c) ->
          word s p;
          word s c)
        l

let report s = function
  | Report.Std set ->
      word s 0;
      pids s set
  | Report.Gen (set, k) ->
      word s 1;
      pids s set;
      word s k
  | Report.Correct_set c ->
      word s 2;
      pids s c

let event s = function
  | Event.Send { dst; msg } ->
      word s 0;
      word s dst;
      message s msg
  | Event.Recv { src; msg } ->
      word s 1;
      word s src;
      message s msg
  | Event.Do a ->
      word s 2;
      action s a
  | Event.Init a ->
      word s 3;
      action s a
  | Event.Crash -> word s 4
  | Event.Suspect r ->
      word s 5;
      report s r

(* The run record [n, horizon, one 16-byte digest per history] fills the
   front of the sink; each history is encoded behind it, digested, and
   its digest written into its slot. *)
let digest t =
  let s = Domain.DLS.get sink_key in
  s.pos <- 0;
  word s t.n;
  word s t.horizon;
  let record = s.pos + (16 * t.n) in
  reserve s (record - s.pos);
  let timed e ~tick =
    word s tick;
    event s e
  in
  Array.iteri
    (fun p h ->
      s.pos <- record;
      word s (History.length h);
      History.iter timed h;
      Bytes.blit_string
        (Digest.subbytes s.buf record (s.pos - record))
        0 s.buf
        (16 + (16 * p))
        16)
    t.histories;
  Digest.to_hex (Digest.subbytes s.buf 0 record)

let errorf fmt = Format.kasprintf (fun s -> Error s) fmt

let check_r2 t =
  let check_one p =
    let h = t.histories.(p) in
    let len = History.length h in
    let rec go last i =
      if i >= len then Ok ()
      else
        let tick = History.tick h i in
        if tick <= last then errorf "R2 violated at %a: tick %d" Pid.pp p tick
        else if tick > t.horizon then
          errorf "R2 violated at %a: tick %d beyond horizon" Pid.pp p tick
        else go tick (i + 1)
    in
    go 0 0
  in
  List.fold_left
    (fun acc p -> match acc with Error _ -> acc | Ok () -> check_one p)
    (Ok ()) (Pid.all t.n)

(* Channels keyed by structure: polymorphic equality would compare the
   AVL shape of set payloads, so a receive whose set was built in another
   insertion order than its send's would find no send. *)
module Channel_msg = Hashtbl.Make (struct
  type t = Pid.t * Pid.t * Message.t

  let equal (s, d, m) (s', d', m') =
    Pid.equal s s' && Pid.equal d d' && Message.equal m m'

  let hash (s, d, m) = Fnv.mix (Fnv.mix (Fnv.mix Fnv.seed s) d) (Message.hash m)
end)

(* R3 with multiplicity: along each channel (p,q) and message content, the
   number of receives by any tick must not exceed the number of sends by
   that tick. Receives of a key occur in one history, hence in ascending
   tick order (R2), so a monotone cursor into the ascending send-tick
   array maintains the running send count — O(sends + receives) per key
   instead of re-filtering the send list at every receive. *)
let check_r3 t =
  let sends = Channel_msg.create 64 in
  (* (src,dst,msg) -> send ticks, ascending *)
  List.iter
    (fun p ->
      History.iter
        (fun e ~tick ->
          match e with
          | Event.Send { dst; msg } ->
              let key = (p, dst, msg) in
              let prev =
                Option.value ~default:[] (Channel_msg.find_opt sends key)
              in
              Channel_msg.replace sends key (tick :: prev)
          | _ -> ())
        t.histories.(p))
    (Pid.all t.n);
  let sends =
    let arrays = Channel_msg.create (Channel_msg.length sends) in
    Channel_msg.iter
      (fun k v -> Channel_msg.add arrays k (Array.of_list (List.rev v)))
      sends;
    arrays
  in
  let check_receiver q =
    (* per key: (cursor = sends with tick <= last receive seen, consumed) *)
    let state = Channel_msg.create 16 in
    let h = t.histories.(q) in
    let len = History.length h in
    let rec go i =
      if i >= len then Ok ()
      else
        match History.event h i with
        | Event.Recv { src; msg } ->
            let tick = History.tick h i in
            let key = (src, q, msg) in
            let cursor, consumed =
              Option.value ~default:(0, 0) (Channel_msg.find_opt state key)
            in
            let ticks =
              Option.value ~default:[||] (Channel_msg.find_opt sends key)
            in
            let cursor = ref cursor in
            while !cursor < Array.length ticks && ticks.(!cursor) <= tick do
              incr cursor
            done;
            if consumed >= !cursor then
              errorf "R3 violated: %a receives %a from %a with no send"
                Pid.pp q Message.pp msg Pid.pp src
            else (
              Channel_msg.replace state key (!cursor, consumed + 1);
              go (i + 1))
        | _ -> go (i + 1)
    in
    go 0
  in
  List.fold_left
    (fun acc q -> match acc with Error _ -> acc | Ok () -> check_receiver q)
    (Ok ()) (Pid.all t.n)

let check_r4 t =
  let check_one p =
    let h = t.histories.(p) in
    let len = History.length h in
    let rec go i =
      if i >= len - 1 then Ok ()
      else if Event.is_crash (History.event h i) then
        errorf "R4 violated at %a: crash is not last" Pid.pp p
      else go (i + 1)
    in
    go 0
  in
  List.fold_left
    (fun acc p -> match acc with Error _ -> acc | Ok () -> check_one p)
    (Ok ()) (Pid.all t.n)

(* R5 (fairness surrogate on a finite prefix): along each channel
   (p, q correct) and fairness class ({!Message.fairness}, the class
   the channel counts its drops by), count the sends after the last
   receive in that class — the {e consecutive unanswered} tail (a
   receive at tick [t] answers every send of its class at tick [<= t],
   since the channel does not reorder within a class). An infinite
   fair channel delivers at least one of every
   [max_consecutive_drops + 1] consecutive sends, so an unbounded
   unanswered tail is the finite witness of unfairness. The threshold tolerates
   [2 * max_consecutive_drops + 1]: up to [k] trailing sends may be
   legitimately dropped, and up to [k + 1] more may be kept by the
   channel but still in flight when the prefix ends (horizon
   truncation), so only a strictly longer tail is a genuine violation. *)
let check_r5 t ~max_consecutive_drops =
  let last_recv = Hashtbl.create 64 in
  (* (src, dst, class) -> last receive tick *)
  List.iter
    (fun q ->
      History.iter
        (fun e ~tick ->
          match e with
          | Event.Recv { src; msg } ->
              Hashtbl.replace last_recv (src, q, Message.fairness msg) tick
          | _ -> ())
        t.histories.(q))
    (Pid.all t.n);
  let fail = ref (Ok ()) in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          if not (Pid.equal p q) then
            match crash_tick t q with
            | Some _ -> () (* fairness only constrains correct receivers *)
            | None ->
                let unanswered = Hashtbl.create 8 in
                (* class -> sends since the class's last receive *)
                History.iter
                  (fun e ~tick ->
                    match e with
                    | Event.Send { dst; msg } when Pid.equal dst q ->
                        let k = Message.fairness msg in
                        let answered =
                          match Hashtbl.find_opt last_recv (p, q, k) with
                          | Some rt -> tick <= rt
                          | None -> false
                        in
                        if answered then Hashtbl.replace unanswered k 0
                        else
                          let prev =
                            Option.value ~default:0
                              (Hashtbl.find_opt unanswered k)
                          in
                          Hashtbl.replace unanswered k (prev + 1)
                    | _ -> ())
                  t.histories.(p);
                Hashtbl.iter
                  (fun k tail ->
                    if tail > (2 * max_consecutive_drops) + 1 then
                      match !fail with
                      | Error _ -> ()
                      | Ok () ->
                          fail :=
                            errorf
                              "R5 violated: %a sent %a to %a %d consecutive \
                               times unanswered"
                              Pid.pp p Message.pp_fairness k Pid.pp q tail)
                  unanswered)
        (Pid.all t.n))
    (Pid.all t.n);
  !fail

let check_init_once t =
  let seen = Hashtbl.create 16 in
  let fail = ref (Ok ()) in
  List.iter
    (fun p ->
      History.iter
        (fun e ~tick:_ ->
          match e with
          | Event.Init a ->
              if not (Pid.equal (Action_id.owner a) p) then (
                match !fail with
                | Error _ -> ()
                | Ok () ->
                    fail :=
                      errorf "init(%a) appears at non-owner %a" Action_id.pp a
                        Pid.pp p)
              else if Hashtbl.mem seen a then (
                match !fail with
                | Error _ -> ()
                | Ok () ->
                    fail := errorf "init(%a) appears twice" Action_id.pp a)
              else Hashtbl.add seen a ()
          | _ -> ())
        t.histories.(p))
    (Pid.all t.n);
  !fail

let check_well_formed t ~max_consecutive_drops =
  let ( >>= ) r f = match r with Error _ as e -> e | Ok () -> f () in
  check_r2 t >>= fun () ->
  check_r3 t >>= fun () ->
  check_r4 t >>= fun () ->
  check_r5 t ~max_consecutive_drops >>= fun () -> check_init_once t

let pp ppf t =
  Format.fprintf ppf "@[<v>run(n=%d, horizon=%d)@," t.n t.horizon;
  List.iter
    (fun p ->
      Format.fprintf ppf "  %a: %a@," Pid.pp p History.pp t.histories.(p))
    (Pid.all t.n);
  Format.fprintf ppf "@]"
