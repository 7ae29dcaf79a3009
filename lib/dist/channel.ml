(* In-flight storage is struct-of-arrays per destination: parallel
   [src]/[msg]/[sent] buffers in send order, grown geometrically. The
   simulator's scheduling slot reads the backlog and individual entries
   without materializing a list; [deliverable] stays as the list view for
   cold callers. Removal semantics are bit-compatible with the original
   newest-first cons representation: [deliver] removes the {e newest}
   matching instance, and [oldest_in_flight] breaks sent-tick ties toward
   the {e newest} entry, exactly as the old fold over the newest-first
   list did.

   Because the simulator's clock never goes backwards, the [sent] column
   of a queue is nondecreasing in practice; [sorted] tracks whether that
   invariant has held for every push so far. While it holds,
   [oldest_in_flight] is a binary search (the minimum is at index 0 and
   the newest tie is the last entry with that send tick) instead of a
   full scan — the old O(backlog) scan per delivery was quadratic pain at
   large-n backlogs. A caller that pushes out of order (nothing in the
   tree does, but the API allows it) merely flips the queue back to the
   scan path: behaviour is identical either way, only the complexity
   changes. *)

type queue = {
  mutable src : int array;
  mutable msg : Message.t array;
  mutable sent : int array;
  mutable len : int;
  mutable sorted : bool; (* [sent] nondecreasing so far *)
}

type add = { window : int; bound : int }

type t = {
  decide : now:int -> src:Pid.t -> dst:Pid.t -> rate:float -> bool;
  mutable loss_rate : float;
  link_loss : (Pid.t * Pid.t, float) Hashtbl.t;
  max_consecutive_drops : int;
  add : add option;
  flight : queue array; (* dense: one queue per destination pid *)
  mutable count : int; (* total in flight, all destinations *)
  (* (src, dst, fairness key) -> consecutive losses *)
  drops : (Pid.t * Pid.t * string, int ref) Hashtbl.t;
  (* ADD regime only: (src, dst) -> consecutive losses on the link,
     regardless of message content. Untouched when [add = None]. *)
  add_drops : (Pid.t * Pid.t, int ref) Hashtbl.t;
}

let filler_msg = Message.Heartbeat 0

let fresh_queue () =
  { src = [||]; msg = [||]; sent = [||]; len = 0; sorted = true }

let queue_push q ~src ~msg ~sent =
  if q.len = Array.length q.src then begin
    let cap = max 8 (2 * q.len) in
    let src' = Array.make cap 0 in
    let msg' = Array.make cap filler_msg in
    let sent' = Array.make cap 0 in
    Array.blit q.src 0 src' 0 q.len;
    Array.blit q.msg 0 msg' 0 q.len;
    Array.blit q.sent 0 sent' 0 q.len;
    q.src <- src';
    q.msg <- msg';
    q.sent <- sent'
  end;
  if q.sorted && q.len > 0 && sent < q.sent.(q.len - 1) then q.sorted <- false;
  q.src.(q.len) <- src;
  q.msg.(q.len) <- msg;
  q.sent.(q.len) <- sent;
  q.len <- q.len + 1

let queue_remove q i =
  let tail = q.len - i - 1 in
  Array.blit q.src (i + 1) q.src i tail;
  Array.blit q.msg (i + 1) q.msg i tail;
  Array.blit q.sent (i + 1) q.sent i tail;
  q.len <- q.len - 1;
  (* drop the stale tail reference so sealed messages can be collected *)
  q.msg.(q.len) <- filler_msg

let create ?(link_loss = []) ?add ~n ~decide ~loss_rate ~max_consecutive_drops
    () =
  if n < 0 then invalid_arg "Channel.create: n";
  if loss_rate < 0.0 || loss_rate > 1.0 then
    invalid_arg "Channel.create: loss_rate";
  if max_consecutive_drops < 0 then
    invalid_arg "Channel.create: max_consecutive_drops";
  (match add with
  | Some { window; bound } ->
      if window < 1 then invalid_arg "Channel.create: add window";
      if bound < 1 then invalid_arg "Channel.create: add bound"
  | None -> ());
  let overrides = Hashtbl.create 8 in
  List.iter (fun (link, rate) -> Hashtbl.replace overrides link rate) link_loss;
  {
    decide;
    loss_rate;
    link_loss = overrides;
    max_consecutive_drops;
    add;
    flight = Array.init n (fun _ -> fresh_queue ());
    count = 0;
    drops = Hashtbl.create 64;
    add_drops = Hashtbl.create 8;
  }

(* A row's consecutive-loss counter, created at zero on first sight. The
   counters are bumped in place: [Hashtbl.replace] would store each
   send's fresh key into an old bucket, feeding the minor GC's
   remembered set on every send. *)
let counter tbl key =
  match Hashtbl.find tbl key with
  | c -> c
  | exception Not_found ->
      let c = ref 0 in
      Hashtbl.add tbl key c;
      c

(* The loss decision half of [send]: consult the fairness table and the
   decision source, update the consecutive-loss count, but do not touch
   the in-flight queues. The simulator's kernel gates every send with
   global pids, because its channel indexes only one pid window: a send
   inside the window is then injected at the local index, and a send
   that leaves it (a cross-shard send) is injected on the destination
   shard's channel. [dst] may therefore be any pid, not just one of this
   channel's [n] destinations. *)
let gate t ~now ~src ~dst msg =
  let rate =
    if Hashtbl.length t.link_loss = 0 then t.loss_rate
    else
      Option.value ~default:t.loss_rate
        (Hashtbl.find_opt t.link_loss (src, dst))
  in
  let drops = counter t.drops (src, dst, Message.fairness_key msg) in
  (* ADD channels bound the loss on each (src, dst) link as a whole: at
     most [window - 1] consecutive drops regardless of message content,
     so every window of [window] sends delivers at least one message
     (Kumar & Welch's average-loss bound, specialized to a sliding
     window). The forced keep consumes no decision, so traces are
     bit-identical whenever the force never fires — and [add = None]
     leaves this whole branch dead. *)
  let add_forced, link_drops =
    match t.add with
    | None -> (false, None)
    | Some { window; _ } ->
        let c = counter t.add_drops (src, dst) in
        (!c >= window - 1, Some c)
  in
  let forced_keep = !drops >= t.max_consecutive_drops || add_forced in
  let drop = (not forced_keep) && t.decide ~now ~src ~dst ~rate in
  if drop then (
    incr drops;
    Option.iter incr link_drops)
  else (
    drops := 0;
    Option.iter (fun c -> c := 0) link_drops);
  not drop

(* The enqueue half of [send]: file a message whose loss decision was
   already made (by this channel's [gate] or by a remote shard's). *)
let inject t ~src ~dst ~sent msg =
  queue_push t.flight.(dst) ~src ~msg ~sent;
  t.count <- t.count + 1

let send t ~now ~src ~dst msg =
  if gate t ~now ~src ~dst msg then (
    inject t ~src ~dst ~sent:now msg;
    `Kept)
  else `Dropped

let backlog t ~dst = t.flight.(dst).len

let nth_in_flight t ~dst i =
  let q = t.flight.(dst) in
  if i < 0 || i >= q.len then invalid_arg "Channel.nth_in_flight";
  (q.src.(i), q.msg.(i), q.sent.(i))

let deliverable t ~dst =
  let q = t.flight.(dst) in
  List.init q.len (fun i -> (q.src.(i), q.msg.(i), q.sent.(i)))

let oldest_in_flight t ~dst =
  let q = t.flight.(dst) in
  if q.len = 0 then None
  else if q.sorted then begin
    (* the minimum send tick is at index 0; the newest entry with that
       tick (the historical [<=] tie-break) is the last index of the
       leading run of equal ticks — binary search for its end *)
    let oldest = q.sent.(0) in
    let lo = ref 0 and hi = ref (q.len - 1) in
    (* invariant: sent.(lo) = oldest; find the greatest such index *)
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if q.sent.(mid) = oldest then lo := mid else hi := mid - 1
    done;
    let best = !lo in
    Some (q.src.(best), q.msg.(best), q.sent.(best))
  end
  else begin
    (* ties on the send tick resolve to the newest entry ([<=]) — the
       tie-break of the historical newest-first fold, preserved for
       bit-identical replay *)
    let best = ref 0 in
    for i = 1 to q.len - 1 do
      if q.sent.(i) <= q.sent.(!best) then best := i
    done;
    Some (q.src.(!best), q.msg.(!best), q.sent.(!best))
  end

let deliver t ~src ~dst msg =
  let q = t.flight.(dst) in
  (* Newest matching instance, as in the original list removal. The
     physical-equality probe is a pure fast path: the simulator passes
     the exact value it read out of this queue, and [==] implying
     [Message.equal] means the first physical hit is also the first
     structural hit scanning from the newest end. *)
  let rec find i =
    if i < 0 then invalid_arg "Channel.deliver: message not in flight"
    else if
      Pid.equal q.src.(i) src
      && (q.msg.(i) == msg || Message.equal q.msg.(i) msg)
    then i
    else find (i - 1)
  in
  queue_remove q (find (q.len - 1));
  t.count <- t.count - 1

let in_flight_count t = t.count

let drop_all_in_flight t =
  Array.iter
    (fun q ->
      Array.fill q.msg 0 q.len filler_msg;
      q.len <- 0;
      q.sorted <- true)
    t.flight;
  t.count <- 0

let drop_in_flight_to t ~dst =
  let q = t.flight.(dst) in
  Array.fill q.msg 0 q.len filler_msg;
  t.count <- t.count - q.len;
  q.len <- 0;
  q.sorted <- true

(* A crashed process never sends again and never accepts another send, so
   its rows in the fairness table are dead weight — and at large n the
   table is keyed by (src, dst, fairness key), an O(n² · keys) leak if
   churn keeps adding processes that later crash. Dropping the dead rows
   is behaviour-neutral: no future [gate] call can look them up. *)
let forget t ~pid =
  let dead =
    Hashtbl.fold
      (fun ((src, dst, _) as key) _ acc ->
        if Pid.equal src pid || Pid.equal dst pid then key :: acc else acc)
      t.drops []
  in
  List.iter (Hashtbl.remove t.drops) dead;
  let dead_links =
    Hashtbl.fold
      (fun ((src, dst) as key) _ acc ->
        if Pid.equal src pid || Pid.equal dst pid then key :: acc else acc)
      t.add_drops []
  in
  List.iter (Hashtbl.remove t.add_drops) dead_links

let fairness_table_size t = Hashtbl.length t.drops
let set_loss_rate t rate = t.loss_rate <- rate
