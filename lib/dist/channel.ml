(* In-flight storage is struct-of-arrays per destination: parallel
   [src]/[msg]/[sent] buffers in send order, grown geometrically. The
   simulator's scheduling slot reads the backlog and individual entries
   without materializing a list. Removal semantics are bit-compatible
   with the original newest-first cons representation: [deliver] removes
   the {e newest} matching instance, and [oldest_in_flight] breaks
   sent-tick ties toward the {e newest} entry, exactly as the old fold
   over the newest-first list did.

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

(* A fairness row: the consecutive losses on one (src, dst) link in one
   fairness class ({!Message.fairness}). The rows form a hash table of
   their own, chained per bucket through [next] down to [nil]: a row is
   one 8-word block, a lookup compares ints and allocates nothing, and
   the table holds no message. The ADD regime's per-link rows use
   [link_kind], a kind no message class has. *)
type row = {
  src : int;
  dst : int;
  kind : int;
  x : int;
  y : int;
  mutable drops : int;
  mutable next : row;
}

let rec nil =
  { src = 0; dst = 0; kind = 0; x = 0; y = 0; drops = 0; next = nil }

let link_kind = -1

(* A polynomial over the key, then a multiply-xorshift finalizer: the
   bucket is the low bits, which a bare polynomial (or an FNV chain)
   leaves correlated for neighbouring pids, so rows of adjacent links
   would pile into a few buckets. [buckets] has a power-of-two length. *)
let slot buckets ~src ~dst ~kind ~x ~y =
  let h = (((((((src * 31) + dst) * 31) + kind) * 31) + x) * 31) + y in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land (Array.length buckets - 1)

type t = {
  decide : now:int -> src:Pid.t -> dst:Pid.t -> rate:float -> bool;
  mutable loss_rate : float;
  link_loss : (Pid.t * Pid.t, float) Hashtbl.t;
  max_consecutive_drops : int;
  add : add option;
  flight : queue array; (* dense: one queue per destination pid *)
  mutable count : int; (* total in flight, all destinations *)
  mutable buckets : row array; (* fairness rows, see [row] *)
  mutable rows : int;
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
    buckets = Array.make 64 nil;
    rows = 0;
  }

let rec find r ~src ~dst ~kind ~x ~y =
  if
    r == nil
    || (r.src = src && r.dst = dst && r.kind = kind && r.x = x && r.y = y)
  then r
  else find r.next ~src ~dst ~kind ~x ~y

(* Rehash into twice the buckets, relinking the rows themselves. *)
let grow t =
  let buckets = Array.make (2 * Array.length t.buckets) nil in
  let rec move r =
    if r != nil then begin
      let next = r.next in
      let i = slot buckets ~src:r.src ~dst:r.dst ~kind:r.kind ~x:r.x ~y:r.y in
      r.next <- buckets.(i);
      buckets.(i) <- r;
      move next
    end
  in
  Array.iter move t.buckets;
  t.buckets <- buckets

(* A row, created at zero on first sight. Its counter is bumped in
   place, so a send stores nothing into an old block: a fresh value
   there would feed the minor GC's remembered set on every send. *)
let row t ~src ~dst ~kind ~x ~y =
  let i = slot t.buckets ~src ~dst ~kind ~x ~y in
  let r = find t.buckets.(i) ~src ~dst ~kind ~x ~y in
  if r != nil then r
  else begin
    let r = { src; dst; kind; x; y; drops = 0; next = t.buckets.(i) } in
    t.buckets.(i) <- r;
    t.rows <- t.rows + 1;
    if t.rows > 2 * Array.length t.buckets then grow t;
    r
  end

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
  let cls = Message.fairness msg in
  let r = row t ~src ~dst ~kind:cls.kind ~x:cls.x ~y:cls.y in
  (* ADD channels bound the loss on each (src, dst) link as a whole: at
     most [window - 1] consecutive drops regardless of message content,
     so every window of [window] sends delivers at least one message
     (Kumar & Welch's average-loss bound, specialized to a sliding
     window). The forced keep consumes no decision, so traces are
     bit-identical whenever the force never fires — and [add = None]
     leaves this whole branch dead. *)
  let add_forced, link =
    match t.add with
    | None -> (false, None)
    | Some { window; _ } ->
        let l = row t ~src ~dst ~kind:link_kind ~x:0 ~y:0 in
        (l.drops >= window - 1, Some l)
  in
  let forced_keep = r.drops >= t.max_consecutive_drops || add_forced in
  let drop = (not forced_keep) && t.decide ~now ~src ~dst ~rate in
  if drop then (
    r.drops <- r.drops + 1;
    Option.iter (fun l -> l.drops <- l.drops + 1) link)
  else (
    r.drops <- 0;
    Option.iter (fun l -> l.drops <- 0) link);
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

(* The first row of chain [r] that does not touch [pid]; the rows
   skipped are gone from the table. *)
let rec live t ~pid r =
  if r != nil && (r.src = pid || r.dst = pid) then begin
    t.rows <- t.rows - 1;
    live t ~pid r.next
  end
  else r

let rec prune t ~pid r =
  if r != nil then begin
    let next = live t ~pid r.next in
    if next != r.next then r.next <- next;
    prune t ~pid next
  end

(* A crashed process never sends again and never accepts another send, so
   its fairness rows are dead weight — and at large n the table holds a
   row per live (src, dst, class), an O(n² · classes) leak if churn keeps
   adding processes that later crash. Dropping the dead rows is
   behaviour-neutral: no future [gate] call can look them up. *)
let forget t ~pid =
  for i = 0 to Array.length t.buckets - 1 do
    let head = t.buckets.(i) in
    let head' = live t ~pid head in
    if head' != head then t.buckets.(i) <- head';
    prune t ~pid head'
  done

let fairness_table_size t = t.rows
let set_loss_rate t rate = t.loss_rate <- rate
