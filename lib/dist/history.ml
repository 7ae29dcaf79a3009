(* Struct-of-arrays histories. The event sequence lives in parallel
   [events]/[ticks] arrays (chronological). The arrays are never mutated
   after construction, so [prefix_upto] shares them and only shrinks
   [len] — a cut is O(log n) time and O(1) space. The functional
   [append] copies both arrays (the cold path: enumeration trees, whose
   histories are bounded by the search depth, and tests). The
   simulator's hot loop goes through [Builder], which appends into
   geometrically grown buffers and seals an exact-size snapshot per run. A
   history carries no hash: the one product reader, the explorer's seen
   cache, fingerprints each run once, and [hash_timed_events] is a plain
   O(n) fold. *)

type t = {
  events : Event.t array;
  ticks : int array;
  len : int;
      (* may be smaller than the arrays: prefixes share their parent's
         buffers *)
}

let empty = { events = [||]; ticks = [||]; len = 0 }
let length h = h.len
let is_crashed h = h.len > 0 && Event.is_crash h.events.(h.len - 1)
let last h = if h.len = 0 then None else Some h.events.(h.len - 1)
let last_tick h = if h.len = 0 then None else Some h.ticks.(h.len - 1)

let hash_timed_events h =
  let acc = ref Fnv.seed in
  for i = 0 to h.len - 1 do
    acc := Fnv.mix (Fnv.mix !acc h.ticks.(i)) (Event.hash h.events.(i))
  done;
  !acc

let append h e ~tick =
  if is_crashed h then invalid_arg "History.append: history ends in crash (R4)";
  let last = if h.len = 0 then -1 else h.ticks.(h.len - 1) in
  if tick <= last then
    invalid_arg "History.append: more than one event per tick (R2)";
  let len = h.len in
  let events = Array.make (len + 1) e in
  let ticks = Array.make (len + 1) tick in
  Array.blit h.events 0 events 0 len;
  Array.blit h.ticks 0 ticks 0 len;
  { events; ticks; len = len + 1 }

let events h = List.init h.len (fun i -> h.events.(i))

let timed_events h =
  let rec go i acc =
    if i < 0 then acc else go (i - 1) ((h.events.(i), h.ticks.(i)) :: acc)
  in
  go (h.len - 1) []

let iter f h =
  for i = 0 to h.len - 1 do
    f h.events.(i) ~tick:h.ticks.(i)
  done

let event h i =
  if i < 0 || i >= h.len then invalid_arg "History.event: out of bounds";
  h.events.(i)

let tick h i =
  if i < 0 || i >= h.len then invalid_arg "History.tick: out of bounds";
  h.ticks.(i)

let prefix_upto h m =
  (* ticks are strictly increasing (R2): binary search for the cut *)
  let lo = ref 0 and hi = ref h.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if h.ticks.(mid) <= m then lo := mid + 1 else hi := mid
  done;
  if !lo = h.len then h else { h with len = !lo }

let equal_timed a b =
  a.len = b.len
  &&
  let rec go i =
    i >= a.len
    || Int.equal a.ticks.(i) b.ticks.(i)
       && Event.equal a.events.(i) b.events.(i)
       && go (i + 1)
  in
  go 0

let pp ppf h =
  Format.fprintf ppf "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       (fun ppf (e, tick) -> Format.fprintf ppf "%d:%a" tick Event.pp e))
    (timed_events h)

module Builder = struct
  type history = t

  type t = {
    mutable events : Event.t array; (* capacity >= len *)
    mutable ticks : int array;
    mutable len : int;
    mutable crashed : bool;
    mutable suspect : Report.t option; (* last Suspect payload, O(1) *)
  }

  let fresh ?(capacity = 64) () =
    let capacity = max 1 capacity in
    {
      events = Array.make capacity Event.Crash;
      ticks = Array.make capacity 0;
      len = 0;
      crashed = false;
      suspect = None;
    }

  (* Grown geometrically, never shrunk; [len] delimits the live region and
     [seal] copies only that. *)
  let grow b =
    let cap = Array.length b.events in
    let cap' = 2 * cap in
    let events = Array.make cap' Event.Crash in
    let ticks = Array.make cap' 0 in
    Array.blit b.events 0 events 0 b.len;
    Array.blit b.ticks 0 ticks 0 b.len;
    b.events <- events;
    b.ticks <- ticks

  let length b = b.len
  let is_crashed b = b.crashed
  let last_tick b = if b.len = 0 then -1 else b.ticks.(b.len - 1)
  let last_suspect b = b.suspect

  let append b e ~tick =
    if b.crashed then
      invalid_arg "History.append: history ends in crash (R4)";
    if tick <= last_tick b then
      invalid_arg "History.append: more than one event per tick (R2)";
    if b.len = Array.length b.events then grow b;
    let i = b.len in
    b.events.(i) <- e;
    b.ticks.(i) <- tick;
    b.len <- i + 1;
    (match e with
    | Event.Crash -> b.crashed <- true
    | Event.Suspect r -> b.suspect <- Some r
    | _ -> ())

  let seal b : history =
    {
      events = Array.sub b.events 0 b.len;
      ticks = Array.sub b.ticks 0 b.len;
      len = b.len;
    }
end
