type recurring = { key : string; dst : Pid.t; msg : Message.t; last_sent : int }

(* Both queues are two-list rotations (front in order, back reversed), so
   a (re)send costs O(1) amortized instead of the [rest @ [x]] rebuild of
   the single-list version. The observable rotation order is
   [front @ List.rev back] and every operation below preserves exactly
   the order the single-list version produced. *)
type t = {
  oneshot_front : (Pid.t * Message.t) list;
  oneshot_back : (Pid.t * Message.t) list; (* reversed *)
  recurring_front : recurring list; (* rotation order: head is next *)
  recurring_back : recurring list; (* reversed *)
}

let resend_period = 3

let empty =
  {
    oneshot_front = [];
    oneshot_back = [];
    recurring_front = [];
    recurring_back = [];
  }

let push t ~dst msg = { t with oneshot_back = (dst, msg) :: t.oneshot_back }

let set_recurring t ~key ~dst msg =
  let keep r = r.key <> key in
  (* a fresh entry is immediately eligible (beware: min_int here would
     overflow the [now - last_sent] subtraction) *)
  let fresh = { key; dst; msg; last_sent = -resend_period } in
  {
    t with
    recurring_front = List.filter keep t.recurring_front;
    recurring_back = fresh :: List.filter keep t.recurring_back;
  }

let cancel t ~key =
  let keep r = r.key <> key in
  {
    t with
    recurring_front = List.filter keep t.recurring_front;
    recurring_back = List.filter keep t.recurring_back;
  }

let next t ~now =
  match t.oneshot_front with
  | x :: rest -> Some ({ t with oneshot_front = rest }, x)
  | [] -> (
      match List.rev t.oneshot_back with
      | x :: rest ->
          Some ({ t with oneshot_front = rest; oneshot_back = [] }, x)
      | [] ->
          (* first eligible recurring entry in rotation order; it moves to
             the back of the rotation after (re)sending *)
          let rec find skipped front back =
            match front with
            | [] ->
                if back = [] then None else find skipped (List.rev back) []
            | r :: rest ->
                if now - r.last_sent >= resend_period then
                  Some
                    ( {
                        t with
                        recurring_front = List.rev_append skipped rest;
                        recurring_back = { r with last_sent = now } :: back;
                      },
                      (r.dst, r.msg) )
                else find (r :: skipped) rest back
          in
          find [] t.recurring_front t.recurring_back)

let is_empty t =
  t.oneshot_front = [] && t.oneshot_back = []
  && t.recurring_front = [] && t.recurring_back = []
