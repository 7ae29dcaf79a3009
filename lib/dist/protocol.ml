type step_action =
  | Send_to of Pid.t * Message.t
  | Perform of Action_id.t
  | No_op

module type S = sig
  type state

  val name : string
  val create : n:int -> me:Pid.t -> state
  val on_init : state -> Action_id.t -> state
  val on_recv : state -> src:Pid.t -> Message.t -> state
  val on_suspect : state -> Report.t -> state
  val step : state -> now:int -> state * step_action
  val quiescent : state -> bool
  val performed : state -> Action_id.Set.t
end

module type S_timed = sig
  type state

  val name : string
  val create : n:int -> me:Pid.t -> state
  val on_init : state -> Action_id.t -> state
  val on_recv : state -> now:int -> src:Pid.t -> Message.t -> state
  val on_suspect : state -> Report.t -> state
  val step : state -> now:int -> state * step_action
  val quiescent : state -> bool
  val performed : state -> Action_id.Set.t
end

type t = Packed : (module S_timed with type state = 's) * 's -> t

let make_timed (module M : S_timed) ~n ~me =
  Packed ((module M : S_timed with type state = M.state), M.create ~n ~me)

let make (module M : S) ~n ~me =
  let module T = struct
    include M

    let on_recv s ~now:_ ~src msg = M.on_recv s ~src msg
  end in
  Packed ((module T : S_timed with type state = M.state), T.create ~n ~me)

let name (Packed ((module M), _)) = M.name

(* A transition that returns its state physically unchanged (the
   backend adapter, which updates its record in place, and the ring
   detectors' quiet slots) returns the packed value itself: no fresh
   pack, and the caller can skip storing it. *)
let repack (type s) t (m : (module S_timed with type state = s)) (s : s) s' =
  if s' == s then t else Packed (m, s')

let on_init (Packed (m, s) as t) a =
  let (module M) = m in
  repack t m s (M.on_init s a)

let on_recv (Packed (m, s) as t) ~now ~src msg =
  let (module M) = m in
  repack t m s (M.on_recv s ~now ~src msg)

let on_suspect (Packed (m, s) as t) r =
  let (module M) = m in
  repack t m s (M.on_suspect s r)

let step (Packed (m, s) as t) ~now =
  let (module M) = m in
  let s', act = M.step s ~now in
  (repack t m s s', act)

let quiescent (Packed ((module M), s)) = M.quiescent s
let performed (Packed ((module M), s)) = M.performed s
