let make ~t:bound =
  (module Ack_quorum.Make (struct
    let name = Printf.sprintf "majority-udc(t=%d)" bound

    type det = unit

    let initial = ()
    let on_suspect ~n:_ () _ = ()

    (* acknowledgments from n - t processes, counting itself *)
    let ready ~n ~me:_ () ~acked = 1 + Pid.Set.cardinal acked >= n - bound
    let stop_after_perform = false
  end) : Protocol.S)
