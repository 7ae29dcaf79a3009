let errorf fmt = Format.kasprintf (fun s -> Error s) fmt

let suffixed ~prefix s =
  let pl = String.length prefix and sl = String.length s in
  if sl > pl && String.sub s 0 pl = prefix then
    int_of_string_opt (String.sub s pl (sl - pl))
  else None

let parse label =
  match label with
  | "nudc" -> Ok (module Core.Nudc.P : Protocol.S)
  | "reliable" -> Ok (module Core.Reliable_udc.P : Protocol.S)
  | "ack" -> Ok (module Core.Ack_udc.P : Protocol.S)
  | "theta" -> Ok (module Core.Theta_udc.P : Protocol.S)
  | "heartbeat" -> Ok (module Core.Heartbeat_nudc.P : Protocol.S)
  | "kset" -> Ok (module Consensus.Kset.P : Protocol.S)
  | s -> (
      match (suffixed ~prefix:"majority:" s, suffixed ~prefix:"gen:" s) with
      | Some t, _ when t >= 0 -> Ok (Core.Majority_udc.make ~t)
      | _, Some t when t >= 0 -> Ok (Core.Generalized_udc.make ~t)
      (* a negative threshold waits for more acknowledgements than there
         are processes, so the protocol never performs *)
      | Some _, _ | _, Some _ ->
          errorf "bad protocol %S (expected majority:T | gen:T, T >= 0)" s
      | None, None ->
          errorf
            "unknown protocol %S (expected nudc | reliable | ack | theta | \
             heartbeat | kset | majority:T | gen:T | phi | swim | gossip)"
            s)

let backend_pair = Detector.Backends.of_label

let instantiate label ~n =
  match backend_pair label with
  | Some mk -> Ok (mk ~n).Detector.Backends.protocol
  | None -> (
      match parse label with
      | Error _ as e -> e
      | Ok proto -> Ok (fun p -> Protocol.make proto ~n ~me:p))
