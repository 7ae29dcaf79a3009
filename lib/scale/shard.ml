(* Sharded large-n execution: [s] kernel windows ticked together. The
   pids are split into contiguous windows (shards); each is a [Sim.window]
   owning its slice of every dense per-pid structure — history builders,
   protocol states, the crashed flags, the in-flight queues of its own
   destinations — plus a decision stream of its own, keyed by
   [Prng.shard_seed (seed, k)]. Every slot rule is [Sim.tick]'s; this
   module adds only the partition, the barrier, the committed view and
   record/replay. One global tick runs every shard's [Sim.tick] (an
   [Ensemble.map_array] over the shard array, so the per-tick work
   parallelises without any lock on the step path), then a sequential
   barrier routes the double-buffered cross-shard outboxes and commits
   this tick's crashes into the shared read-only view of the failure
   pattern.

   Determinism does not depend on the domain count: within a tick, shards
   touch only their own state, the read-only barrier products of the
   previous tick (the committed-crash bitmap, the oracle view, the
   routed inboxes), and their own decision stream; the barrier itself
   runs sequentially in shard order. [Ensemble]'s job boundaries provide
   the happens-before edges between a shard's mutations and the next
   tick's reader.

   A send to another shard leaves the kernel through its [send_out] hook,
   which splits [Channel.send] into its two halves: the loss decision
   ([Channel.gate], on the sender's channel and decision stream, with
   {e global} pids so fairness classes and link overrides are
   topology-independent) and the enqueue ([Channel.inject], on the
   destination shard, at its next tick). A sender consults the committed
   crash bitmap — up to one tick stale, but deterministic — and the
   destination shard re-checks its exact local flag at injection, so a
   message is never enqueued for a crashed process.

   With [shards = 1] the single window is [Sim.execute]'s: shard 0's
   stream is seeded with the run seed itself
   ([Prng.shard_seed seed 0 = seed]) and no send leaves the window, so
   the two engines differ only in their oracle views, and runs are
   bit-identical (digest-equal) whenever the oracle ignores the view's
   crash set — which the perf gate and the test suite assert. The price
   of sharding is a restricted configuration surface (validated up
   front, below) and an oracle restriction that cannot be validated
   structurally: the oracle view's crash set is the one committed at
   the previous barrier, so a crash becomes visible to the oracle one
   tick later than in [Sim.execute], whose view is live within the tick.
   Oracles must therefore not depend on crash timing within a tick —
   true of the detector-backend cell oracles and [Oracle.none], not of
   the axiomatic oracles that read the view's crashed set. *)

type shard = {
  k : int;
  w : Sim.window;
  outbox : (Pid.t * Pid.t * Message.t) list array;
      (* per destination shard, newest first; drained at the barrier *)
  mutable inbox : (Pid.t * Pid.t * Message.t) list; (* delivery order *)
}

(* Builders start far below the unsharded default capacity: a million
   mostly-quiet ring-detector histories at 64 preallocated slots each
   would pre-reserve gigabytes before the first event lands. *)
let builder_capacity = 16

let shard_count ~n shards =
  if shards < 1 then invalid_arg "Shard: shards must be >= 1";
  min shards (max 1 n)

let validate (cfg : Sim.config) =
  Sim.validate cfg;
  (match cfg.goal with
  | Sim.Run_to_max -> ()
  | _ -> invalid_arg "Shard: only the Run_to_max goal is supported");
  if cfg.blackout_after_do then
    invalid_arg "Shard: blackout_after_do is not supported";
  if cfg.crash_budget <> 0 then
    invalid_arg "Shard: explorer crash budgets are not supported";
  List.iter
    (fun e ->
      match e.Fault_plan.trigger with
      | Fault_plan.At _ -> ()
      | Fault_plan.After_did _ | Fault_plan.After_any_do ->
          invalid_arg "Shard: only At-triggered fault entries are supported")
    (Fault_plan.entries cfg.fault_plan)

(* Balanced contiguous partition: the first [n mod s] shards hold one
   extra pid. Both directions are O(1). *)
let shard_of ~n ~s p =
  let q = n / s and r = n mod s in
  if p < r * (q + 1) then p / (q + 1) else r + ((p - (r * (q + 1))) / q)

let shard_base ~n ~s k =
  let q = n / s and r = n mod s in
  (k * q) + min k r

let execute ?(shards = 1) ?domains ?decisions (cfg : Sim.config) make_process =
  validate cfg;
  let n = cfg.n in
  let s = shard_count ~n shards in
  (match decisions with
  | Some a when Array.length a <> s ->
      invalid_arg "Shard.execute: one decision source per shard"
  | _ -> ());
  let make_shard k =
    let base = shard_base ~n ~s k in
    let size = shard_base ~n ~s (k + 1) - base in
    let source =
      match decisions with
      | Some a -> a.(k)
      | None -> Decision.random ~seed:(Prng.shard_seed cfg.seed k) ()
    in
    let hists =
      Array.init size (fun _ ->
          History.Builder.fresh ~capacity:builder_capacity ())
    in
    {
      k;
      w = Sim.window cfg ~base ~size ~source ~hists make_process;
      outbox = Array.make s [];
      inbox = [];
    }
  in
  let shards_arr = Array.init s make_shard in
  let committed = Bytes.make n '\000' in
  let committed_list = ref [] in
  let view =
    ref
      {
        Oracle.now = 0;
        n;
        crashed = Pid.Set.empty;
        planned_faulty = Fault_plan.planned_faulty cfg.fault_plan;
      }
  in
  let send_out sh ~src ~dst msg =
    if
      Bytes.unsafe_get committed dst = '\000'
      && Channel.gate sh.w.channel ~now:sh.w.now ~src ~dst msg
    then
      let dk = shard_of ~n ~s dst in
      sh.outbox.(dk) <- (src, dst, msg) :: sh.outbox.(dk)
  in
  let tick_shard sh ~now v =
    (* messages routed at the previous barrier; a destination that
       crashed after the sender's staleness window closed is re-checked
       here with the exact local flag *)
    List.iter
      (fun (src, dst, msg) ->
        let lp = dst - sh.w.base in
        if not sh.w.crashed.(lp) then
          Channel.inject sh.w.channel ~src ~dst:lp ~sent:(now - 1) msg)
      sh.inbox;
    sh.inbox <- [];
    Sim.tick sh.w ~view:(fun () -> v) ~send_out:(send_out sh) now
  in
  let reason = ref Sim.Max_ticks in
  (try
     for tick = 1 to cfg.max_ticks do
       view := { !view with Oracle.now = tick };
       let v = !view in
       ignore
         (Ensemble.map_array ?domains (fun sh -> tick_shard sh ~now:tick v)
            shards_arr);
       (* barrier, sequential in shard order: route outboxes ... *)
       if s > 1 then
         Array.iter
           (fun dst_sh ->
             let inbound = ref [] in
             for src_k = s - 1 downto 0 do
               match shards_arr.(src_k).outbox.(dst_sh.k) with
               | [] -> ()
               | l ->
                   shards_arr.(src_k).outbox.(dst_sh.k) <- [];
                   inbound := List.rev_append l !inbound
             done;
             dst_sh.inbox <- !inbound)
           shards_arr;
       (* ... and commit crashes into the shared failure-pattern view *)
       let any_crash = ref false in
       Array.iter
         (fun sh ->
           match sh.w.crashes with
           | [] -> ()
           | l ->
               any_crash := true;
               List.iter
                 (fun gp ->
                   Bytes.set committed gp '\001';
                   committed_list := gp :: !committed_list;
                   (* prune the dead pid's fairness rows everywhere, not
                      just on its own shard (S2 at scale) *)
                   Array.iter
                     (fun other ->
                       if other.k <> sh.k then
                         Channel.forget other.w.channel ~pid:gp)
                     shards_arr)
                 (List.rev l);
               sh.w.crashes <- [])
         shards_arr;
       if !any_crash then
         view :=
           { !view with Oracle.crashed = Pid.Set.of_list !committed_list };
       if
         Array.for_all (fun sh -> sh.inbox = [] && Sim.quiescent sh.w)
           shards_arr
       then begin
         reason := Sim.Quiescent;
         raise Exit
       end
     done
   with Exit -> ());
  let hists = Array.make n History.empty in
  Array.iter
    (fun sh ->
      for lp = 0 to sh.w.size - 1 do
        hists.(sh.w.base + lp) <- History.Builder.seal sh.w.hists.(lp)
      done)
    shards_arr;
  let final_states =
    Array.init n (fun p ->
        let sh = shards_arr.(shard_of ~n ~s p) in
        sh.w.states.(p - sh.w.base))
  in
  {
    (* every window runs the same ticks *)
    Sim.run = Run.make ~n ~horizon:shards_arr.(0).w.now hists;
    reason = !reason;
    final_states;
  }

let record ?(shards = 1) ?domains cfg make_process =
  let s = shard_count ~n:cfg.Sim.n shards in
  let sources =
    Array.init s (fun k ->
        Decision.random ~record:true ~seed:(Prng.shard_seed cfg.Sim.seed k) ())
  in
  let res = execute ~shards:s ?domains ~decisions:sources cfg make_process in
  (res, Array.map Decision.trace sources)

let replay ~traces ?(shards = 1) ?domains cfg make_process =
  let s = shard_count ~n:cfg.Sim.n shards in
  if Array.length traces <> s then
    invalid_arg "Shard.replay: one trace per shard";
  execute ~shards:s ?domains ~decisions:(Array.map Decision.replay traces)
    cfg make_process
