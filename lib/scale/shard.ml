(* Sharded large-n execution: [Sim.execute_shards] with one decision
   stream per shard, keyed by [Prng.shard_seed (seed, k)]. That function
   owns the partition, the tick, the barrier and the oracle view; this
   module owns only the configuration surface the sharded runs support,
   the shard-count clamp and the per-shard seeds. Shard 0's stream is
   seeded with the run seed itself ([Prng.shard_seed seed 0 = seed]), so
   with [shards = 1] [execute] is [Sim.execute]. *)

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

let sources ?record ~s (cfg : Sim.config) =
  Array.init s (fun k ->
      Decision.random ?record ~seed:(Prng.shard_seed cfg.seed k) ())

let execute ?(shards = 1) ?domains ?decisions (cfg : Sim.config) make_process
    =
  validate cfg;
  let s = shard_count ~n:cfg.n shards in
  let sources =
    match decisions with
    | None -> sources ~s cfg
    | Some a when Array.length a = s -> a
    | Some _ -> invalid_arg "Shard.execute: one decision source per shard"
  in
  Sim.execute_shards ?domains ~sources cfg make_process

let record ?(shards = 1) ?domains cfg make_process =
  let s = shard_count ~n:cfg.Sim.n shards in
  let sources = sources ~record:true ~s cfg in
  let res = execute ~shards:s ?domains ~decisions:sources cfg make_process in
  (res, Array.map Decision.trace sources)

let replay ~traces ?(shards = 1) ?domains cfg make_process =
  let s = shard_count ~n:cfg.Sim.n shards in
  if Array.length traces <> s then
    invalid_arg "Shard.replay: one trace per shard";
  execute ~shards:s ?domains ~decisions:(Array.map Decision.replay traces)
    cfg make_process
