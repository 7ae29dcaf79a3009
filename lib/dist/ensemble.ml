let override = Atomic.make 0 (* 0 = unset *)

(* the environment is read once per process: re-parsing UDC_DOMAINS on
   every call showed up in the per-chunk dispatch path of the explorer *)
let env_domains =
  lazy
    (match Sys.getenv_opt "UDC_DOMAINS" with
    | None -> None
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some d when d >= 1 -> Some d
        | _ -> None))

let domain_count () =
  match Atomic.get override with
  | d when d >= 1 -> d
  | _ -> (
      match Lazy.force env_domains with
      | Some d -> d
      | None -> max 1 (Domain.recommended_domain_count ()))

let set_domains d = Atomic.set override (max 1 d)

(* Work-claiming core: an atomic next-item counter, one result slot per
   input position. Indices are claimed in ascending order; [stop] only
   prevents *new* claims, so when item k fails (or witnesses an [exists])
   every item before k has been claimed and will be completed before the
   job drains. Distinct slots are written by exactly one domain each and
   read only after the job has drained. *)
type job = {
  work : int -> unit; (* runs item [i]; never raises (errors are slotted) *)
  len : int;
  next : int Atomic.t; (* the claim counter *)
  stop : bool Atomic.t;
  quota : int; (* participants allowed to claim, caller included *)
  tickets : int Atomic.t; (* participation tickets; the caller holds 0 *)
}

(* returns the number of items this participant executed, for the
   per-worker share counters *)
let claim_loop job =
  let continue = ref true in
  let executed = ref 0 in
  while !continue do
    if Atomic.get job.stop then continue := false
    else
      let i = Atomic.fetch_and_add job.next 1 in
      if i >= job.len then continue := false
      else begin
        job.work i;
        incr executed
      end
  done;
  !executed

(* The persistent pool (Domainslib-style): workers are spawned lazily on
   the first parallel call, grow monotonically to the largest size ever
   requested, park on a condition variable between jobs, and are joined
   once at process exit. A job is published by bumping [generation];
   every worker processes every published job (workers beyond the job's
   quota finish without claiming), so completion is exactly "all workers
   have finished the current generation".

   Memory model: a worker's slot writes happen before it decrements
   [unfinished] (both sides of a mutex), and the caller reads the slots
   only after observing [unfinished = 0] under the same mutex — the
   release/acquire pairs on [lock] provide the happens-before edges that
   [Domain.join] provided in the spawn-per-call design. *)
type pool = {
  lock : Mutex.t;
  work_ready : Condition.t; (* workers park here between jobs *)
  work_done : Condition.t; (* the caller parks here while a job drains *)
  mutable job : job option;
  mutable generation : int; (* bumped once per published job *)
  mutable unfinished : int; (* workers still to finish the current job *)
  mutable shutdown : bool;
  mutable workers : unit Domain.t list; (* joined at exit *)
  mutable nworkers : int;
  (* observability: per-worker wall clocks and process-wide counters *)
  mutable busy_s : float array;
  mutable idle_s : float array;
  mutable idle_since : float array;
  mutable worker_tasks : int array;
  mutable caller_tasks : int; (* pool-job items run on the caller's domain *)
  mutable spawned : int;
  mutable jobs : int;
  mutable pool_tasks : int;
}

let the_pool =
  {
    lock = Mutex.create ();
    work_ready = Condition.create ();
    work_done = Condition.create ();
    job = None;
    generation = 0;
    unfinished = 0;
    shutdown = false;
    workers = [];
    nworkers = 0;
    busy_s = [||];
    idle_s = [||];
    idle_since = [||];
    worker_tasks = [||];
    caller_tasks = 0;
    spawned = 0;
    jobs = 0;
    pool_tasks = 0;
  }

let seq_tasks = Atomic.make 0
let now () = Unix.gettimeofday ()

(* [done_gen] is the generation the worker has already finished; it is
   fixed by the caller at spawn time (under the lock), so a worker spawned
   just before a publish processes that job even if it only reaches the
   lock afterwards — [unfinished] counts it either way. *)
let rec worker_loop pool idx done_gen =
  (* [pool.lock] held on entry *)
  if pool.shutdown then Mutex.unlock pool.lock
  else if pool.generation > done_gen then begin
    let gen = pool.generation in
    match pool.job with
    | None -> worker_loop pool idx gen (* unreachable for counted workers *)
    | Some job ->
        let t0 = now () in
        pool.idle_s.(idx) <- pool.idle_s.(idx) +. (t0 -. pool.idle_since.(idx));
        Mutex.unlock pool.lock;
        let ticket = Atomic.fetch_and_add job.tickets 1 in
        let executed = if ticket < job.quota then claim_loop job else 0 in
        let t1 = now () in
        Mutex.lock pool.lock;
        pool.worker_tasks.(idx) <- pool.worker_tasks.(idx) + executed;
        pool.busy_s.(idx) <- pool.busy_s.(idx) +. (t1 -. t0);
        pool.idle_since.(idx) <- t1;
        pool.unfinished <- pool.unfinished - 1;
        if pool.unfinished = 0 then Condition.broadcast pool.work_done;
        worker_loop pool idx gen
  end
  else begin
    Condition.wait pool.work_ready pool.lock;
    worker_loop pool idx done_gen
  end

let worker pool idx done_gen () =
  Mutex.lock pool.lock;
  worker_loop pool idx done_gen

let grow_array a n = Array.append a (Array.make (n - Array.length a) 0.0)
let grow_iarray a n = Array.append a (Array.make (n - Array.length a) 0)

(* grow the pool to [n] workers; [pool.lock] held, no job in flight *)
let ensure_workers pool n =
  if n > pool.nworkers then begin
    pool.busy_s <- grow_array pool.busy_s n;
    pool.idle_s <- grow_array pool.idle_s n;
    pool.idle_since <- grow_array pool.idle_since n;
    pool.worker_tasks <- grow_iarray pool.worker_tasks n;
    for idx = pool.nworkers to n - 1 do
      pool.idle_since.(idx) <- now ();
      pool.workers <- Domain.spawn (worker pool idx pool.generation) :: pool.workers;
      pool.spawned <- pool.spawned + 1
    done;
    pool.nworkers <- n
  end

let teardown () =
  let pool = the_pool in
  Mutex.lock pool.lock;
  pool.shutdown <- true;
  Condition.broadcast pool.work_ready;
  let ws = pool.workers in
  pool.workers <- [];
  pool.nworkers <- 0;
  Mutex.unlock pool.lock;
  List.iter Domain.join ws

let () = at_exit teardown

let run_sequential ~stop ~len work =
  let i = ref 0 in
  while !i < len && not (Atomic.get stop) do
    work !i;
    Atomic.incr seq_tasks;
    incr i
  done

(* Publish one job and drive it from the caller's domain too. If a job is
   already in flight — a task itself called back into the ensemble, or a
   foreign domain races the pool — fall back to the sequential path: the
   results are bit-identical either way, only the scheduling differs. *)
let run_on_pool ~quota ~stop ~len work =
  let pool = the_pool in
  Mutex.lock pool.lock;
  if pool.job <> None || pool.shutdown then begin
    Mutex.unlock pool.lock;
    run_sequential ~stop ~len work
  end
  else begin
    ensure_workers pool (max pool.nworkers (quota - 1));
    let job =
      {
        work;
        len;
        next = Atomic.make 0;
        stop;
        quota;
        tickets = Atomic.make 1 (* the caller holds ticket 0 *);
      }
    in
    pool.job <- Some job;
    pool.generation <- pool.generation + 1;
    pool.unfinished <- pool.nworkers;
    pool.jobs <- pool.jobs + 1;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.lock;
    let executed = claim_loop job in
    Mutex.lock pool.lock;
    while pool.unfinished > 0 do
      Condition.wait pool.work_done pool.lock
    done;
    pool.job <- None;
    pool.caller_tasks <- pool.caller_tasks + executed;
    pool.pool_tasks <- pool.pool_tasks + min (Atomic.get job.next) job.len;
    Mutex.unlock pool.lock
  end

let map_into ?domains ?(stop = Atomic.make false) f xs =
  let len = Array.length xs in
  let wanted =
    max 1 (min (Option.value domains ~default:(domain_count ())) len)
  in
  let results = Array.make len None in
  let work i =
    let r =
      match f xs.(i) with
      | v -> Ok v
      | exception e ->
          Atomic.set stop true;
          Error e
    in
    results.(i) <- Some r
  in
  if wanted <= 1 then run_sequential ~stop ~len work
  else run_on_pool ~quota:wanted ~stop ~len work;
  results

let map_until ?domains ~stop_on f xs =
  let stop = Atomic.make false in
  let slots =
    map_into ?domains ~stop
      (fun x ->
        let v = f x in
        if stop_on v then Atomic.set stop true;
        v)
      xs
  in
  (* Ascending claiming makes the evaluated slots a contiguous prefix: if
     index k was claimed, every index below it was claimed first, and every
     claimed item completes before the job drains. Scanning that prefix in
     input order therefore finds the first stopping item of the *input*,
     not of the schedule — the result is independent of the domain count.
     A failure is re-raised unless a stopping item precedes it, matching
     the sequential short-circuit. *)
  let len = Array.length slots in
  let limit = ref 0 in
  while !limit < len && Option.is_some slots.(!limit) do
    incr limit
  done;
  let stopped = ref None in
  let i = ref 0 in
  while !stopped = None && !i < !limit do
    (match slots.(!i) with
    | Some (Ok v) -> if stop_on v then stopped := Some !i
    | Some (Error e) -> raise e
    | None -> assert false (* the prefix is contiguous *));
    incr i
  done;
  let keep = match !stopped with Some k -> k + 1 | None -> !limit in
  let prefix =
    Array.init keep (fun k ->
        match slots.(k) with
        | Some (Ok v) -> v
        | Some (Error _) | None -> assert false (* scanned above *))
  in
  (prefix, !stopped)

type stats = {
  pool_size : int;
  spawned : int;
  jobs : int;
  pool_tasks : int;
  seq_tasks : int;
  busy_s : float array;
  idle_s : float array;
  worker_tasks : int array;
  caller_tasks : int;
}

let stats () =
  let pool = the_pool in
  Mutex.lock pool.lock;
  let t = now () in
  let idle_s =
    (* workers are parked whenever no job is in flight: charge the open
       idle interval so the report is current *)
    Array.mapi
      (fun i idle ->
        if pool.job = None then idle +. (t -. pool.idle_since.(i)) else idle)
      (Array.sub pool.idle_s 0 pool.nworkers)
  in
  let s =
    {
      pool_size = pool.nworkers;
      spawned = pool.spawned;
      jobs = pool.jobs;
      pool_tasks = pool.pool_tasks;
      seq_tasks = Atomic.get seq_tasks;
      busy_s = Array.sub pool.busy_s 0 pool.nworkers;
      idle_s;
      worker_tasks = Array.sub pool.worker_tasks 0 pool.nworkers;
      caller_tasks = pool.caller_tasks;
    }
  in
  Mutex.unlock pool.lock;
  s

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>pool: %d worker%s (+ caller), %d spawned, %d job%s dispatched@,\
     tasks: %d on the pool, %d sequential@," s.pool_size
    (if s.pool_size = 1 then "" else "s")
    s.spawned s.jobs
    (if s.jobs = 1 then "" else "s")
    s.pool_tasks s.seq_tasks;
  if s.pool_tasks > 0 then
    Format.fprintf ppf "caller share: %d task%s@," s.caller_tasks
      (if s.caller_tasks = 1 then "" else "s");
  Array.iteri
    (fun i busy ->
      Format.fprintf ppf "worker %d: busy %.3fs, idle %.3fs, %d tasks@," i
        busy s.idle_s.(i) s.worker_tasks.(i))
    s.busy_s;
  Format.fprintf ppf "@]"

let map_array ?domains f xs =
  let results = map_into ?domains f xs in
  (* re-raise the earliest failure — exactly the sequential behaviour *)
  Array.iter
    (function Some (Error e) -> raise e | _ -> ())
    results;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error _) | None -> assert false (* unreachable: no failure *))
    results

let map ?domains f xs = Array.to_list (map_array ?domains f (Array.of_list xs))

let exists ?domains f xs =
  let _, stopped = map_until ?domains ~stop_on:Fun.id f (Array.of_list xs) in
  Option.is_some stopped

let fold ?domains ~f ~init g xs = List.fold_left f init (map ?domains g xs)
