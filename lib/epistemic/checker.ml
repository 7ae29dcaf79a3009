(* The bit-packed truth-table kernel. A truth table is one {!Bitvec.t}
   row per run (bit m = truth at tick m), so the boolean connectives are
   word-level sweeps, [Always]/[Eventually] are backward word scans, and
   the knowledge operators aggregate whole indistinguishability classes
   through precomputed (run, word, mask) triples. Tables are memoized per
   {e interned} formula id ({!Formula.intern}), which makes the memo both
   O(1) and sound: semantically equal formulas — e.g. [At_least_crashed]
   sets built in different insertion orders — share one entry. *)

type table = Bitvec.t array (* per run *)

type masks = (int * int * int) array array
(* per class: (run, word index, bit mask) triples covering its points *)

type env = {
  sys : System.t;
  memo : (int, table) Hashtbl.t; (* interned formula id -> table *)
  class_masks : masks option array; (* per pid, built lazily *)
  dk_masks : (int list, masks) Hashtbl.t; (* joint classes per group *)
  crash_rows : table array option array;
      (* per pid p: the table of K_p crash(q) per q, built lazily *)
  lock : Mutex.t;
      (* guards every mutable field: the parallel ensemble engine
         evaluates formulas against a shared env from several domains *)
}

let make sys =
  {
    sys;
    memo = Hashtbl.create 64;
    class_masks = Array.make (System.n sys) None;
    dk_masks = Hashtbl.create 8;
    crash_rows = Array.make (System.n sys) None;
    lock = Mutex.create ();
  }

let system env = env.sys
let row_len env ri = System.horizon env.sys ri + 1

(* A truth table shaped like the system: one bit per point. *)
let blank env value =
  Array.init (System.run_count env.sys) (fun ri ->
      Bitvec.create (row_len env ri) value)

(* Table of a stable primitive that becomes true at [tick_of idx] (None:
   never), where [idx] is the run's index. *)
let from_tick env tick_of =
  Array.init (System.run_count env.sys) (fun ri ->
      Bitvec.from_bit (row_len env ri) (tick_of (System.index env.sys ri)))

(* Primitive tables read the per-run {!Run_index}: first-tick tables and
   suspicion change-lists, O(1)/O(changes) per run, and for [Sent]/
   [Received] a scan of the one process's events instead of a full
   [timed_events] scan of the run per (primitive, run). *)
let prim_table env (p : Formula.prim) =
  match p with
  | Formula.Sent (src, dst, msg) ->
      from_tick env (fun idx -> Run_index.first_send idx ~src ~dst msg)
  | Formula.Received (dst, src, msg) ->
      from_tick env (fun idx -> Run_index.first_recv idx ~dst ~src msg)
  | Formula.Crashed q -> from_tick env (fun idx -> Run_index.crash_tick idx q)
  | Formula.Did (q, a) -> from_tick env (fun idx -> Run_index.first_do idx q a)
  | Formula.Inited a -> from_tick env (fun idx -> Run_index.first_init idx a)
  | Formula.Suspects (watcher, q) ->
      Array.init (System.run_count env.sys) (fun ri ->
          let idx = System.index env.sys ri in
          let len = row_len env ri in
          let changes = Run_index.all_suspicions idx watcher in
          let row = Bitvec.create len false in
          let current = ref false in
          let c = ref 0 in
          for m = 0 to len - 1 do
            if !c < Array.length changes && fst changes.(!c) = m then begin
              current := Pid.Set.mem q (snd changes.(!c));
              incr c
            end;
            if !current then Bitvec.set row m true
          done;
          row)
  | Formula.At_least_crashed (s, k) ->
      from_tick env (fun idx ->
          let ticks =
            List.sort Int.compare
              (List.filter_map
                 (fun q -> Run_index.crash_tick idx q)
                 (Pid.Set.elements s))
          in
          if k <= 0 then Some 0 else List.nth_opt ticks (k - 1))

(* ---- Class-mask machinery for K / Ck / Dk --------------------------- *)

(* Compress a point set into (run, word, mask) triples: one triple per
   touched word, bits merged. Points arrive in ascending run-major order
   ({!System.class_points}), so same-word points are adjacent and a
   single linear pass suffices. *)
let masks_of_points (pts : (int * int) array) =
  let acc = ref [] in
  Array.iter
    (fun (ri, tick) ->
      let w = tick / Bitvec.word_bits in
      let bit = 1 lsl (tick mod Bitvec.word_bits) in
      match !acc with
      | (ri', w', m) :: rest when ri' = ri && w' = w ->
          acc := (ri, w, m lor bit) :: rest
      | rest -> acc := (ri, w, bit) :: rest)
    pts;
  Array.of_list (List.rev !acc)

let class_masks env p =
  match env.class_masks.(p) with
  | Some m -> m
  | None ->
      let m =
        Array.init (System.class_count env.sys p) (fun c ->
            masks_of_points (System.class_points env.sys p c))
      in
      env.class_masks.(p) <- Some m;
      m

(* Joint indistinguishability classes of a group (for [Dk]): points with
   equal per-member class-id tuples, memoized per group. *)
let dk_class_masks env s =
  let members = Pid.Set.elements s in
  match Hashtbl.find_opt env.dk_masks members with
  | Some m -> m
  | None ->
      let ids = Hashtbl.create 256 in
      let buckets = Hashtbl.create 256 in
      System.iter_points env.sys (fun ~run ~tick ->
          let key =
            List.map (fun p -> System.class_id env.sys p ~run ~tick) members
          in
          let id =
            match Hashtbl.find_opt ids key with
            | Some id -> id
            | None ->
                let id = Hashtbl.length ids in
                Hashtbl.add ids key id;
                id
          in
          let prev = Option.value ~default:[] (Hashtbl.find_opt buckets id) in
          Hashtbl.replace buckets id ((run, tick) :: prev));
      let m =
        Array.init (Hashtbl.length ids) (fun id ->
            masks_of_points (Array.of_list (Hashtbl.find buckets id)))
      in
      Hashtbl.add env.dk_masks members m;
      m

(* "Everyone in the class satisfies tf" per class, broadcast back to the
   class's points: AND-fold the member masks against the operand's words,
   then OR the masks of the all-true classes into the output. *)
let aggregate env (masks : masks) tf =
  let out = blank env false in
  Array.iter
    (fun triples ->
      let all_true =
        Array.for_all
          (fun (ri, w, m) -> Bitvec.word tf.(ri) w land m = m)
          triples
      in
      if all_true then
        Array.iter (fun (ri, w, m) -> Bitvec.or_word out.(ri) w m) triples)
    masks;
  out

let table_and = Array.map2 Bitvec.logand
let table_equal a b = Array.for_all2 Bitvec.equal a b

(* The raw memoized evaluator. [lookup] takes an interned node with its
   id, the O(1) memo key; the subformulas of an interned node are
   interned, so [table] resolves them on the intern fast path.
   Recursion stays on the unlocked path; the public [table] takes the
   env lock once, making a shared env safe to query from several
   domains (tables are immutable once memoized). *)
let rec table env f = lookup env (Formula.intern_id f)

and lookup env (f, fid) =
  match Hashtbl.find_opt env.memo fid with
  | Some t -> t
  | None ->
      let t = compute env f in
      Hashtbl.add env.memo fid t;
      t

and compute env = function
  | Formula.True -> blank env true
  | Formula.False -> blank env false
  | Formula.Prim p -> prim_table env p
  | Formula.Not f -> Array.map Bitvec.lognot (table env f)
  | Formula.And (a, b) -> table_and (table env a) (table env b)
  | Formula.Or (a, b) -> Array.map2 Bitvec.logor (table env a) (table env b)
  | Formula.Implies (a, b) ->
      Array.map2 Bitvec.implies (table env a) (table env b)
  | Formula.Always f -> Array.map Bitvec.suffix_and (table env f)
  | Formula.Eventually f -> Array.map Bitvec.suffix_or (table env f)
  | Formula.K (p, f) -> aggregate env (class_masks env p) (table env f)
  | Formula.Ck (g, f) ->
      (* greatest fixpoint of X = E_G (f ∧ X), iterated from all-true;
         the iterates only shrink (E_G is monotone), so this terminates
         in at most #points rounds (in practice a handful) *)
      let tf = table env f in
      let member_masks =
        List.map (fun p -> class_masks env p) (Pid.Set.elements g)
      in
      let everyone_knows fx =
        List.fold_left
          (fun acc masks -> table_and acc (aggregate env masks fx))
          (blank env true) member_masks
      in
      let rec fix x =
        let next = everyone_knows (table_and tf x) in
        if table_equal next x then x else fix next
      in
      fix (blank env true)
  | Formula.Dk (s, f) -> aggregate env (dk_class_masks env s) (table env f)

(* The tables of K_p crash(q) for every q, resolved once per process:
   the f-construction (condition P3) reads them at every point. Call
   with the lock held. *)
let crash_rows env p =
  match env.crash_rows.(p) with
  | Some rows -> rows
  | None ->
      let rows =
        Array.init (System.n env.sys) (fun q ->
            table env (Formula.K (p, Formula.crashed q)))
      in
      env.crash_rows.(p) <- Some rows;
      rows

(* Shadow the recursive evaluator with the locked entry point: every
   public query interns its formula once and takes the lock exactly once
   (no reentrancy — [compute] recurses on the unlocked binding above). *)
let table env f =
  let node = Formula.intern_id f in
  Mutex.protect env.lock (fun () -> lookup env node)

let holds env f ~run ~tick = Bitvec.get (table env f).(run) tick

let counterexample env f =
  let t = table env f in
  let found = ref None in
  (try
     Array.iteri
       (fun ri row ->
         match Bitvec.first_false row with
         | Some tick ->
             found := Some (ri, tick);
             raise Exit
         | None -> ())
       t
   with Exit -> ());
  !found

let valid env f = Option.is_none (counterexample env f)

let memo_entries env =
  Mutex.protect env.lock (fun () -> Hashtbl.length env.memo)

(* The row count, then per row its bit length and its words, each an
   8-byte little-endian word. *)
let table_digest env f =
  let rows = table env f in
  let b = Buffer.create 1024 in
  let word x = Buffer.add_int64_le b (Int64.of_int x) in
  word (Array.length rows);
  Array.iter
    (fun row ->
      word (Bitvec.length row);
      Array.iter word (Bitvec.to_int_array row))
    rows;
  Digest.to_hex (Digest.string (Buffer.contents b))

let knows_crashed env p ~run ~tick =
  let rows = Mutex.protect env.lock (fun () -> crash_rows env p) in
  let known = ref Pid.Set.empty in
  Array.iteri
    (fun q t -> if Bitvec.get t.(run) tick then known := Pid.Set.add q !known)
    rows;
  !known

let max_known_crashed env p s ~run ~tick =
  let rec down k =
    if k <= 0 then 0
    else if
      holds env
        (Formula.K (p, Formula.Prim (Formula.At_least_crashed (s, k))))
        ~run ~tick
    then k
    else down (k - 1)
  in
  down (Pid.Set.cardinal s)

let local_to env f p =
  valid env (Formula.Or (Formula.K (p, f), Formula.K (p, Formula.Not f)))

let stable env f = valid env (Formula.Implies (f, Formula.Always f))

(* ---- Reference evaluator (test-only differential oracle) ------------
   The pre-kernel implementation: plain [bool array array] tables and
   per-point class passes, memoized structurally. Kept as an independent
   oracle for the QCheck differential property and the perf harness; not
   domain-safe and not for production use. *)

module Reference = struct
  type env = { sys : System.t; memo : (Formula.t, bool array array) Hashtbl.t }

  let make sys = { sys; memo = Hashtbl.create 64 }

  let blank env value =
    Array.init (System.run_count env.sys) (fun ri ->
        Array.make (System.horizon env.sys ri + 1) value)

  let from_tick env tick_of =
    Array.init (System.run_count env.sys) (fun ri ->
        let h = System.horizon env.sys ri in
        match tick_of (System.index env.sys ri) with
        | None -> Array.make (h + 1) false
        | Some t0 -> Array.init (h + 1) (fun m -> m >= t0))

  let prim_table env (p : Formula.prim) =
    match p with
    | Formula.Sent (src, dst, msg) ->
        from_tick env (fun idx -> Run_index.first_send idx ~src ~dst msg)
    | Formula.Received (dst, src, msg) ->
        from_tick env (fun idx -> Run_index.first_recv idx ~dst ~src msg)
    | Formula.Crashed q ->
        from_tick env (fun idx -> Run_index.crash_tick idx q)
    | Formula.Did (q, a) ->
        from_tick env (fun idx -> Run_index.first_do idx q a)
    | Formula.Inited a -> from_tick env (fun idx -> Run_index.first_init idx a)
    | Formula.Suspects (watcher, q) ->
        Array.init (System.run_count env.sys) (fun ri ->
            let idx = System.index env.sys ri in
            let h = System.horizon env.sys ri in
            let changes = Run_index.all_suspicions idx watcher in
            let table = Array.make (h + 1) false in
            let current = ref false in
            let c = ref 0 in
            for m = 0 to h do
              if !c < Array.length changes && fst changes.(!c) = m then begin
                current := Pid.Set.mem q (snd changes.(!c));
                incr c
              end;
              table.(m) <- !current
            done;
            table)
    | Formula.At_least_crashed (s, k) ->
        from_tick env (fun idx ->
            let ticks =
              List.sort Int.compare
                (List.filter_map
                   (fun q -> Run_index.crash_tick idx q)
                   (Pid.Set.elements s))
            in
            if k <= 0 then Some 0 else List.nth_opt ticks (k - 1))

  let pointwise2 env f ta tb =
    Array.init (System.run_count env.sys) (fun ri ->
        Array.init (System.horizon env.sys ri + 1) (fun m ->
            f ta.(ri).(m) tb.(ri).(m)))

  let rec table env (f : Formula.t) =
    match Hashtbl.find_opt env.memo f with
    | Some t -> t
    | None ->
        let t = compute env f in
        Hashtbl.add env.memo f t;
        t

  and compute env = function
    | Formula.True -> blank env true
    | Formula.False -> blank env false
    | Formula.Prim p -> prim_table env p
    | Formula.Not f ->
        let tf = table env f in
        Array.map (Array.map not) tf
    | Formula.And (a, b) -> pointwise2 env ( && ) (table env a) (table env b)
    | Formula.Or (a, b) -> pointwise2 env ( || ) (table env a) (table env b)
    | Formula.Implies (a, b) ->
        pointwise2 env (fun x y -> (not x) || y) (table env a) (table env b)
    | Formula.Always f ->
        let tf = table env f in
        Array.map
          (fun row ->
            let out = Array.copy row in
            for m = Array.length row - 2 downto 0 do
              out.(m) <- row.(m) && out.(m + 1)
            done;
            out)
          tf
    | Formula.Eventually f ->
        let tf = table env f in
        Array.map
          (fun row ->
            let out = Array.copy row in
            for m = Array.length row - 2 downto 0 do
              out.(m) <- row.(m) || out.(m + 1)
            done;
            out)
          tf
    | Formula.K (p, f) ->
        let tf = table env f in
        let out = blank env false in
        let per_class = Array.make (System.class_count env.sys p) true in
        System.iter_points env.sys (fun ~run ~tick ->
            if not tf.(run).(tick) then
              per_class.(System.class_id env.sys p ~run ~tick) <- false);
        System.iter_points env.sys (fun ~run ~tick ->
            out.(run).(tick) <-
              per_class.(System.class_id env.sys p ~run ~tick));
        out
    | Formula.Ck (g, f) ->
        let tf = table env f in
        let members = Pid.Set.elements g in
        let x = blank env true in
        let changed = ref true in
        while !changed do
          changed := false;
          let next = blank env true in
          List.iter
            (fun p ->
              let per_class =
                Array.make (System.class_count env.sys p) true
              in
              System.iter_points env.sys (fun ~run ~tick ->
                  if not (tf.(run).(tick) && x.(run).(tick)) then
                    per_class.(System.class_id env.sys p ~run ~tick) <- false);
              System.iter_points env.sys (fun ~run ~tick ->
                  if not per_class.(System.class_id env.sys p ~run ~tick) then
                    next.(run).(tick) <- false))
            members;
          System.iter_points env.sys (fun ~run ~tick ->
              if x.(run).(tick) && not next.(run).(tick) then begin
                x.(run).(tick) <- false;
                changed := true
              end)
        done;
        x
    | Formula.Dk (s, f) ->
        let tf = table env f in
        let members = Pid.Set.elements s in
        let key ~run ~tick =
          List.map (fun p -> System.class_id env.sys p ~run ~tick) members
        in
        let per_class : (int list, bool) Hashtbl.t = Hashtbl.create 256 in
        System.iter_points env.sys (fun ~run ~tick ->
            let k = key ~run ~tick in
            let prev =
              Option.value ~default:true (Hashtbl.find_opt per_class k)
            in
            Hashtbl.replace per_class k (prev && tf.(run).(tick)));
        let out = blank env false in
        System.iter_points env.sys (fun ~run ~tick ->
            out.(run).(tick) <- Hashtbl.find per_class (key ~run ~tick));
        out

  let holds env f ~run ~tick = (table env f).(run).(tick)

  let counterexample env f =
    let t = table env f in
    let found = ref None in
    (try
       System.iter_points env.sys (fun ~run ~tick ->
           if not t.(run).(tick) then begin
             found := Some (run, tick);
             raise Exit
           end)
     with Exit -> ());
    !found

  let valid env f = Option.is_none (counterexample env f)
end
