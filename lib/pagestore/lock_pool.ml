exception Pool_exhausted

type lock = {
  id : int;
  mu : Mutex.t;
  mutable owner : int;    (* logical thread id; -1 when unowned *)
  mutable entries : int;  (* reentrancy depth *)
  mutable blockers : int; (* threads inside or waiting on this lock *)
}

type t = {
  registry : Mutex.t;  (* serializes lock-field assignment, recycling and growth *)
  capacity : int;
  mutable locks : lock array;  (* ids [0, length); [vacant] until first handed out *)
  mutable bits : Bitvec.t;     (* as long as [locks] *)
  mutable in_use : int;
  mutable peak : int;
}

(* Placeholder for table slots whose id has never been handed out. It is
   never returned by [monitor_enter], so its mutex is never taken. *)
let vacant = { id = -1; mu = Mutex.create (); owner = -1; entries = 0; blockers = 0 }

let min_table = 8

let create ?(capacity = 512) () =
  if capacity <= 0 || capacity > Layout_rt.max_lock_id then
    invalid_arg "Lock_pool.create: capacity out of range";
  {
    registry = Mutex.create ();
    capacity;
    locks = [||];
    bits = Bitvec.create 0;
    in_use = 0;
    peak = 0;
  }

let capacity t = t.capacity

(* The lowest free id, doubling the table (up to [capacity]) when every id
   in it is taken; ids stay dense because the bit vector hands out its
   lowest clear bit. Called under [registry]. *)
let rec acquire_id t =
  match Bitvec.acquire_first_free t.bits with
  | Some _ as id -> id
  | None ->
      let n = Array.length t.locks in
      if n = t.capacity then None
      else begin
        let n' = min t.capacity (max min_table (2 * n)) in
        let locks = Array.make n' vacant in
        Array.blit t.locks 0 locks 0 n;
        t.locks <- locks;
        t.bits <- Bitvec.extend t.bits n';
        acquire_id t
      end

(* The lock for a freshly handed-out [id], made the first time [id] is
   used. Called under [registry]. *)
let lock_for t id =
  let l = t.locks.(id) in
  if l != vacant then l
  else begin
    let l = { id; mu = Mutex.create (); owner = -1; entries = 0; blockers = 0 } in
    t.locks.(id) <- l;
    l
  end

let monitor_enter t store addr ~thread =
  Mutex.lock t.registry;
  let field = Store.get_lock_field store addr in
  let l =
    if field = 0 then begin
      match acquire_id t with
      | None ->
          Mutex.unlock t.registry;
          raise Pool_exhausted
      | Some id ->
          t.in_use <- t.in_use + 1;
          if t.in_use > t.peak then t.peak <- t.in_use;
          Store.set_lock_field store addr (id + 1);
          lock_for t id
    end
    else t.locks.(field - 1)
  in
  if l.owner = thread then begin
    (* Reentrant entry: the intrinsic lock is already held by this thread. *)
    l.entries <- l.entries + 1;
    Mutex.unlock t.registry
  end
  else begin
    l.blockers <- l.blockers + 1;
    (* Read under the registry: a live owner means we are about to block
       on [l.mu] rather than take it uncontended. *)
    let contended = l.owner >= 0 in
    Mutex.unlock t.registry;
    if contended && Obs.Trace.on () then
      Obs.Trace.instant ~cat:"store"
        ~args:[ ("lock", Obs.Tracer.Aint l.id) ]
        "lock_contended";
    Mutex.lock l.mu;
    l.owner <- thread;
    l.entries <- 1
  end

let monitor_exit t store addr ~thread =
  Mutex.lock t.registry;
  let field = Store.get_lock_field store addr in
  if field = 0 then begin
    Mutex.unlock t.registry;
    invalid_arg "Lock_pool.monitor_exit: record is not locked"
  end;
  let l = t.locks.(field - 1) in
  if l.owner <> thread then begin
    Mutex.unlock t.registry;
    invalid_arg "Lock_pool.monitor_exit: thread does not own the lock"
  end;
  l.entries <- l.entries - 1;
  if l.entries = 0 then begin
    l.owner <- -1;
    l.blockers <- l.blockers - 1;
    if l.blockers = 0 then begin
      (* Last thread out: zero the record's lock space and return the lock
         to the pool by flipping its bit (paper §3.4). *)
      Store.set_lock_field store addr 0;
      Bitvec.clear t.bits l.id;
      t.in_use <- t.in_use - 1
    end;
    Mutex.unlock l.mu
  end;
  Mutex.unlock t.registry

let locks_in_use t = t.in_use
let peak_locks_in_use t = t.peak
let bits_in_use t = Bitvec.count_set t.bits
