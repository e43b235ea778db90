(* Fixed-size Domain worker pool.

   Each worker domain owns a Chase–Lev deque; tasks submitted from a
   worker go to its own deque (LIFO for locality), tasks submitted from
   outside the pool go to a mutex-guarded injector queue. Idle workers
   drain their own deque, then the injector, then steal from siblings;
   when nothing is found they park on a condition variable guarded by a
   version stamp so a concurrent submit can never be missed.

   Tasks must not raise: the worker loop swallows escaping exceptions to
   keep the domain alive. {!Sched} wraps every task to capture the first
   exception and re-raise it at the join point, so user code never relies
   on this backstop. *)

type task = unit -> unit

type t = {
  id : int;
  deques : task Deque.t array;
  injector : task Queue.t; (* guarded by [mu] *)
  mu : Mutex.t;
  cond : Condition.t;
  version : int Atomic.t; (* bumped on every submit *)
  stop : bool Atomic.t;
  mutable domains : unit Domain.t list;
}

let next_id = Atomic.make 0

(* Identifies the current domain as worker [i] of pool [id]. *)
let worker_key : (int * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let my_index t =
  match Domain.DLS.get worker_key with
  | Some (pid, i) when pid = t.id -> i
  | _ -> -1

let on_worker t = my_index t >= 0

let size t = Array.length t.deques

let take_injector t =
  Mutex.lock t.mu;
  let r = Queue.take_opt t.injector in
  Mutex.unlock t.mu;
  r

(* [self] is the caller's worker index, or -1 for an external thread. *)
let find_task t ~self =
  let own = if self >= 0 then Deque.pop t.deques.(self) else None in
  match own with
  | Some _ as r -> r
  | None -> (
      match take_injector t with
      | Some _ as r ->
          if Obs.Trace.on () then Obs.Trace.instant ~cat:"par" "injector_take";
          r
      | None ->
          let n = Array.length t.deques in
          let start = if self >= 0 then self + 1 else 0 in
          let rec sweep k =
            if k >= n then None
            else
              match Deque.steal t.deques.((start + k) mod n) with
              | Some _ as r ->
                  if Obs.Trace.on () then
                    Obs.Trace.instant ~cat:"par"
                      ~args:
                        [ ("victim", Obs.Tracer.Aint ((start + k) mod n)) ]
                      "task_steal";
                  r
              | None -> sweep (k + 1)
          in
          sweep 0)

let exec task =
  if Obs.Trace.on () then
    Obs.Trace.with_span ~cat:"par" "task" (fun () -> try task () with _ -> ())
  else try task () with _ -> ()

let rec worker_loop t i =
  match find_task t ~self:i with
  | Some task ->
      exec task;
      worker_loop t i
  | None ->
      let v = Atomic.get t.version in
      (* Rescan after reading the stamp: a submit that completed in
         between bumped [version], so the park below will fall through. *)
      (match find_task t ~self:i with
      | Some task ->
          exec task;
          worker_loop t i
      | None ->
          if not (Atomic.get t.stop) then begin
            if Obs.Trace.on () then Obs.Trace.instant ~cat:"par" "worker_park";
            Mutex.lock t.mu;
            while Atomic.get t.version = v && not (Atomic.get t.stop) do
              Condition.wait t.cond t.mu
            done;
            Mutex.unlock t.mu;
            worker_loop t i
          end)

let create ~workers =
  if workers < 1 then invalid_arg "Pool.create: workers < 1";
  let t =
    {
      id = Atomic.fetch_and_add next_id 1;
      deques = Array.init workers (fun _ -> Deque.create ());
      injector = Queue.create ();
      mu = Mutex.create ();
      cond = Condition.create ();
      version = Atomic.make 0;
      stop = Atomic.make false;
      domains = [];
    }
  in
  t.domains <-
    List.init workers (fun i ->
        Domain.spawn (fun () ->
            Domain.DLS.set worker_key (Some (t.id, i));
            worker_loop t i));
  t

let submit t task =
  let self = my_index t in
  if self >= 0 then Deque.push t.deques.(self) task
  else begin
    Mutex.lock t.mu;
    Queue.push task t.injector;
    Mutex.unlock t.mu
  end;
  if Obs.Trace.on () then Obs.Trace.instant ~cat:"par" "task_submit";
  Atomic.incr t.version;
  Mutex.lock t.mu;
  Condition.broadcast t.cond;
  Mutex.unlock t.mu

let try_help t =
  match find_task t ~self:(my_index t) with
  | Some task ->
      exec task;
      true
  | None -> false

let shutdown t =
  Atomic.set t.stop true;
  Mutex.lock t.mu;
  Condition.broadcast t.cond;
  Mutex.unlock t.mu;
  List.iter Domain.join t.domains;
  t.domains <- []

(* The single idle pool. A borrower empties the slot, so concurrent
   borrowers never share a pool: the second one creates its own. *)
let idle : t option Atomic.t = Atomic.make None

let () = at_exit (fun () -> Option.iter shutdown (Atomic.exchange idle None))

let with_pool ~workers f =
  let p =
    match Atomic.exchange idle None with
    | Some p when size p = workers -> p
    | Some p ->
        shutdown p;
        create ~workers
    | None -> create ~workers
  in
  match f p with
  | v ->
      Option.iter shutdown (Atomic.exchange idle (Some p));
      v
  | exception e ->
      (* A run that died between spawn and join may still have tasks
         queued: never lend this pool again. *)
      let bt = Printexc.get_raw_backtrace () in
      shutdown p;
      Printexc.raise_with_backtrace e bt

let with_pool_opt workers f =
  match workers with
  | None -> f None
  | Some w -> with_pool ~workers:(max 1 w) (fun p -> f (Some p))
