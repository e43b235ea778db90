(** Fixed-size pool of OCaml 5 [Domain] workers with work-stealing.

    Submissions from a worker go to that worker's own deque (LIFO); ones
    from outside land in a shared injector queue. Idle workers steal.
    Tasks must not let exceptions escape — use {!Sched} groups, which
    capture the first exception and re-raise it at the join. *)

type task = unit -> unit
type t

val create : workers:int -> t
(** Spawn [workers] ≥ 1 domains. Callers must eventually {!shutdown}. *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> task -> unit
(** Enqueue a task; any domain may call this. *)

val try_help : t -> bool
(** Run one queued task on the calling domain if any is available.
    Returns [false] when nothing runnable was found (possibly spuriously,
    under a steal race). Safe from workers and external threads alike. *)

val on_worker : t -> bool
(** Whether the calling domain is one of this pool's workers. *)

val shutdown : t -> unit
(** Stop and join all workers. Pending queued tasks may be dropped; only
    call once every join has completed. *)

val with_pool : workers:int -> (t -> 'a) -> 'a
(** [with_pool ~workers f] lends [f] a pool of exactly [workers] domains
    from a single process-wide idle slot, creating one if the slot is
    empty and replacing a cached pool of another size. When [f] returns,
    the pool goes back to the slot (shutting down any pool it displaces);
    when [f] raises, the pool is shut down and not cached. Concurrent and
    nested borrowers get distinct pools. The idle pool is shut down at
    exit. [f] must join every task it submits before returning. *)

val with_pool_opt : int option -> (t option -> 'a) -> 'a
(** [with_pool_opt None f] is [f None]; [with_pool_opt (Some w) f] borrows
    [with_pool ~workers:(max 1 w)]. The engines' [?workers] convention. *)
