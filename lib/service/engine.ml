(* Compile-once program registry plus the shared execution resources.

   The first submission of a program pays for the whole pipeline —
   classify/transform, the optimizer, linking, quickening — and builds
   one detached warm tier ({!Facade_vm.Interp.make_tier}); every later
   run of that program reuses the cached pipeline and tier, so repeat
   submissions see zero tier-2 compiles.

   Every job computes on the domain pool, which is created once at
   server start and lives as long as the engine, so [Domain.spawn] costs
   nothing per submission. A parallel job hands the pool to
   {!Facade_vm.Interp.run_facade} ([?pool]); a sequential job runs as one
   pool task while the calling runner systhread parks, so domain 0's
   runtime lock stays free for the daemon's connection threads. *)

module I = Facade_vm.Interp
module ES = Facade_vm.Exec_stats

type entry = {
  e_name : string;
  e_pl : Facade_compiler.Pipeline.t;
  e_tier : Facade_vm.Vm_state.tier;
  e_entry_method : string;
}

type t = {
  mu : Mutex.t;  (* guards [programs] and [compiles] *)
  programs : (string, entry) Hashtbl.t;
  pool : Parallel.Pool.t;
  pool_workers : int;
  mutable compiles : int;  (* pipelines compiled (not tier-2 compiles) *)
}

let create ~pool_workers =
  if pool_workers < 1 then invalid_arg "Engine.create: pool_workers must be at least 1";
  {
    mu = Mutex.create ();
    programs = Hashtbl.create 8;
    pool = Parallel.Pool.create ~workers:pool_workers;
    pool_workers;
    compiles = 0;
  }

let shutdown t = Parallel.Pool.shutdown t.pool

let with_mu t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let build_entry name =
  match List.find_opt (fun s -> s.Samples.name = name) Samples.all with
  | None -> None
  | Some s ->
      let pl0 = Facade_compiler.Pipeline.compile ~spec:s.Samples.spec s.Samples.program in
      let pl, rep = Opt.Driver.optimize_pipeline pl0 in
      let feedback =
        {
          Facade_vm.Compile_tier.fb_mono = rep.Opt.Driver.tier_mono;
          fb_leaves = rep.Opt.Driver.tier_leaves;
        }
      in
      (* Link (and quicken) eagerly, under the registry lock, so the
         per-pipeline link cache is filled before any runner touches it
         and the tier is built against the exact resolved program every
         run will execute. *)
      let rp = Facade_vm.Link.facade_program ~quicken:true pl in
      let tier = I.make_tier ~feedback rp in
      let cls, meth = Jir.Program.entry s.Samples.program in
      Some { e_name = name; e_pl = pl; e_tier = tier; e_entry_method = cls ^ "." ^ meth }

let lookup t name =
  with_mu t (fun () ->
      match Hashtbl.find_opt t.programs name with
      | Some e -> Some e
      | None -> (
          match build_entry name with
          | None -> None
          | Some e ->
              Hashtbl.replace t.programs name e;
              t.compiles <- t.compiles + 1;
              Some e))

let program_count t = with_mu t (fun () -> Hashtbl.length t.programs)
let compile_count t = with_mu t (fun () -> t.compiles)

type run_result = {
  r_outcome : Proto.outcome;
  r_store : Pagestore.Store.stats option;
}

(* Execute one admitted job. [pages]/[heap] are the reservation admission
   granted: they become the run's store caps, so runtime enforcement
   matches admission exactly. Raises whatever the VM raises (notably
   [Pagestore.Store.Quota_exceeded]); the scheduler maps that to a
   failed job. A sequential job's exception is raised on a pool domain
   and re-raised here by the join. *)
let run t entry ~workers ~pages ~heap ~max_steps =
  let t0 = Unix.gettimeofday () in
  let facade ?pool () =
    I.run_facade ~quicken:true ~tier:entry.e_tier ~page_quota:pages ~heap_budget:heap
      ~max_steps ?pool entry.e_pl
  in
  let o =
    if workers > 0 then facade ~pool:t.pool ()
    else begin
      (* Park rather than help: helping would compute on domain 0. *)
      let out = ref None in
      let g = Parallel.Sched.group t.pool in
      Parallel.Sched.spawn g (fun () -> out := Some (facade ()));
      Parallel.Sched.wait ~help:false g;
      Option.get !out
    end
  in
  let run_ns = int_of_float ((Unix.gettimeofday () -. t0) *. 1e9) in
  let st = o.I.stats in
  let store = o.I.store_stats in
  {
    r_outcome =
      {
        Proto.oc_result =
          (match o.I.result with Some v -> Facade_vm.Value.to_string v | None -> "-");
        oc_steps = st.ES.steps;
        oc_page_records = st.ES.page_records;
        oc_live_pages =
          (match store with Some s -> s.Pagestore.Store.live_pages | None -> 0);
        oc_peak_native =
          (match store with Some s -> s.Pagestore.Store.peak_native_bytes | None -> 0);
        oc_tier2_compiles = st.ES.tier2_compiles;
        oc_tier2_recompiles = st.ES.tier2_recompiles;
        oc_osr_entries = st.ES.osr_entries;
        oc_queued_ns = 0;
        oc_run_ns = run_ns;
      };
    r_store = store;
  }
