module Heap = Heapsim.Heap
module Clock = Heapsim.Sim_clock
module Store = Pagestore.Store

type result = {
  first : string list;
  total_tokens : int;
  runs : int;
}

let record_type = 2
let len_off = 4

let log2 n = if n <= 1 then 1.0 else log (float_of_int n) /. log 2.0

(* Merge two sorted string lists (the spill-file merge). *)
let rec merge a b =
  match a, b with
  | [], r | r, [] -> r
  | x :: xs, y :: ys ->
      if String.compare x y <= 0 then x :: merge xs b else y :: merge a ys

let run config (corpus : Workloads.Text_gen.t) =
  Engine.with_run config (fun c ->
      let cost = (Engine.cfg c).Engine.cost in
      let words = Engine.machine_slice config corpus.Workloads.Text_gen.words in
      let n = Array.length words in
      let avg_token = 8 in
      let run_capacity = max 64 (cost.Hcost.sort_buffer_bytes / avg_token) in
      (* Per-worker sort buffers: fixed byte-buffer state (both modes). *)
      Heap.alloc_many (Engine.heap c) ~lifetime:Heap.Permanent
        ~bytes_each:cost.Hcost.sort_buffer_bytes
        ~count:config.Engine.workers_per_machine;
      let cmp_cost, temps_per_token =
        match config.Engine.mode with
        | Engine.Object_mode -> (cost.Hcost.cmp_object, cost.Hcost.temps_per_token_object)
        | Engine.Facade_mode -> (cost.Hcost.cmp_facade, cost.Hcost.temps_per_token_facade)
      in
      let sort_run_object lo hi =
        (* The run's records are deserialized into heap objects that live
           until the run is spilled. *)
        Heap.iteration_start (Engine.heap c);
        Heap.alloc_many (Engine.heap c) ~lifetime:Heap.Iteration ~bytes_each:48
          ~count:(2 * (hi - lo));
        let run = Array.sub words lo (hi - lo) in
        Array.sort String.compare run;
        Engine.note_data_objects c (2 * (hi - lo));
        let spilled = Array.to_list run in
        Heap.iteration_end (Engine.heap c);
        spilled
      in
      let sort_run_facade store lo hi =
        (* Sort reads the actual page records: write tokens into pages,
           sort an index by comparing bytes in the store, then spill. *)
        Store.iteration_start store ~thread:0;
        let addrs =
          Array.init (hi - lo) (fun i ->
              let w = words.(lo + i) in
              let len = String.length w in
              let addr =
                Store.alloc_record store ~thread:0 ~type_id:record_type ~data_bytes:(4 + len)
              in
              Store.set_i32 store addr ~offset:len_off len;
              String.iteri
                (fun j ch -> Store.set_i8 store addr ~offset:(len_off + 4 + j) (Char.code ch))
                w;
              Engine.note_record c;
              addr)
        in
        Engine.sync_native c;
        let read addr =
          let len = Store.get_i32 store addr ~offset:len_off in
          String.init len (fun j ->
              Char.chr (Store.get_i8 store addr ~offset:(len_off + 4 + j)))
        in
        (* [String.compare]'s order, read in place: unsigned bytes, and on a
           common prefix the shorter token first. *)
        let cmp a b =
          let la = Store.get_i32 store a ~offset:len_off
          and lb = Store.get_i32 store b ~offset:len_off in
          let stop = len_off + 4 + min la lb in
          let off = ref (len_off + 4) and d = ref 0 in
          while !d = 0 && !off < stop do
            d := Store.get_i8 store a ~offset:!off - Store.get_i8 store b ~offset:!off;
            incr off
          done;
          if !d <> 0 then !d else Int.compare la lb
        in
        Array.sort cmp addrs;
        let spilled = Array.to_list (Array.map read addrs) in
        Store.iteration_end store ~thread:0;
        Engine.sync_native c;
        spilled
      in
      let runs = ref [] in
      let run_count = ref 0 in
      let lo = ref 0 in
      while !lo < n do
        let hi = min n (!lo + run_capacity) in
        let m = hi - !lo in
        incr run_count;
        (* Scan + record materialisation + in-buffer sort cost. *)
        let map_cost =
          match config.Engine.mode with
          | Engine.Object_mode -> cost.Hcost.map_per_token_object
          | Engine.Facade_mode -> cost.Hcost.map_per_token_facade
        in
        Engine.charge c Clock.Update
          (Engine.parallel_time c (float_of_int m *. (cost.Hcost.scan_per_token +. map_cost)));
        Engine.charge c Clock.Update
          (Engine.parallel_time c (float_of_int m *. log2 m *. cmp_cost));
        Engine.alloc_temps c ~count:(int_of_float (float_of_int m *. temps_per_token));
        let sorted =
          match Engine.store c with
          | None -> sort_run_object !lo hi
          | Some store -> sort_run_facade store !lo hi
        in
        runs := sorted :: !runs;
        lo := hi
      done;
      (* k-way merge of the spilled runs. *)
      Engine.charge c Clock.Update
        (Engine.parallel_time c (float_of_int n *. log2 !run_count *. cmp_cost));
      Engine.alloc_temps c
        ~count:(int_of_float (float_of_int n *. temps_per_token /. 4.0));
      let merged = List.fold_left merge [] !runs in
      (* The merged output is buffered before the HDFS write: heap byte
         buffers in P, page-resident in P'. *)
      let out_bytes = corpus.Workloads.Text_gen.total_bytes / config.Engine.machines / 3 in
      (match Engine.store c with
      | None -> Heap.alloc (Engine.heap c) ~lifetime:Heap.Permanent ~bytes:out_bytes
      | Some store ->
          (* Page-resident output is header-free and denser. *)
          ignore
            (Store.alloc_array store ~thread:0 ~type_id:record_type ~elem_bytes:1
               ~length:(out_bytes * 7 / 10));
          Engine.note_record c;
          Engine.sync_native c);
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      { first = take 20 merged; total_tokens = n; runs = !run_count })
