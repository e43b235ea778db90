(* Differential fuzzing of the FACADE transformation: random well-formed
   data-path programs are generated, compiled, and executed in both modes;
   P and P' must agree on the final checksum. This is the strongest
   semantics-preservation evidence in the suite — every instruction kind
   the generator emits exercises a Table 1 rule. *)

open Jir
module B = Builder

let int_t = Jtype.Prim Jtype.Int
let double_t = Jtype.Prim Jtype.Double
let ctor = Facade_compiler.Transform.constructor_name

(* The op language the fuzzer draws from; all ops are safe by construction
   (variables are initialized to fresh records up front, array indices are
   in bounds, links never produce dangling reads). *)
type op =
  | Fresh of int                 (* vi = new D (re-initialize) *)
  | Flip of int                  (* vi = new E (subclass: combine overridden) *)
  | Set_a of int * int           (* vi.a = const *)
  | Set_f of int * float         (* vi.f = const *)
  | Add_a of int * int           (* vi.a = vi.a + vj.a *)
  | Link of int * int            (* vi.next = vj *)
  | Follow of int * int          (* vi = vj.next (vj.next always set first) *)
  | Swap of int * int            (* vi = vj *)
  | Arr_set of int * int * int   (* vi.arr[idx] = const *)
  | Arr_accum of int * int       (* vi.a = vi.a + vi.arr[idx] *)
  | Combine of int * int         (* Main.comb(vi, vj): virtual vi.combine(vj) *)
  | Sync of int                  (* Main.bump(vi): monitored vi.a += 1 *)
  | Spin of int                  (* Main.spin(vi, 40): loop vi.a += 1, 40x *)

let nvars = 4

let op_gen =
  let open QCheck.Gen in
  let var = int_bound (nvars - 1) in
  let idx = int_bound 3 in
  frequency
    [
      (1, map (fun i -> Fresh i) var);
      (1, map (fun i -> Flip i) var);
      (3, map2 (fun i c -> Set_a (i, c)) var (int_bound 1000));
      (2, map2 (fun i c -> Set_f (i, c)) var (float_bound_inclusive 100.0));
      (3, map2 (fun i j -> Add_a (i, j)) var var);
      (2, map2 (fun i j -> Link (i, j)) var var);
      (2, map2 (fun i j -> Swap (i, j)) var var);
      (3, map3 (fun i k c -> Arr_set (i, k, c)) var idx (int_bound 100));
      (2, map2 (fun i k -> Arr_accum (i, k)) var idx);
      (2, map2 (fun i j -> Combine (i, j)) var var);
      (1, map (fun i -> Sync i) var);
      (1, map (fun i -> Spin i) var);
      (1, map2 (fun i j -> Follow (i, j)) var var);
    ]

(* Build the program for an op list. *)
let program_of_ops ops =
  let data_cls =
    let init =
      let m = B.create ctor in
      let b = B.entry m in
      let four = B.fresh m int_t in
      let arr = B.fresh m (Jtype.Array int_t) in
      B.const_i b four 4;
      B.new_array b arr int_t ~len:four;
      B.fstore b ~obj:"this" ~field:"arr" ~src:arr;
      (* next points to self so Follow never reads null. *)
      B.fstore b ~obj:"this" ~field:"next" ~src:"this";
      B.ret b None;
      B.finish m
    in
    let combine =
      let m = B.create "combine" ~params:[ ("o", Jtype.Ref "D") ] in
      let b = B.entry m in
      let x = B.fresh m int_t in
      let y = B.fresh m int_t in
      let s = B.fresh m int_t in
      B.fload b ~dst:x ~obj:"this" ~field:"a";
      B.fload b ~dst:y ~obj:"o" ~field:"a";
      B.binop b s Ir.Add x y;
      B.fstore b ~obj:"this" ~field:"a" ~src:s;
      B.ret b None;
      B.finish m
    in
    B.cls "D"
      ~fields:
        [
          B.field "a" int_t;
          B.field "f" double_t;
          B.field "next" (Jtype.Ref "D");
          B.field "arr" (Jtype.Array int_t);
        ]
      ~methods:[ init; combine ]
  in
  (* Subclass with an observably different [combine]: a Flip op swaps a
     variable to an [E] receiver, which mid-method invalidates any warm
     monomorphic inline cache — the tier-2 polymorphic-deopt trigger. *)
  let sub_cls =
    let init =
      let m = B.create ctor in
      let b = B.entry m in
      B.call b ~recv:"this" ~kind:Ir.Special ~cls:"D" ~name:ctor [];
      B.ret b None;
      B.finish m
    in
    let combine =
      let m = B.create "combine" ~params:[ ("o", Jtype.Ref "D") ] in
      let b = B.entry m in
      let x = B.fresh m int_t in
      let y = B.fresh m int_t in
      let s = B.fresh m int_t in
      B.fload b ~dst:x ~obj:"this" ~field:"a";
      B.fload b ~dst:y ~obj:"o" ~field:"a";
      B.binop b s Ir.Add x y;
      B.binop b s Ir.Add s y;
      B.fstore b ~obj:"this" ~field:"a" ~src:s;
      B.ret b None;
      B.finish m
    in
    B.cls "E" ~super:"D" ~methods:[ init; combine ]
  in
  (* Static helpers the random ops call through: repeated calls push
     them over the tier-2 threshold, so the virtual dispatch and the
     monitor region execute inside compiled code. *)
  let comb_helper =
    let m =
      B.create ~static:true "comb" ~params:[ ("x", Jtype.Ref "D"); ("y", Jtype.Ref "D") ]
    in
    let b = B.entry m in
    B.call b ~recv:"x" ~kind:Ir.Virtual ~cls:"D" ~name:"combine" [ "y" ];
    B.ret b None;
    B.finish m
  in
  let bump_helper =
    let m = B.create ~static:true "bump" ~params:[ ("x", Jtype.Ref "D") ] in
    let b = B.entry m in
    let t = B.fresh m int_t in
    let one = B.fresh m int_t in
    B.monitor_enter b "x";
    B.fload b ~dst:t ~obj:"x" ~field:"a";
    B.const_i b one 1;
    B.binop b t Ir.Add t one;
    B.fstore b ~obj:"x" ~field:"a" ~src:t;
    B.monitor_exit b "x";
    B.ret b None;
    B.finish m
  in
  (* A real loop: 40 iterations in one call, so a single Spin runs the
     loop on tier 1 (one call stays below [hot]) and repeated Spins run
     it compiled. *)
  let spin_helper =
    let m =
      B.create ~static:true "spin"
        ~params:[ ("x", Jtype.Ref "D"); ("n", int_t) ]
    in
    let b0 = B.entry m in
    let hdr = B.block m in
    let body = B.block m in
    let exit_ = B.block m in
    let i = B.fresh m int_t in
    let one = B.fresh m int_t in
    let c = B.fresh m int_t in
    let t = B.fresh m int_t in
    B.const_i b0 i 0;
    B.const_i b0 one 1;
    B.jump b0 hdr;
    B.binop hdr c Ir.Lt i "n";
    B.branch hdr c ~then_:body ~else_:exit_;
    B.fload body ~dst:t ~obj:"x" ~field:"a";
    B.binop body t Ir.Add t one;
    B.fstore body ~obj:"x" ~field:"a" ~src:t;
    B.binop body i Ir.Add i one;
    B.jump body hdr;
    B.ret exit_ None;
    B.finish m
  in
  let main =
    let m = B.create ~static:true "main" ~ret:int_t in
    let b = B.entry m in
    let v i = Printf.sprintf "v%d" i in
    for i = 0 to nvars - 1 do
      B.declare m (v i) (Jtype.Ref "D")
    done;
    let fresh_rec dst =
      B.new_obj b dst "D";
      B.call b ~recv:dst ~kind:Ir.Special ~cls:"D" ~name:ctor []
    in
    for i = 0 to nvars - 1 do
      fresh_rec (v i)
    done;
    let tmp_i = B.fresh m int_t in
    let tmp_j = B.fresh m int_t in
    let tmp_s = B.fresh m int_t in
    let tmp_f = B.fresh m double_t in
    let tmp_arr = B.fresh m (Jtype.Array int_t) in
    let flip_rec dst =
      B.new_obj b dst "E";
      B.call b ~recv:dst ~kind:Ir.Special ~cls:"E" ~name:ctor []
    in
    let emit = function
      | Fresh i -> fresh_rec (v i)
      | Flip i -> flip_rec (v i)
      | Set_a (i, c) ->
          B.const_i b tmp_i c;
          B.fstore b ~obj:(v i) ~field:"a" ~src:tmp_i
      | Set_f (i, c) ->
          B.const_f b tmp_f c;
          B.fstore b ~obj:(v i) ~field:"f" ~src:tmp_f
      | Add_a (i, j) ->
          B.fload b ~dst:tmp_i ~obj:(v i) ~field:"a";
          B.fload b ~dst:tmp_j ~obj:(v j) ~field:"a";
          B.binop b tmp_s Ir.Add tmp_i tmp_j;
          B.fstore b ~obj:(v i) ~field:"a" ~src:tmp_s
      | Link (i, j) -> B.fstore b ~obj:(v i) ~field:"next" ~src:(v j)
      | Follow (i, j) -> B.fload b ~dst:(v i) ~obj:(v j) ~field:"next"
      | Swap (i, j) -> B.move b ~dst:(v i) ~src:(v j)
      | Arr_set (i, k, c) ->
          B.fload b ~dst:tmp_arr ~obj:(v i) ~field:"arr";
          B.const_i b tmp_j k;
          B.const_i b tmp_i c;
          B.astore b ~arr:tmp_arr ~idx:tmp_j ~src:tmp_i
      | Arr_accum (i, k) ->
          B.fload b ~dst:tmp_arr ~obj:(v i) ~field:"arr";
          B.const_i b tmp_j k;
          B.aload b ~dst:tmp_i ~arr:tmp_arr ~idx:tmp_j;
          B.fload b ~dst:tmp_s ~obj:(v i) ~field:"a";
          B.binop b tmp_s Ir.Add tmp_s tmp_i;
          B.fstore b ~obj:(v i) ~field:"a" ~src:tmp_s
      | Combine (i, j) ->
          B.call b ~kind:Ir.Static ~cls:"Main" ~name:"comb" [ v i; v j ]
      | Sync i -> B.call b ~kind:Ir.Static ~cls:"Main" ~name:"bump" [ v i ]
      | Spin i ->
          B.const_i b tmp_j 40;
          B.call b ~kind:Ir.Static ~cls:"Main" ~name:"spin" [ v i; tmp_j ]
    in
    List.iter emit ops;
    (* Checksum over every variable: ints, array slots, a float signal. *)
    let acc = B.fresh m int_t in
    let hundred = B.fresh m int_t in
    B.const_i b acc 0;
    B.const_i b hundred 100;
    for i = 0 to nvars - 1 do
      B.fload b ~dst:tmp_i ~obj:(v i) ~field:"a";
      B.binop b acc Ir.Add acc tmp_i;
      for k = 0 to 3 do
        B.fload b ~dst:tmp_arr ~obj:(v i) ~field:"arr";
        B.const_i b tmp_j k;
        B.aload b ~dst:tmp_s ~arr:tmp_arr ~idx:tmp_j;
        B.binop b acc Ir.Add acc tmp_s
      done;
      (* Print the float field so output comparison covers doubles. *)
      B.fload b ~dst:tmp_f ~obj:(v i) ~field:"f";
      B.add b (Ir.Intrinsic (None, Facade_compiler.Rt_names.print, [ Ir.Var tmp_f ]));
      ignore hundred
    done;
    B.ret b (Some acc);
    B.finish m
  in
  Program.make ~entry:("Main", "main")
    [
      data_cls; sub_cls;
      B.cls "Main" ~methods:[ comb_helper; bump_helper; spin_helper; main ];
    ]

let spec =
  { Facade_compiler.Classify.data_roots = [ "D"; "E"; "Main" ]; boundary = [] }

(* Every generated program is verifier-clean, so the flow-sensitive
   analyses must terminate without crashing and report nothing — on the
   original P and on the transformed P'. *)
let analyses_clean p =
  List.iter
    (fun (c : Ir.cls) ->
      List.iter
        (fun (m : Ir.meth) ->
          let where = c.Ir.cname ^ "." ^ m.Ir.mname in
          ignore (Analysis.Liveness.analyze m);
          match Analysis.Lint.check_method ~where m with
          | [] -> ()
          | fs ->
              failwith
                (String.concat "; " (List.map Analysis.Finding.to_string fs)))
        c.Ir.cmethods)
    (Program.classes p)

let run_differential ops =
  let program = program_of_ops ops in
  Verify.check_or_fail program;
  analyses_clean program;
  let pl = Facade_compiler.Pipeline.compile ~spec program in
  Verify.check_or_fail pl.Facade_compiler.Pipeline.transformed;
  analyses_clean pl.Facade_compiler.Pipeline.transformed;
  let is_data c =
    Facade_compiler.Classify.is_data_class pl.Facade_compiler.Pipeline.classification c
  in
  let o1 = Facade_vm.Interp.run_object ~is_data program in
  let o2 = Facade_vm.Interp.run_facade pl in
  let same_result =
    match o1.Facade_vm.Interp.result, o2.Facade_vm.Interp.result with
    | Some a, Some b -> Facade_vm.Value.equal_ref a b
    | _ -> false
  in
  same_result
  && Facade_vm.Exec_stats.output_lines o1.Facade_vm.Interp.stats
     = Facade_vm.Exec_stats.output_lines o2.Facade_vm.Interp.stats
  && o2.Facade_vm.Interp.stats.Facade_vm.Exec_stats.data_objects = 0

let prop_differential =
  QCheck.Test.make ~name:"random data-path programs: P = P'" ~count:120
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
       QCheck.Gen.(list_size (int_range 0 60) op_gen))
    run_differential

(* The tier-2 deopt fuzzer: the same random programs, each executed by
   the quickened interpreter and by the closure compiler with a hot
   threshold of 2 — low enough that [comb]/[bump] compile mid-run, so
   Flip ops invalidate warm inline caches inside compiled code and Sync
   ops hit the monitor deopt. Both modes must be bit-identical across
   tiers: result, printed output, step count, and heap/page totals. *)
let run_tier_differential ops =
  let program = program_of_ops ops in
  let pl = Facade_compiler.Pipeline.compile ~spec program in
  let is_data c =
    Facade_compiler.Classify.is_data_class pl.Facade_compiler.Pipeline.classification c
  in
  let key (o : Facade_vm.Interp.outcome) =
    ( (match o.Facade_vm.Interp.result with
      | Some v -> Facade_vm.Value.to_string v
      | None -> "-"),
      Facade_vm.Exec_stats.output_lines o.Facade_vm.Interp.stats,
      o.Facade_vm.Interp.stats.Facade_vm.Exec_stats.steps,
      o.Facade_vm.Interp.stats.Facade_vm.Exec_stats.data_objects,
      o.Facade_vm.Interp.stats.Facade_vm.Exec_stats.page_records )
  in
  let obj1 = Facade_vm.Interp.run_object ~is_data ~quicken:true program in
  let obj2 =
    Facade_vm.Interp.run_object ~is_data ~quicken:true ~tier2:true ~tier2_hot:2 program
  in
  let fac1 = Facade_vm.Interp.run_facade ~quicken:true pl in
  let fac2 = Facade_vm.Interp.run_facade ~quicken:true ~tier2:true ~tier2_hot:2 pl in
  key obj1 = key obj2 && key fac1 = key fac2

let prop_tier_differential =
  QCheck.Test.make ~name:"random programs: tier2 = tier1 in both modes" ~count:100
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
       QCheck.Gen.(list_size (int_range 0 60) op_gen))
    run_tier_differential

(* Facade mode with tier 2, sequentially and on a 4-domain pool, so
   compiled code also runs on worker domains. Every observable must
   match plain tier 1. *)
let run_workers_differential ops =
  let program = program_of_ops ops in
  let pl = Facade_compiler.Pipeline.compile ~spec program in
  let key (o : Facade_vm.Interp.outcome) =
    ( (match o.Facade_vm.Interp.result with
      | Some v -> Facade_vm.Value.to_string v
      | None -> "-"),
      Facade_vm.Exec_stats.output_lines o.Facade_vm.Interp.stats,
      o.Facade_vm.Interp.stats.Facade_vm.Exec_stats.steps,
      o.Facade_vm.Interp.stats.Facade_vm.Exec_stats.page_records )
  in
  let fac1 = Facade_vm.Interp.run_facade ~quicken:true pl in
  let seq = Facade_vm.Interp.run_facade ~quicken:true ~tier2:true ~tier2_hot:2 pl in
  let par =
    Facade_vm.Interp.run_facade ~quicken:true ~workers:4 ~tier2:true ~tier2_hot:2 pl
  in
  key fac1 = key seq && key fac1 = key par

let prop_workers_differential =
  QCheck.Test.make ~name:"random programs: tier2 = tier1, workers 1/4" ~count:60
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
       QCheck.Gen.(list_size (int_range 0 60) op_gen))
    run_workers_differential

let test_empty_program () =
  Alcotest.(check bool) "no ops" true (run_differential [])

let test_directed_cases () =
  (* A few hand-picked op sequences covering aliasing through links. *)
  List.iter
    (fun ops -> Alcotest.(check bool) "directed" true (run_differential ops))
    [
      [ Set_a (0, 5); Link (1, 0); Follow (2, 1); Add_a (2, 0) ];
      [ Swap (0, 1); Set_a (0, 9); Add_a (1, 0) ];  (* alias: v0 == v1 *)
      [ Arr_set (3, 2, 41); Arr_accum (3, 2); Combine (0, 3) ];
      [ Fresh 0; Fresh 0; Set_f (0, 2.5); Follow (0, 0) ];
      [ Flip 0; Set_a (0, 3); Combine (0, 1); Sync 0; Combine (1, 0) ];
    ]

let test_directed_tier_flip () =
  (* Warm the cache in [comb] on D receivers, compile, then flip: the
     deopt must be invisible in the checksum, output, and step count. *)
  let warm = List.init 5 (fun _ -> Combine (0, 1)) in
  List.iter
    (fun ops -> Alcotest.(check bool) "tier flip" true (run_tier_differential ops))
    [
      warm @ [ Flip 0; Combine (0, 1); Combine (1, 0) ];
      warm @ [ Flip 1; Sync 1; Combine (0, 1); Sync 0; Sync 0; Sync 0 ];
      [ Sync 2; Sync 2; Sync 2; Sync 2; Flip 2; Sync 2; Combine (2, 2) ];
    ]

let () =
  Alcotest.run "fuzz"
    [
      ( "differential",
        [
          Alcotest.test_case "empty" `Quick test_empty_program;
          Alcotest.test_case "directed" `Quick test_directed_cases;
          QCheck_alcotest.to_alcotest prop_differential;
        ] );
      ( "tier",
        [
          Alcotest.test_case "directed receiver flips" `Quick test_directed_tier_flip;
          QCheck_alcotest.to_alcotest prop_tier_differential;
          QCheck_alcotest.to_alcotest prop_workers_differential;
        ] );
    ]
