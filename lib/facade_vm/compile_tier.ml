(* The tier-2 closure compiler: translates hot resolved methods out of
   the interpreter's dispatch loop into directly-composed OCaml closures
   — one closure per instruction, pre-composed per basic block, with
   accessor/arith/operand dispatch hoisted to compile time. Inline
   caches are monomorphized against their warm snapshot; leaf callees
   are devirtualized and run through pre-compiled bodies. Every guard
   that might fail raises {!Vm_state.Tier_deopt} *before* the faulting
   instruction's step accounting, so the interpreter resume at (block,
   pc) — on the same slot-indexed frame array — replays it exactly once
   and the two tiers agree on results, output, steps, heap totals, pool
   peaks, and the instruction mix.

   Accounting identity with tier-1 (the differential contract):
   - straight-line runs of simple instructions are bulk-charged: a
     segment precheck deopts with reason "budget" if the step budget
     would expire inside the run, so tier-1 reproduces the exact error
     point; otherwise steps/mix/intrinsic-dispatch counters advance by
     precomputed deltas and the closures run;
   - guards and calls charge one step themselves after their own budget
     precheck;
   - anything else is delegated, instruction by instruction, to the
     interpreter's [h_exec], which self-accounts.
   The only divergence is unobservable: a [Vm_error] thrown mid-segment
   (bad cast, division by zero) leaves the whole segment charged, but
   the run's stats are discarded when the error propagates. *)

open Jir
open Vm_state
module Page = Pagestore.Page
module LR = Pagestore.Layout_rt

type feedback = {
  fb_mono : string list;
      (* method names with a single implementation per {!Opt.Devirt}'s
         CHA — IC misses on these delegate instead of deoptimizing *)
  fb_leaves : (string * string) list;
      (* (class, method) pairs {!Opt.Inline} judged inline-worthy — get
         the wider inline budget *)
}

let no_feedback = { fb_mono = []; fb_leaves = [] }

let deopt_limit = 8
(* Deopts tolerated per method before its compiled code is retired. *)

let leaf_budget = 8
let feedback_leaf_budget = 16
let compile_limit = 4096
(* Methods above this instruction count stay on tier-1 for good. *)

(* ---------- compile-time specializers ---------- *)

(* Binop with the operator match and the common int/float fast paths
   hoisted out of the loop; falls back to the interpreter's [arith] for
   mixed or invalid operands (same errors, same coercions). *)
let bin_fn (op : Ir.binop) : Value.t -> Value.t -> Value.t =
  match op with
  | Ir.Add -> (
      fun a b ->
        match a, b with
        | Value.Int x, Value.Int y -> Value.of_int (x + y)
        | Value.Float x, Value.Float y -> Value.Float (x +. y)
        | _ -> arith Ir.Add a b)
  | Ir.Sub -> (
      fun a b ->
        match a, b with
        | Value.Int x, Value.Int y -> Value.of_int (x - y)
        | Value.Float x, Value.Float y -> Value.Float (x -. y)
        | _ -> arith Ir.Sub a b)
  | Ir.Mul -> (
      fun a b ->
        match a, b with
        | Value.Int x, Value.Int y -> Value.of_int (x * y)
        | Value.Float x, Value.Float y -> Value.Float (x *. y)
        | _ -> arith Ir.Mul a b)
  | Ir.Lt -> (
      fun a b ->
        match a, b with
        | Value.Int x, Value.Int y -> Value.of_int (if x < y then 1 else 0)
        | _ -> arith Ir.Lt a b)
  | Ir.Le -> (
      fun a b ->
        match a, b with
        | Value.Int x, Value.Int y -> Value.of_int (if x <= y then 1 else 0)
        | _ -> arith Ir.Le a b)
  | Ir.Gt -> (
      fun a b ->
        match a, b with
        | Value.Int x, Value.Int y -> Value.of_int (if x > y then 1 else 0)
        | _ -> arith Ir.Gt a b)
  | Ir.Ge -> (
      fun a b ->
        match a, b with
        | Value.Int x, Value.Int y -> Value.of_int (if x >= y then 1 else 0)
        | _ -> arith Ir.Ge a b)
  | Ir.Eq -> fun a b -> Value.of_int (if Value.equal_ref a b then 1 else 0)
  | Ir.Ne -> fun a b -> Value.of_int (if Value.equal_ref a b then 0 else 1)
  | op -> arith op

(* Frame slots come from the linker, which sized each method's frame to
   cover every slot it emits, so compiled code reads them unchecked (the
   interpreter leans on the same invariant through checked accesses). *)
let fg = Array.unsafe_get
let fs = Array.unsafe_set

let opfn : R.operand -> Value.t array -> Value.t = function
  | R.Oslot s -> fun f -> fg f s
  | R.Oconst c -> fun _ -> c

(* [check_nonnull] + [addr_of] in one match — same errors, same order. *)
let addr_nn = function
  | Value.Int 0 -> vm_err "NullPointerException: null page reference"
  | Value.Int a -> Addr.of_int a
  | v -> vm_err "expected an int, got %s" (Value.to_string v)

(* Page accessors against a pre-resolved (page, record offset) base, the
   width match hoisted to compile time. Fusing the base resolution lets
   a compiled array access or read-modify-write look the page up once
   where the interpreter's Store calls look it up per access. *)
let pg_read (a : R.acc) : Page.t -> int -> Value.t =
  match a with
  | R.A_i8 -> fun p i -> Value.of_int (Page.read_u8 p i)
  | R.A_i16 -> fun p i -> Value.of_int (Page.read_u16 p i)
  | R.A_i32 -> fun p i -> Value.of_int (Page.read_i32 p i)
  | R.A_i64 -> fun p i -> Value.of_int (Page.read_i64 p i)
  | R.A_f32 -> fun p i -> Value.Float (Page.read_f32 p i)
  | R.A_f64 -> fun p i -> Value.Float (Page.read_f64 p i)

let pg_write (a : R.acc) : Page.t -> int -> Value.t -> unit =
  match a with
  | R.A_i8 -> fun p i v -> Page.write_u8 p i (as_int v land 0xff)
  | R.A_i16 -> fun p i v -> Page.write_u16 p i (as_int v)
  | R.A_i32 -> fun p i v -> Page.write_i32 p i (as_int v)
  | R.A_i64 -> fun p i v -> Page.write_i64 p i (as_int v)
  | R.A_f32 -> fun p i v -> Page.write_f32 p i (as_float v)
  | R.A_f64 -> fun p i v -> Page.write_f64 p i (as_float v)

(* Unboxable operators for the numeric fast paths below. Comparisons and
   the zero-checking integer Div/Rem stay on the generic [arith] path. *)
let float_op : Ir.binop -> (float -> float -> float) option = function
  | Ir.Add -> Some ( +. )
  | Ir.Sub -> Some ( -. )
  | Ir.Mul -> Some ( *. )
  | Ir.Div -> Some ( /. )
  | Ir.Rem -> Some Float.rem
  | _ -> None

let int_op : Ir.binop -> (int -> int -> int) option = function
  | Ir.Add -> Some ( + )
  | Ir.Sub -> Some ( - )
  | Ir.Mul -> Some ( * )
  | Ir.And -> Some ( land )
  | Ir.Or -> Some ( lor )
  | Ir.Xor -> Some ( lxor )
  | Ir.Shl -> Some ( lsl )
  | Ir.Shr -> Some ( asr )
  | _ -> None

(* ---------- compiled-code runner ---------- *)

(* Block closures return the next block index, [-1] for a void return,
   [-2] for a value return (parked in the per-thread [st.tret] cell). *)
let run_blocks st (blocks : (st -> Value.t array -> int) array) frame =
  let rec go bi =
    let next = blocks.(bi) st frame in
    if next >= 0 then go next
    else if next = -1 then None
    else begin
      let v = st.tret in
      st.tret <- Value.Null;
      Some v
    end
  in
  go 0

let note_deopt reason =
  if Obs.Trace.on () then
    Obs.Trace.instant ~cat:"vm"
      ~args:[ ("reason", Obs.Tracer.Astr reason) ]
      "tier_deopt"

(* Entry wrapper of a compiled method: run the composed blocks and, on a
   guard failure, count the deopt, retire the method's compiled code at
   the limit, and resume tier-1 at the failed pc on the same frame. *)
let wrap_blocks (t : tier) mx blocks st frame =
  try run_blocks st blocks frame
  with Tier_deopt (dbi, dpc, reason) ->
    st.stats.Exec_stats.tier2_deopts <- st.stats.Exec_stats.tier2_deopts + 1;
    t.t_fail.(mx) <- t.t_fail.(mx) + 1;
    if t.t_fail.(mx) >= deopt_limit then t.t_code.(mx) <- T_dead;
    note_deopt reason;
    t.t_hooks.h_resume st mx frame dbi dpc

(* Deopt inside an inlined leaf callee: count it, then resume the
   *callee* in tier-1 from the failed pc; the caller's compiled code
   continues with the result. The callee's failure counter gates its
   inline fast path, so a chronically deopting leaf falls back to the
   normal call protocol without evicting the caller. *)
let deopt_inline t st midx frame bi pc reason =
  st.stats.Exec_stats.tier2_deopts <- st.stats.Exec_stats.tier2_deopts + 1;
  t.t_fail.(midx) <- t.t_fail.(midx) + 1;
  note_deopt reason;
  t.t_hooks.h_resume st midx frame bi pc

let compile_term (term : R.term) : st -> Value.t array -> int =
  match term with
  | R.Rret_void -> fun _ _ -> -1
  | R.Rret s ->
      fun st f ->
        st.tret <- f.(s);
        -2
  | R.Rjump t -> fun _ _ -> t
  | R.Rbranch (s, t, e) -> fun _ f -> if Value.truthy f.(s) then t else e
  | R.Rcmp_branch (op, x, y, t, e) ->
      let g = bin_fn op in
      let x = opfn x and y = opfn y in
      fun _ f -> if Value.truthy (g (x f) (y f)) then t else e

(* One compiled instruction: either bulk-chargeable straight-line work
   (step/mix accounting hoisted into the enclosing segment) or a
   self-charging action (guards, calls, delegations) that runs its own
   budget precheck so a deopt lands before its accounting. The two int
   payloads of [S_bulk]/[S_store] are the mix category and the
   intrinsic-dispatch contribution. [S_store] is a facade page access:
   it takes the run's page pool as a parameter instead of capturing it,
   so compiled code is store-independent — the enclosing segment
   resolves the pool once at entry (the only run-dependent state) and a
   warm tier can be shared across facade runs exactly like object-mode
   tiers. *)
type step =
  | S_bulk of (st -> Value.t array -> unit) * int * int
  | S_store of (Pagestore.Page_pool.t -> st -> Value.t array -> unit) * int * int
  | S_self of (st -> Value.t array -> unit)

(* ---------- the instruction templates ---------- *)

let rec compile_instr t (cst : st) mx ~depth bi pc (ins : R.instr) : step =
  let cat = R.category ins in
  let bulk f = S_bulk (f, cat, 0) in
  let bulk_s f = S_store (f, cat, 1) in
  let deleg () = S_self (fun st frame -> t.t_hooks.h_exec st mx frame ins) in
  match ins with
  | R.Rconst (d, v) -> bulk (fun _ f -> fs f d v)
  | R.Rmove (d, s) -> bulk (fun _ f -> fs f d (fg f s))
  | R.Rbinop (d, op, x, y) ->
      let g = bin_fn op in
      bulk (fun _ f -> fs f d (g (fg f x) (fg f y)))
  | R.Rbinop_imm (d, op, x, v) ->
      let g = bin_fn op in
      bulk (fun _ f -> fs f d (g (fg f x) v))
  | R.Rmul_add (d, x, y, z) ->
      bulk (fun _ f ->
          match fg f x, fg f y, fg f z with
          | Value.Int a, Value.Int b, Value.Int c -> fs f d (Value.Int ((a * b) + c))
          | vx, vy, vz -> fs f d (arith Ir.Add (arith Ir.Mul vx vy) vz))
  | R.Rmul_add_imm (d, x, v, z) -> (
      match v with
      | Value.Int k ->
          bulk (fun _ f ->
              match fg f x, fg f z with
              | Value.Int a, Value.Int c -> fs f d (Value.Int ((a * k) + c))
              | vx, vz -> fs f d (arith Ir.Add (arith Ir.Mul vx v) vz))
      | _ -> bulk (fun _ f -> fs f d (arith Ir.Add (arith Ir.Mul (fg f x) v) (fg f z))))
  | R.Rneg (d, s) ->
      bulk (fun _ f ->
          match fg f s with
          | Value.Int n -> fs f d (Value.Int (-n))
          | Value.Float x -> fs f d (Value.Float (-.x))
          | w -> vm_err "neg of %s" (Value.to_string w))
  | R.Rnot (d, s) ->
      bulk (fun _ f -> fs f d (Value.Int (if Value.truthy (fg f s) then 0 else 1)))
  | R.Rnew (d, cid) -> bulk (fun st f -> f.(d) <- alloc_obj st cid)
  | R.Rnew_array (d, na, len) ->
      bulk (fun st f -> f.(d) <- alloc_arr st na (as_int f.(len)))
  | R.Rfield_load (d, o, fid) ->
      bulk (fun st f ->
          match f.(o) with
          | Value.Obj ob -> f.(d) <- ob.Value.fields.(field_slot st ob fid)
          | Value.Null -> vm_err "NullPointerException: .%s" st.rp.R.field_names.(fid)
          | w -> vm_err "field load from %s" (Value.to_string w))
  | R.Rfield_store (o, fid, s) ->
      bulk (fun st f ->
          match f.(o) with
          | Value.Obj ob -> ob.Value.fields.(field_slot st ob fid) <- f.(s)
          | Value.Null -> vm_err "NullPointerException: .%s" st.rp.R.field_names.(fid)
          | w -> vm_err "field store to %s" (Value.to_string w))
  | R.Rstatic_load (d, g) -> bulk (fun st f -> f.(d) <- st.globals.(g))
  | R.Rstatic_store (g, s) -> bulk (fun st f -> st.globals.(g) <- f.(s))
  | R.Rarray_load (d, a, i) ->
      bulk (fun _ f ->
          match f.(a) with
          | Value.Arr arr ->
              let idx = as_int f.(i) in
              if idx < 0 || idx >= Array.length arr.Value.elems then
                vm_err "ArrayIndexOutOfBoundsException: %d" idx;
              f.(d) <- arr.Value.elems.(idx)
          | Value.Null -> vm_err "NullPointerException: array load"
          | w -> vm_err "array load from %s" (Value.to_string w))
  | R.Rarray_store (a, i, s) ->
      bulk (fun _ f ->
          match f.(a) with
          | Value.Arr arr ->
              let idx = as_int f.(i) in
              if idx < 0 || idx >= Array.length arr.Value.elems then
                vm_err "ArrayIndexOutOfBoundsException: %d" idx;
              arr.Value.elems.(idx) <- f.(s)
          | Value.Null -> vm_err "NullPointerException: array store"
          | w -> vm_err "array store to %s" (Value.to_string w))
  | R.Rarray_length (d, a) ->
      bulk (fun _ f ->
          match f.(a) with
          | Value.Arr arr -> f.(d) <- Value.Int (Array.length arr.Value.elems)
          | Value.Null -> vm_err "NullPointerException: array length"
          | w -> vm_err "length of %s" (Value.to_string w))
  | R.Rinstance_of (d, s, ts) ->
      bulk (fun st f -> f.(d) <- Value.Int (if instance_of st ts f.(s) then 1 else 0))
  | R.Rcast (d, s, ts) ->
      bulk (fun st f ->
          let v = f.(s) in
          (match v with
          | Value.Null -> ()
          | _ ->
              if not (instance_of st ts v) then
                vm_err "ClassCastException: %s to %s" (Value.to_string v)
                  (Jtype.to_string ts.R.t_ty));
          f.(d) <- v)
  (* ---- calls ---- *)
  | R.Rcall (ret, midx, recv, args) ->
      S_self (mk_call t cst ~depth bi pc cat ret midx recv args)
  | R.Rcall_virtual_ic (ret, mid, r, args, ic) ->
      (* Monomorphize against the warm IC snapshot; a cache still cold at
         compile time (path not yet taken) gets a guard against the live
         IC word instead, so it becomes a fast path once the interpreter
         fills it. *)
      if ic.R.ic_key < 0 then
        S_self (mk_virtual_dyn t cst mx bi pc ret mid r args ic ins)
      else S_self (mk_virtual_ic t cst mx ~depth bi pc ret mid r args ic ins)
  | R.Rcall_virtual _ -> deleg ()
  (* ---- monitors: the lock-contention deopt trigger. Contended regions
     always run in tier-1; after [deopt_limit] entries the method
     retires there for good. ---- *)
  | R.Rmonitor_enter _ | R.Rmonitor_exit _ ->
      S_self (fun _ _ -> raise (Tier_deopt (bi, pc, "monitor")))
  (* ---- IC-guarded field access: the guard reads the *live* IC word,
     so a site compiled cold warms up as soon as the interpreter fills
     its cache, and refills keep the fast path. A guard failure
     delegates the one instruction — the interpreter's miss path refills
     the cache and self-accounts, and the compiled code continues. ---- *)
  | R.Rfield_load_ic (d, o, _fid, ic) ->
      S_self
        (fun st f ->
          let stats = st.stats in
          if stats.Exec_stats.steps + 1 > st.max_steps then
            raise (Tier_deopt (bi, pc, "budget"));
          let key = ic.R.ic_key in
          match fg f o with
          | Value.Obj ob when key >= 0 && ob.Value.ocid = key lsr 20 ->
              stats.Exec_stats.steps <- stats.Exec_stats.steps + 1;
              stats.Exec_stats.mix.(cat) <- stats.Exec_stats.mix.(cat) + 1;
              Exec_stats.note_ic_hit stats mx;
              fs f d ob.Value.fields.(key land R.ic_payload_mask)
          | _ -> t.t_hooks.h_exec st mx f ins)
  | R.Rfield_store_ic (o, _fid, s, ic) ->
      S_self
        (fun st f ->
          let stats = st.stats in
          if stats.Exec_stats.steps + 1 > st.max_steps then
            raise (Tier_deopt (bi, pc, "budget"));
          let key = ic.R.ic_key in
          match fg f o with
          | Value.Obj ob when key >= 0 && ob.Value.ocid = key lsr 20 ->
              stats.Exec_stats.steps <- stats.Exec_stats.steps + 1;
              stats.Exec_stats.mix.(cat) <- stats.Exec_stats.mix.(cat) + 1;
              Exec_stats.note_ic_hit stats mx;
              ob.Value.fields.(key land R.ic_payload_mask) <- fg f s
          | _ -> t.t_hooks.h_exec st mx f ins)
  (* ---- offset-specialized page access (facade mode): each template
     resolves the backing page once and works relative to it ---- *)
  | R.Rget (d, a, p, off) -> (
      match cst.mode with
      | Object_mode -> deleg ()
      | Facade_mode _ -> (
          (* The hot widths get a direct body — the [pg_read]/[pg_write]
             closure call costs an indirect jump per access, which is
             most of what separates a compiled facade field access from
             an object-mode array load. *)
          match a with
          | R.A_f64 ->
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  fs f d (Value.Float (Page.read_f64 pg (Addr.offset_nn ad + off))))
          | R.A_i32 ->
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  fs f d (Value.of_int (Page.read_i32 pg (Addr.offset_nn ad + off))))
          | R.A_i64 ->
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  fs f d (Value.of_int (Page.read_i64 pg (Addr.offset_nn ad + off))))
          | _ ->
              let rd = pg_read a in
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  fs f d (rd pg (Addr.offset_nn ad + off)))))
  | R.Rset (a, p, off, src) -> (
      match cst.mode with
      | Object_mode -> deleg ()
      | Facade_mode _ -> (
          let src = opfn src in
          match a with
          | R.A_f64 ->
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  Page.write_f64 pg (Addr.offset_nn ad + off) (as_float (src f)))
          | R.A_i32 ->
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  Page.write_i32 pg (Addr.offset_nn ad + off) (as_int (src f)))
          | R.A_i64 ->
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  Page.write_i64 pg (Addr.offset_nn ad + off) (as_int (src f)))
          | _ ->
              let wr = pg_write a in
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  wr pg (Addr.offset_nn ad + off) (src f))))
  | R.Raget (d, a, p, eb, idx) -> (
      match cst.mode with
      | Object_mode -> deleg ()
      | Facade_mode _ -> (
          let idx = opfn idx in
          match a with
          | R.A_f64 ->
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  let b = Addr.offset_nn ad in
                  let i = as_int (idx f) in
                  if i < 0 || i >= Page.read_i32 pg (b + LR.length_offset) then
                    vm_err "ArrayIndexOutOfBoundsException: %d" i;
                  fs f d
                    (Value.Float
                       (Page.read_f64 pg (b + LR.array_header_bytes + (eb * i)))))
          | R.A_i32 ->
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  let b = Addr.offset_nn ad in
                  let i = as_int (idx f) in
                  if i < 0 || i >= Page.read_i32 pg (b + LR.length_offset) then
                    vm_err "ArrayIndexOutOfBoundsException: %d" i;
                  fs f d
                    (Value.of_int
                       (Page.read_i32 pg (b + LR.array_header_bytes + (eb * i)))))
          | R.A_i64 ->
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  let b = Addr.offset_nn ad in
                  let i = as_int (idx f) in
                  if i < 0 || i >= Page.read_i32 pg (b + LR.length_offset) then
                    vm_err "ArrayIndexOutOfBoundsException: %d" i;
                  fs f d
                    (Value.of_int
                       (Page.read_i64 pg (b + LR.array_header_bytes + (eb * i)))))
          | _ ->
              let rd = pg_read a in
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  let b = Addr.offset_nn ad in
                  let i = as_int (idx f) in
                  if i < 0 || i >= Page.read_i32 pg (b + LR.length_offset) then
                    vm_err "ArrayIndexOutOfBoundsException: %d" i;
                  fs f d (rd pg (b + LR.array_header_bytes + (eb * i))))))
  | R.Raset (a, p, eb, idx, src) -> (
      match cst.mode with
      | Object_mode -> deleg ()
      | Facade_mode _ -> (
          let idx = opfn idx and src = opfn src in
          match a with
          | R.A_f64 ->
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  let b = Addr.offset_nn ad in
                  let i = as_int (idx f) in
                  if i < 0 || i >= Page.read_i32 pg (b + LR.length_offset) then
                    vm_err "ArrayIndexOutOfBoundsException: %d" i;
                  Page.write_f64 pg
                    (b + LR.array_header_bytes + (eb * i))
                    (as_float (src f)))
          | R.A_i32 ->
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  let b = Addr.offset_nn ad in
                  let i = as_int (idx f) in
                  if i < 0 || i >= Page.read_i32 pg (b + LR.length_offset) then
                    vm_err "ArrayIndexOutOfBoundsException: %d" i;
                  Page.write_i32 pg
                    (b + LR.array_header_bytes + (eb * i))
                    (as_int (src f)))
          | R.A_i64 ->
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  let b = Addr.offset_nn ad in
                  let i = as_int (idx f) in
                  if i < 0 || i >= Page.read_i32 pg (b + LR.length_offset) then
                    vm_err "ArrayIndexOutOfBoundsException: %d" i;
                  Page.write_i64 pg
                    (b + LR.array_header_bytes + (eb * i))
                    (as_int (src f)))
          | _ ->
              let wr = pg_write a in
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  let b = Addr.offset_nn ad in
                  let i = as_int (idx f) in
                  if i < 0 || i >= Page.read_i32 pg (b + LR.length_offset) then
                    vm_err "ArrayIndexOutOfBoundsException: %d" i;
                  wr pg (b + LR.array_header_bytes + (eb * i)) (src f))))
  | R.Rget_bin (d, a, p, off, op, s) -> (
      match cst.mode with
      | Object_mode -> deleg ()
      | Facade_mode _ -> (
          let s = opfn s in
          match a, float_op op with
          | R.A_f64, Some g ->
              (* Unboxed load-op: no intermediate Value for the loaded
                 number; mixed operands fall back to [arith] so error
                 text matches tier-1. *)
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  let x = Page.read_f64 pg (Addr.offset_nn ad + off) in
                  fs f d
                    (match s f with
                    | Value.Float y -> Value.Float (g x y)
                    | Value.Int y -> Value.Float (g x (float_of_int y))
                    | v -> arith op (Value.Float x) v))
          | _ ->
              let rd = pg_read a in
              let g = bin_fn op in
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  fs f d (g (rd pg (Addr.offset_nn ad + off)) (s f)))))
  | R.Rrmw (a, p, off, op, s) -> (
      match cst.mode with
      | Object_mode -> deleg ()
      | Facade_mode _ -> (
          let s = opfn s in
          match a, float_op op, int_op op with
          | R.A_f64, Some g, _ ->
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  let b = Addr.offset_nn ad in
                  let x = Page.read_f64 pg (b + off) in
                  let y =
                    match s f with
                    | Value.Float y -> g x y
                    | Value.Int y -> g x (float_of_int y)
                    | v -> as_float (arith op (Value.Float x) v)
                  in
                  Page.write_f64 pg (b + off) y)
          | R.A_i64, _, Some g ->
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  let b = Addr.offset_nn ad in
                  let x = Page.read_i64 pg (b + off) in
                  let y =
                    match s f with
                    | Value.Int y -> g x y
                    | v -> as_int (arith op (Value.Int x) v)
                  in
                  Page.write_i64 pg (b + off) y)
          | _ ->
              let rd = pg_read a and wr = pg_write a in
              let g = bin_fn op in
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f p) in
                  let pg = Store.page_in pool ad in
                  let b = Addr.offset_nn ad in
                  wr pg (b + off) (g (rd pg (b + off)) (s f)))))
  | R.Raget_get (d, arr, eb, idx, a, off) -> (
      match cst.mode with
      | Object_mode -> deleg ()
      | Facade_mode _ -> (
          let idx = opfn idx in
          match a with
          | R.A_f64 ->
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f arr) in
                  let pg = Store.page_in pool ad in
                  let b = Addr.offset_nn ad in
                  let i = as_int (idx f) in
                  if i < 0 || i >= Page.read_i32 pg (b + LR.length_offset) then
                    vm_err "ArrayIndexOutOfBoundsException: %d" i;
                  let w = Page.read_i64 pg (b + LR.array_header_bytes + (eb * i)) in
                  let ad2 = addr_nn (Value.Int w) in
                  let pg2 = Store.page_in pool ad2 in
                  fs f d (Value.Float (Page.read_f64 pg2 (Addr.offset_nn ad2 + off))))
          | _ ->
              let rd = pg_read a in
              bulk_s (fun pool _ f ->
                  let ad = addr_nn (fg f arr) in
                  let pg = Store.page_in pool ad in
                  let b = Addr.offset_nn ad in
                  let i = as_int (idx f) in
                  if i < 0 || i >= Page.read_i32 pg (b + LR.length_offset) then
                    vm_err "ArrayIndexOutOfBoundsException: %d" i;
                  let w = Page.read_i64 pg (b + LR.array_header_bytes + (eb * i)) in
                  let ad2 = addr_nn (Value.Int w) in
                  let pg2 = Store.page_in pool ad2 in
                  fs f d (rd pg2 (Addr.offset_nn ad2 + off)))))
  | R.Raget_aget (d, a, arr1, eb1, idx, arr2, eb2) -> (
      match cst.mode with
      | Object_mode -> deleg ()
      | Facade_mode _ -> (
          let idx = opfn idx in
          match a with
          | R.A_i64 ->
              (* The ref-chasing shape ([edges[k]] indexing [verts]) is
                 the hottest superinstruction on the graph workloads. *)
              bulk_s (fun pool _ f ->
                  let ad1 = addr_nn (fg f arr1) in
                  let pg1 = Store.page_in pool ad1 in
                  let b1 = Addr.offset_nn ad1 in
                  let i = as_int (idx f) in
                  if i < 0 || i >= Page.read_i32 pg1 (b1 + LR.length_offset) then
                    vm_err "ArrayIndexOutOfBoundsException: %d" i;
                  let j = Page.read_i32 pg1 (b1 + LR.array_header_bytes + (eb1 * i)) in
                  let ad2 = addr_nn (fg f arr2) in
                  let pg2 = Store.page_in pool ad2 in
                  let b2 = Addr.offset_nn ad2 in
                  if j < 0 || j >= Page.read_i32 pg2 (b2 + LR.length_offset) then
                    vm_err "ArrayIndexOutOfBoundsException: %d" j;
                  fs f d
                    (Value.of_int
                       (Page.read_i64 pg2 (b2 + LR.array_header_bytes + (eb2 * j)))))
          | _ ->
              let rd = pg_read a in
              bulk_s (fun pool _ f ->
                  let ad1 = addr_nn (fg f arr1) in
                  let pg1 = Store.page_in pool ad1 in
                  let b1 = Addr.offset_nn ad1 in
                  let i = as_int (idx f) in
                  if i < 0 || i >= Page.read_i32 pg1 (b1 + LR.length_offset) then
                    vm_err "ArrayIndexOutOfBoundsException: %d" i;
                  let j = Page.read_i32 pg1 (b1 + LR.array_header_bytes + (eb1 * i)) in
                  let ad2 = addr_nn (fg f arr2) in
                  let pg2 = Store.page_in pool ad2 in
                  let b2 = Addr.offset_nn ad2 in
                  if j < 0 || j >= Page.read_i32 pg2 (b2 + LR.length_offset) then
                    vm_err "ArrayIndexOutOfBoundsException: %d" j;
                  fs f d (rd pg2 (b2 + LR.array_header_bytes + (eb2 * j))))))
  (* ---- everything stateful or rare runs through the interpreter,
     which self-accounts ---- *)
  | R.Riter_start | R.Riter_end | R.Rrun_thread _ | R.Rintrinsic _ | R.Rerror _ ->
      deleg ()

(* Static/special call: frame construction and return plumbing are the
   interpreter's, but the target runs through [mk_target] — compiled,
   inlined, or tiered as appropriate. *)
and mk_call t (cst : st) ~depth bi pc cat ret midx recv args =
  let m = cst.rp.R.methods.(midx) in
  let target = mk_target t cst ~depth midx in
  fun st frame ->
    let stats = st.stats in
    if stats.Exec_stats.steps + 1 > st.max_steps then
      raise (Tier_deopt (bi, pc, "budget"));
    stats.Exec_stats.steps <- stats.Exec_stats.steps + 1;
    stats.Exec_stats.mix.(cat) <- stats.Exec_stats.mix.(cat) + 1;
    stats.Exec_stats.static_dispatches <- stats.Exec_stats.static_dispatches + 1;
    let f = Array.copy m.R.m_frame in
    (match recv with Some s -> f.(0) <- frame.(s) | None -> ());
    Array.iteri (fun i s -> f.(i + 1) <- frame.(s)) args;
    store_ret frame ret (target st f)

(* Devirtualized call through a warm IC snapshot: the guard re-derives
   the receiver's class and compares it to the cached one. On a miss,
   CHA-monomorphic names delegate the single dispatch to the interpreter
   (the target cannot differ); polymorphic receivers deoptimize, and
   [deopt_limit] strikes retire the method. *)
and mk_virtual_ic t (cst : st) mx ~depth bi pc ret mid r args (ic : R.ic) ins =
  let key = ic.R.ic_key in
  let cid0 = key lsr 20 in
  let midx0 = key land R.ic_payload_mask in
  let m0 = cst.rp.R.methods.(midx0) in
  let mname = cst.rp.R.method_names.(mid) in
  let mono = t.t_mono.(mid) in
  let target = mk_target t cst ~depth midx0 in
  let cat = Exec_stats.cat_call_virtual in
  fun st frame ->
    let stats = st.stats in
    if stats.Exec_stats.steps + 1 > st.max_steps then
      raise (Tier_deopt (bi, pc, "budget"));
    let recv = frame.(r) in
    let cid =
      match recv with
      | Value.Obj o when o.Value.ocid >= 0 -> o.Value.ocid
      | _ -> ( try dispatch_cid st recv mname with Vm_error _ -> -1)
      (* A receiver with no runtime class re-raises from the slow path
         below with tier-1's exact accounting. *)
    in
    if cid = cid0 then begin
      stats.Exec_stats.steps <- stats.Exec_stats.steps + 1;
      stats.Exec_stats.mix.(cat) <- stats.Exec_stats.mix.(cat) + 1;
      stats.Exec_stats.virtual_dispatches <- stats.Exec_stats.virtual_dispatches + 1;
      Exec_stats.note_ic_hit stats mx;
      let f = Array.copy m0.R.m_frame in
      f.(0) <- recv;
      Array.iteri (fun i s -> f.(i + 1) <- frame.(s)) args;
      store_ret frame ret (target st f)
    end
    else if mono then t.t_hooks.h_exec st mx frame ins
    else raise (Tier_deopt (bi, pc, "polymorphic"))

(* Virtual call whose cache was cold at compile time: guard against the
   live IC word each execution. The first execution delegates (the
   interpreter's miss path fills the cache); after that, receivers
   matching the current cache dispatch through the tiered [h_call].
   Receivers that stop matching delegate when CHA says the target is
   unique, and deoptimize otherwise — same policy as the snapshot form,
   just without its pre-compiled leaf body. *)
and mk_virtual_dyn t (cst : st) mx bi pc ret mid r args (ic : R.ic) ins =
  let mname = cst.rp.R.method_names.(mid) in
  let mono = t.t_mono.(mid) in
  let cat = Exec_stats.cat_call_virtual in
  fun st frame ->
    let stats = st.stats in
    if stats.Exec_stats.steps + 1 > st.max_steps then
      raise (Tier_deopt (bi, pc, "budget"));
    let key = ic.R.ic_key in
    if key < 0 then t.t_hooks.h_exec st mx frame ins
    else begin
      let recv = fg frame r in
      let cid =
        match recv with
        | Value.Obj o when o.Value.ocid >= 0 -> o.Value.ocid
        | _ -> ( try dispatch_cid st recv mname with Vm_error _ -> -1)
      in
      if cid = key lsr 20 then begin
        stats.Exec_stats.steps <- stats.Exec_stats.steps + 1;
        stats.Exec_stats.mix.(cat) <- stats.Exec_stats.mix.(cat) + 1;
        stats.Exec_stats.virtual_dispatches <-
          stats.Exec_stats.virtual_dispatches + 1;
        Exec_stats.note_ic_hit stats mx;
        let midx = key land R.ic_payload_mask in
        let m = st.rp.R.methods.(midx) in
        let f = Array.copy m.R.m_frame in
        f.(0) <- recv;
        Array.iteri (fun i s -> f.(i + 1) <- frame.(s)) args;
        store_ret frame ret (t.t_hooks.h_call st midx f)
      end
      else if mono then t.t_hooks.h_exec st mx frame ins
      else raise (Tier_deopt (bi, pc, "polymorphic"))
    end

(* How a compiled call site reaches its (pre-resolved) target: leaf
   callees get their single block compiled eagerly and run on a fresh
   frame without touching the dispatch machinery; everything else goes
   through [h_call], i.e. the normal tier dispatch — so a hot callee
   runs its own compiled code. A deopt inside an inlined leaf is caught
   at the inline boundary and resumes the *callee* in tier-1. *)
and mk_target t (cst : st) ~depth midx : st -> Value.t array -> Value.t option =
  let m = cst.rp.R.methods.(midx) in
  if depth = 0 && t.t_leaves.(midx) && Array.length m.R.m_body > 0 then begin
    let blocks = compile_meth t cst midx m ~depth:(depth + 1) in
    fun st f ->
      if t.t_fail.(midx) < deopt_limit then begin
        Exec_stats.note_mcall st.stats midx;
        try run_blocks st blocks f
        with Tier_deopt (cbi, cpc, reason) -> deopt_inline t st midx f cbi cpc reason
      end
      else t.t_hooks.h_call st midx f
  end
  else fun st f -> t.t_hooks.h_call st midx f

and compile_meth t (cst : st) mx (m : R.meth) ~depth =
  Array.mapi (fun bi b -> compile_block t cst mx ~depth bi b) m.R.m_body

(* Pre-compose a basic block: compile each instruction, then fuse
   maximal runs of bulk-chargeable steps into segments whose accounting
   (step count, mix deltas, intrinsic dispatches) is precomputed and
   applied in O(1) per segment after a single budget precheck. *)
and compile_block t (cst : st) mx ~depth bi (b : R.block) : st -> Value.t array -> int =
  let code = b.R.code in
  let steps = Array.mapi (fun pc ins -> compile_instr t cst mx ~depth bi pc ins) code in
  let acts = ref [] in
  let group = ref [] in
  let group_start = ref 0 in
  let flush () =
    match !group with
    | [] -> ()
    | g ->
        let items = Array.of_list (List.rev g) in
        let k = Array.length items in
        let start_pc = !group_start in
        let mixd = Array.make (Array.length Exec_stats.mix_labels) 0 in
        let intr = ref 0 in
        Array.iter
          (function
            | S_bulk (_, c, i) | S_store (_, c, i) ->
                mixd.(c) <- mixd.(c) + 1;
                intr := !intr + i
            | S_self _ -> assert false)
          items;
        let intr = !intr in
        let mixp = ref [] in
        Array.iteri (fun c cnt -> if cnt > 0 then mixp := (c, cnt) :: !mixp) mixd;
        let mcats = Array.of_list (List.map fst !mixp) in
        let mcnts = Array.of_list (List.map snd !mixp) in
        let nm = Array.length mcats in
        let charge st =
          let stats = st.stats in
          if stats.Exec_stats.steps + k > st.max_steps then
            raise (Tier_deopt (bi, start_pc, "budget"));
          stats.Exec_stats.steps <- stats.Exec_stats.steps + k;
          for ci = 0 to nm - 1 do
            let c = Array.unsafe_get mcats ci in
            stats.Exec_stats.mix.(c) <-
              stats.Exec_stats.mix.(c) + Array.unsafe_get mcnts ci
          done;
          if intr > 0 then
            stats.Exec_stats.intrinsic_dispatches <-
              stats.Exec_stats.intrinsic_dispatches + intr
        in
        let act =
          if Array.exists (function S_store _ -> true | _ -> false) items then begin
            (* Facade segment: resolve the run's page pool once at
               segment entry — the only run-dependent state compiled
               code touches — and thread it through the fused
               accessors. Plain steps in the segment ignore it. *)
            let fns =
              Array.map
                (function
                  | S_store (f, _, _) -> f
                  | S_bulk (f, _, _) -> fun _ st frame -> f st frame
                  | S_self _ -> assert false)
                items
            in
            fun st frame ->
              charge st;
              let pool = Store.pool (the_rt st).store in
              for i = 0 to k - 1 do
                (Array.unsafe_get fns i) pool st frame
              done
          end
          else
            let fns =
              Array.map
                (function
                  | S_bulk (f, _, _) -> f | S_store _ | S_self _ -> assert false)
                items
            in
            fun st frame ->
              charge st;
              for i = 0 to k - 1 do
                (Array.unsafe_get fns i) st frame
              done
        in
        acts := act :: !acts;
        group := []
  in
  Array.iteri
    (fun pc s ->
      match s with
      | S_bulk _ | S_store _ ->
          if !group = [] then group_start := pc;
          group := s :: !group
      | S_self f ->
          flush ();
          acts := f :: !acts)
    steps;
  flush ();
  let actions = Array.of_list (List.rev !acts) in
  let term = compile_term b.R.term in
  match Array.length actions with
  | 0 -> term
  | 1 ->
      let a0 = actions.(0) in
      fun st frame ->
        a0 st frame;
        term st frame
  | n ->
      fun st frame ->
        for i = 0 to n - 1 do
          actions.(i) st frame
        done;
        term st frame

(* ---------- installation ---------- *)

(* Compile method [mx] and install it as [T_fn]; oversized or abstract
   methods retire to [T_dead]. Safe to race from several domains — both
   winners install semantically identical code, and any thread may run
   either tier at any moment, because correctness never depends on when
   (or whether) compilation happens. *)
let compile_into (t : tier) (cst : st) mx =
  match t.t_code.(mx) with
  | T_fn _ | T_dead -> ()
  | T_cold ->
      let m = cst.rp.R.methods.(mx) in
      if Array.length m.R.m_body = 0 || R.instr_count m > compile_limit then
        t.t_code.(mx) <- T_dead
      else begin
        let trace = Obs.Trace.on () in
        if trace then Obs.Trace.span_begin ~cat:"vm" "tier2_compile";
        let blocks = compile_meth t cst mx m ~depth:0 in
        cst.stats.Exec_stats.tier2_compiles <-
          cst.stats.Exec_stats.tier2_compiles + 1;
        if trace then
          Obs.Trace.span_end
            ~args:[ ("method", Obs.Tracer.Astr (m.R.m_cls ^ "." ^ m.R.m_name)) ]
            ();
        t.t_code.(mx) <- T_fn (wrap_blocks t mx blocks)
      end

(* ---------- tier construction ---------- *)

let leaf_safe_instr = function
  | R.Rcall _ | R.Rcall_virtual _ | R.Rcall_virtual_ic _ | R.Rmonitor_enter _
  | R.Rmonitor_exit _ | R.Riter_start | R.Riter_end | R.Rrun_thread _
  | R.Rerror _ ->
      false
  | _ -> true

let is_leaf (m : R.meth) ~budget =
  Array.length m.R.m_body = 1
  && R.instr_count m <= budget
  && Array.for_all leaf_safe_instr m.R.m_body.(0).R.code

let make ?(hot = 8) ?(feedback = no_feedback) ~hooks
    (rp : R.program) : tier =
  let nm = Array.length rp.R.methods in
  let nn = Array.length rp.R.method_names in
  (* CHA over the linked vtables: a method-name id with exactly one
     implementation across every class can miss its cache without
     invalidating the compiled caller — the miss delegates to the
     interpreter's dispatch instead of deoptimizing. (The flag only
     selects delegate-vs-deopt policy; both are sound, so the [lib/opt]
     feedback below is merged in without re-proof.) *)
  let impls = Array.make nn (-1) in
  Array.iter
    (fun (c : R.cls) ->
      Array.iteri
        (fun mid midx ->
          if midx >= 0 then
            match impls.(mid) with
            | -1 -> impls.(mid) <- midx
            | x when x = midx -> ()
            | _ -> impls.(mid) <- -2)
        c.R.c_vtable)
    rp.R.classes;
  let t_mono = Array.map (fun x -> x >= 0) impls in
  List.iter
    (fun name ->
      Array.iteri
        (fun mid n -> if String.equal n name then t_mono.(mid) <- true)
        rp.R.method_names)
    feedback.fb_mono;
  (* Leaf inlining candidates must pass the local structural test either
     way; the opt pipeline's inline decisions widen their budget. *)
  let fb_leaf = Hashtbl.create 8 in
  List.iter
    (fun (c, n) -> Hashtbl.replace fb_leaf (c ^ "." ^ n) ())
    feedback.fb_leaves;
  let t_leaves =
    Array.map
      (fun (m : R.meth) ->
        let budget =
          if Hashtbl.mem fb_leaf (m.R.m_cls ^ "." ^ m.R.m_name) then
            feedback_leaf_budget
          else leaf_budget
        in
        is_leaf m ~budget)
      rp.R.methods
  in
  {
    t_code = Array.make nm T_cold;
    t_calls = Array.make nm 0;
    t_fail = Array.make nm 0;
    t_threshold = max 1 hot;
    t_hooks = hooks;
    t_leaves;
    t_mono;
  }
