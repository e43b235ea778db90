type result = {
  centroids : float array array;
  assignments : int array;
}

(* A plain loop: no closure and no boxed float per term, in the same
   summation order, so centroids stay bit-identical. *)
let distance2 a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  !acc

let run ?(supersteps = 10) ~k config (points : Workloads.Points_gen.t) =
  if k <= 0 then invalid_arg "App_kmeans.run: k must be positive";
  Pregel.with_run config (fun c ->
      let pts = points.Workloads.Points_gen.points in
      let n = Array.length pts in
      let dims = points.Workloads.Points_gen.dims in
      Pregel.load_graph c ~vertices:n ~edges:0;
      (* Deterministic initial centroids: evenly spaced sample points. *)
      let centroids =
        Array.init k (fun i -> Array.copy pts.(i * max 1 (n / k) mod max 1 n))
      in
      let assignments = Array.make n 0 in
      for _ = 1 to supersteps do
        (* Assignment phase: one message per point to the master. *)
        for p = 0 to n - 1 do
          let best = ref 0 and best_d = ref infinity in
          for ci = 0 to k - 1 do
            let d = distance2 pts.(p) centroids.(ci) in
            if d < !best_d then begin
              best_d := d;
              best := ci
            end
          done;
          assignments.(p) <- !best
        done;
        (* Update phase: aggregate sums, recompute centroids. *)
        let sums = Array.init k (fun _ -> Array.make dims 0.0) in
        let counts = Array.make k 0 in
        for p = 0 to n - 1 do
          let a = assignments.(p) and pt = pts.(p) in
          counts.(a) <- counts.(a) + 1;
          let s = sums.(a) in
          for d = 0 to dims - 1 do s.(d) <- s.(d) +. pt.(d) done
        done;
        for ci = 0 to k - 1 do
          if counts.(ci) > 0 then
            let cen = centroids.(ci) and cnt = float_of_int counts.(ci) in
            for d = 0 to dims - 1 do cen.(d) <- sums.(ci).(d) /. cnt done
        done;
        Pregel.superstep c ~msgs:(n + (k * dims))
      done;
      { centroids; assignments })
