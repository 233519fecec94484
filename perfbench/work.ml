(* The benchmark's own operations: a sorted linked list laid out in
   registers and a bank with privatizable blocks.  They are generated
   here from the seed, not taken from [tm_workloads], so that a change
   to the library kernels cannot change a workload.

   Every operation is one [Atomic_block.run] followed by the fence the
   workload's [Fence_policy] asks for. *)

open Tm_runtime
open Layers

type shape = List_traversal | Bank_privatization

type spec = {
  name : string;
  shape : shape;
  domains : int;  (** busy worker domains in a window *)
  policy : Fence_policy.t;
  tm_share : float;  (** share of [--seconds] spent in TM windows *)
  prefix : int;  (** actions in each checked history prefix *)
}

(* ---- register layouts --------------------------------------------- *)

(* List: register 0 is the head; node [i] owns registers [1+3i]
   (key), [2+3i] (next) and [3+3i] (value).  Keys and next pointers
   are negative, so they never collide with the positive values
   [Recorder.fresh_value] hands out for unique writes: a key is
   [k - key_base], a next pointer to node [i] is [-(i+1)], and nil is
   the initial value 0. *)
let list_nodes = 32
let list_update_pct = 5
let key_base = 1 lsl 40
let head = 0
let key_reg i = 1 + (3 * i)
let next_reg i = 2 + (3 * i)
let value_reg i = 3 + (3 * i)

(* Bank: accounts [0, accounts) in blocks of [block_size]; block [b]'s
   flag is register [accounts + b], odd meaning privatized.  Block 0
   holds the hot account 0 and is never privatized. *)
let accounts = 64
let block_size = 8
let blocks = accounts / block_size
let flag_reg b = accounts + b
let initial_balance = 1000
(* Share of transfers into the hot account.  TLRW stalls ~0.5 ms when
   both workers hold a read lock on it and try to upgrade; at 20 % that
   hits a few percent of its ops and two stalls in a row stay well
   under 1 %, so [op_p99_us.tlrw] lies inside the one-stall mode.  At
   50 % two-stall ops were about 1 % and the p99 jumped between the
   modes from run to run. *)
let hot_pct = 20
let privatize_every = 64
let private_moves = 16

(* Recordings privatize from thread 0's first operation on and much
   more often, so that every checked prefix, a few hundred actions
   long, holds the idiom: flag transaction, fence, non-transactional
   moves, publish.  They always run two workers, so that the prefixes
   hold concurrent transactions of both threads. *)
let record_privatize_every = 4
let record_domains = 2

let nregs = function
  | List_traversal -> 1 + (3 * list_nodes)
  | Bank_privatization -> accounts + blocks

(* Sorted distinct even keys drawn from the seed.  Lookups pick a
   node uniformly and ask for its key or the odd key just above it, so
   the expected walk length is the same for every seed. *)
let list_keys ~seed =
  let rng = Random.State.make [| seed; 0x11 |] in
  let tbl = Hashtbl.create list_nodes in
  while Hashtbl.length tbl < list_nodes do
    Hashtbl.replace tbl (2 * (1 + Random.State.int rng (8 * list_nodes))) ()
  done;
  let ks = Array.of_seq (Hashtbl.to_seq_keys tbl) in
  Array.sort compare ks;
  ks

(* ---- per-worker counters ------------------------------------------ *)

type wstats = {
  mutable ops : int;  (** committed ops started while measuring *)
  mutable failed : int;  (** ops abandoned by the stall guard *)
  mutable retries : int;  (** aborted attempts of the committed ops *)
  mutable updates : int;  (** committed list updates, warm-up included *)
  lat : Hist.t;  (** op latency in ns, measured ops only *)
  mutable op_ns : int;  (** traced: total op time *)
  mutable ab_ns : int;  (** traced: total time in [Atomic_block.run] *)
  mutable unnested : int;
      (** traced: ops whose TM calls took longer than their
          [Atomic_block.run], or whose retry loop and fence took longer
          than the op *)
}

let wstats () =
  {
    ops = 0;
    failed = 0;
    retries = 0;
    updates = 0;
    lat = Hist.create ();
    op_ns = 0;
    ab_ns = 0;
    unnested = 0;
  }

(* Window phases, shared by main and workers. *)
let waiting = -1
let warming = 0
let measuring = 1
let stopped = 2

(* How written values are chosen: the arithmetic the checks rely on,
   or process-unique values when a recorder is attached (the checkers
   require unique writes). *)
type values = Plain | Fresh of Recorder.t

let rec fresh_with_parity r parity =
  let v = Recorder.fresh_value r in
  if v land 1 = parity then v else fresh_with_parity r parity

module Run (T : GUARDED) = struct
  module AB = Atomic_block.Make (T)

  type ctx = {
    g : T.t;
    thread : int;
    policy : Fence_policy.t;
    values : values;
    rng : Random.State.t;
    phase : int Atomic.t;
    w : wstats;
    trace : thread_trace option;
  }

  let value ctx v =
    match ctx.values with Plain -> v | Fresh r -> Recorder.fresh_value r

  let flag_value ctx ~privatized =
    match ctx.values with
    | Plain -> if privatized then 1 else 0
    | Fresh r -> fresh_with_parity r (if privatized then 1 else 0)

  (* One operation: the retry loop, then the policy's fence.  Returns
     whether it committed; the stall guard may abandon it. *)
  let run_op ctx ~requested body =
    let measured = Atomic.get ctx.phase = measuring in
    let t0 = now_ns () in
    T.start_op ctx.g ~thread:ctx.thread t0;
    let ab_span = ref 0 and fence0 = ref 0 in
    let outcome =
      match ctx.trace with
      | None -> ( try Some (AB.run ctx.g ~thread:ctx.thread body) with Stalled -> None)
      | Some tr ->
          tr.op_id <- tr.op_id + 1;
          tr.on <- measured;
          let in0 = in_block_ns tr in
          let a0 = now_ns () in
          let r = try Some (AB.run ctx.g ~thread:ctx.thread body) with Stalled -> None in
          let a1 = now_ns () in
          ab_span := a1 - a0;
          fence0 := fence_total_ns tr;
          if measured then begin
            ctx.w.ab_ns <- ctx.w.ab_ns + (a1 - a0);
            if in_block_ns tr - in0 > a1 - a0 then ctx.w.unnested <- ctx.w.unnested + 1
          end;
          span tr span_atomic_block a0 a1;
          r
    in
    (match outcome with
    | Some (wrote, retries) ->
        if Fence_policy.fence_after_txn ctx.policy ~read_only:(not wrote) ~requested
        then T.fence ctx.g ~thread:ctx.thread;
        if measured then begin
          ctx.w.ops <- ctx.w.ops + 1;
          ctx.w.retries <- ctx.w.retries + retries
        end
    | None -> if measured then ctx.w.failed <- ctx.w.failed + 1);
    let t1 = now_ns () in
    if measured then begin
      Hist.add ctx.w.lat (t1 - t0);
      match ctx.trace with
      | None -> ()
      | Some tr ->
          ctx.w.op_ns <- ctx.w.op_ns + (t1 - t0);
          if !ab_span + (fence_total_ns tr - !fence0) > t1 - t0 then
            ctx.w.unnested <- ctx.w.unnested + 1;
          span tr span_op t0 t1
    end;
    outcome <> None

  (* ---- list ---- *)

  let node_of_ptr p = -p - 1

  (* Walk from the head to the first node whose key is >= [key]. *)
  let find g txn key =
    let rec go p =
      if p = 0 then -1
      else
        let i = node_of_ptr p in
        if T.read g txn (key_reg i) >= key then i else go (T.read g txn (next_reg i))
    in
    go (T.read g txn head)

  let list_op ctx keys =
    let g = ctx.g in
    if Random.State.int ctx.rng 100 < list_update_pct then begin
      let i = Random.State.int ctx.rng list_nodes in
      let key = keys.(i) - key_base in
      let committed =
        run_op ctx ~requested:false (fun txn ->
            let j = find g txn key in
            if j < 0 || T.read g txn (key_reg j) <> key then false
            else begin
              let v = T.read g txn (value_reg j) in
              T.write g txn (value_reg j) (value ctx (v + 1));
              true
            end)
      in
      if committed then ctx.w.updates <- ctx.w.updates + 1
    end
    else begin
      let i = Random.State.int ctx.rng list_nodes in
      let key = keys.(i) + Random.State.int ctx.rng 2 - key_base in
      ignore
        (run_op ctx ~requested:false (fun txn ->
             let j = find g txn key in
             if j >= 0 then ignore (T.read g txn (value_reg j));
             false))
    end

  let prepare_list g ~seed =
    let keys = list_keys ~seed in
    T.write_nt g ~thread:0 head (-1);
    Array.iteri
      (fun i k ->
        T.write_nt g ~thread:0 (key_reg i) (k - key_base);
        if i + 1 < list_nodes then T.write_nt g ~thread:0 (next_reg i) (-(i + 2)))
      keys

  (* The list is still sorted, with its length unchanged, and its
     value fields sum to the committed updates. *)
  let check_list g ~updates =
    let rec walk p prev n sum =
      if p = 0 then Ok (n, sum)
      else
        let i = node_of_ptr p in
        let k = T.read_nt g ~thread:0 (key_reg i) in
        if k <= prev then Error (Printf.sprintf "list unsorted at node %d" i)
        else
          walk
            (T.read_nt g ~thread:0 (next_reg i))
            k (n + 1)
            (sum + T.read_nt g ~thread:0 (value_reg i))
    in
    match walk (T.read_nt g ~thread:0 head) min_int 0 0 with
    | Error e -> Some e
    | Ok (n, _) when n <> list_nodes ->
        Some (Printf.sprintf "list length %d, expected %d" n list_nodes)
    | Ok (_, sum) when sum <> updates ->
        Some (Printf.sprintf "list values sum to %d, %d updates committed" sum updates)
    | Ok _ -> None

  (* ---- bank ---- *)

  let block_of a = a / block_size
  let privatized v = v land 1 = 1

  let transfer ctx =
    let g = ctx.g and rng = ctx.rng in
    let pick () = Random.State.int rng accounts in
    let src, dst =
      if Random.State.int rng 100 < hot_pct then (1 + Random.State.int rng (accounts - 1), 0)
      else
        let a = pick () in
        let rec other () = let b = pick () in if b = a then other () else b in
        (a, other ())
    in
    let amt = 1 + Random.State.int rng 10 in
    let bs = block_of src and bd = block_of dst in
    ignore
      (run_op ctx ~requested:false (fun txn ->
           let free b = not (privatized (T.read g txn (flag_reg b))) in
           if free bs && (bs = bd || free bd) then begin
             let vs = T.read g txn src in
             let vd = T.read g txn dst in
             T.write g txn src (value ctx (vs - amt));
             T.write g txn dst (value ctx (vd + amt));
             true
           end
           else false))

  (* Retried until it commits or the window stops; a block left
     privatized is skipped by transfers and keeps the balance check
     valid. *)
  let rec publish ctx b =
    let g = ctx.g in
    if
      (not
         (run_op ctx ~requested:false (fun txn ->
              T.write g txn (flag_reg b) (flag_value ctx ~privatized:false);
              true)))
      && Atomic.get ctx.phase < stopped
    then publish ctx b

  (* The paper's idiom: a flag transaction, the fence it requests,
     non-transactional moves inside the block, then a publish. *)
  let privatize ctx =
    let g = ctx.g and rng = ctx.rng and thread = ctx.thread in
    let b = 1 + Random.State.int rng (blocks - 1) in
    let flagged =
      run_op ctx ~requested:true (fun txn ->
          ignore (T.read g txn (flag_reg b));
          T.write g txn (flag_reg b) (flag_value ctx ~privatized:true);
          true)
    in
    if flagged then begin
      for _ = 1 to private_moves do
        let a = (b * block_size) + Random.State.int rng block_size in
        let c = (b * block_size) + Random.State.int rng block_size in
        let m = Random.State.int rng 50 in
        let va = T.read_nt g ~thread a in
        T.write_nt g ~thread a (value ctx (va - m));
        let vc = T.read_nt g ~thread c in
        T.write_nt g ~thread c (value ctx (vc + m))
      done;
      publish ctx b
    end

  let prepare_bank g =
    for a = 0 to accounts - 1 do
      T.write_nt g ~thread:0 a initial_balance
    done

  (* Total balance is conserved, including the moves made inside
     privatized blocks; a fence that lets a transaction write back
     after privatization shows up as lost money. *)
  let check_bank g =
    let sum = ref 0 in
    for a = 0 to accounts - 1 do
      sum := !sum + T.read_nt g ~thread:0 a
    done;
    let expected = accounts * initial_balance in
    if !sum <> expected then
      Some (Printf.sprintf "total balance %d, expected %d" !sum expected)
    else None

  (* ---- drivers ---- *)

  let prepare spec g ~seed ~values =
    match (spec.shape, values) with
    | List_traversal, _ -> prepare_list g ~seed
    | Bank_privatization, Plain -> prepare_bank g
    | Bank_privatization, Fresh _ -> ()

  let step spec ctx ~keys ~every ~n =
    match spec.shape with
    | List_traversal -> list_op ctx keys
    | Bank_privatization ->
        if ctx.thread = 0 && n mod every = 0 then privatize ctx else transfer ctx

  (* A worker: run operations until the window stops. *)
  let worker spec ctx ~keys =
    let n = ref 0 in
    while Atomic.get ctx.phase < stopped do
      step spec ctx ~keys ~every:privatize_every ~n:!n;
      incr n
    done

  (* A recording worker: a fixed number of operations. *)
  let record_worker spec ctx ~keys ~ops =
    for n = 0 to ops - 1 do
      step spec ctx ~keys ~every:record_privatize_every ~n
    done
end
