(* Wrappers the benchmark stacks over a registry TM's [M.T].

   [Guarded] is the stall guard: every attempt after the first checks
   how long the current operation has run and raises [Stalled] once it
   exceeds the bound.  It raises from [txn_begin], where the previous
   attempt has already aborted cleanly, so an abandoned operation
   leaves no transaction half-open.

   [Timed] is the traced run's probe: it times each call into the TM
   and keeps the totals, the fence samples and a bounded buffer of
   spans in memory, per thread.  Untraced runs never apply it. *)

open Tm_runtime

let now_ns = Tm_obs.Obs.now_ns

exception Stalled

(* Per-thread slots are spread [stride] ints apart so that two worker
   domains never write the same cache line. *)
let stride = 16

module type GUARDED = sig
  include Tm_intf.S

  val start_op : t -> thread:int -> int -> unit
  (** Arm the guard for a new operation started at the given time. *)
end

module Guarded (T : Tm_intf.S) : sig
  include GUARDED

  val wrap : bound_ns:int -> nthreads:int -> T.t -> t
end = struct
  type t = { tm : T.t; slots : int array; bound_ns : int }
  type txn = T.txn

  let name = T.name

  let wrap ~bound_ns ~nthreads tm =
    { tm; slots = Array.make (2 * stride * (nthreads + 1)) 0; bound_ns }

  let create ?recorder ~nregs ~nthreads () =
    wrap ~bound_ns:max_int ~nthreads (T.create ?recorder ~nregs ~nthreads ())

  let start_op g ~thread t0 =
    let i = 2 * stride * (thread + 1) in
    g.slots.(i) <- t0;
    g.slots.(i + 1) <- 0

  let txn_begin g ~thread =
    let i = 2 * stride * (thread + 1) in
    let attempts = g.slots.(i + 1) + 1 in
    g.slots.(i + 1) <- attempts;
    if attempts > 1 && now_ns () - g.slots.(i) > g.bound_ns then raise Stalled;
    T.txn_begin g.tm ~thread

  let read g txn x = T.read g.tm txn x
  let write g txn x v = T.write g.tm txn x v
  let commit g txn = T.commit g.tm txn
  let abort g txn = T.abort g.tm txn
  let read_nt g ~thread x = T.read_nt g.tm ~thread x
  let write_nt g ~thread x v = T.write_nt g.tm ~thread x v
  let fence g ~thread = T.fence g.tm ~thread
end

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

type call = Begin | Read | Write | Commit | Abort | Fence

let calls = [ Begin; Read; Write; Commit; Abort; Fence ]
let ncalls = 6

let call_index = function
  | Begin -> 0
  | Read -> 1
  | Write -> 2
  | Commit -> 3
  | Abort -> 4
  | Fence -> 5

let call_name = function
  | Begin -> "begin"
  | Read -> "read"
  | Write -> "write"
  | Commit -> "commit"
  | Abort -> "abort"
  | Fence -> "fence"

(* Span kinds beyond the TM calls: the [Atomic_block.run] retry loop
   and the whole operation (retry loop plus fence). *)
let span_atomic_block = ncalls
let span_op = ncalls + 1

let span_name k =
  if k = span_atomic_block then "atomic_block"
  else if k = span_op then "op"
  else call_name (List.nth calls k)

(* Spans kept per thread and window; the totals keep counting after
   the buffer is full. *)
let span_capacity = 4096

(* Log-linear histogram of nanosecond durations: exact below
   [2^sub_bits] ns, then [2^(sub_bits-1)] buckets per octave, so a
   bucket is at most 0.4 % wide.  Quantiles interpolate inside a
   bucket. *)
module Hist = struct
  let sub_bits = 9
  let sub = 1 lsl sub_bits
  let half = sub / 2
  let size = sub + (half * (63 - sub_bits))

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make size 0; n = 0 }

  let index v =
    if v < sub then max v 0
    else begin
      let e = ref 1 in
      while v lsr !e >= sub do
        incr e
      done;
      sub + ((!e - 1) * half) + ((v lsr !e) - half)
    end

  (* Lower bound and width of bucket [i]. *)
  let bounds i =
    if i < sub then (float_of_int i, 1.)
    else
      let e = ((i - sub) / half) + 1 and m = ((i - sub) mod half) + half in
      (float_of_int (m lsl e), float_of_int (1 lsl e))

  let add h v =
    let i = index v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.n <- h.n + 1

  let merge_into dst src =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.n <- dst.n + src.n

  (* The [q]-quantile in ns; 0 when empty. *)
  let quantile h q =
    if h.n = 0 then 0.
    else begin
      let rank = Float.max 1. (q *. float_of_int h.n) in
      let rec go i seen =
        let c = h.counts.(i) in
        if float_of_int (seen + c) >= rank || i = size - 1 then
          let lo, width = bounds i in
          lo +. (width *. (rank -. float_of_int seen) /. float_of_int (max c 1))
        else go (i + 1) (seen + c)
      in
      go 0 0
    end
end

type thread_trace = {
  count : int array;  (** calls per {!call} *)
  total_ns : int array;  (** time per {!call} *)
  fence_ns : Hist.t;  (** every fence duration *)
  mutable on : bool;  (** recording: the current op is measured *)
  mutable op_id : int;  (** current operation, the spans' parent *)
  span_kind : int array;
  span_op : int array;
  span_t0 : int array;
  span_t1 : int array;
  mutable spans : int;
}

let thread_trace () =
  {
    count = Array.make ncalls 0;
    total_ns = Array.make ncalls 0;
    fence_ns = Hist.create ();
    on = false;
    op_id = 0;
    span_kind = Array.make span_capacity 0;
    span_op = Array.make span_capacity 0;
    span_t0 = Array.make span_capacity 0;
    span_t1 = Array.make span_capacity 0;
    spans = 0;
  }

(* Time so far in the calls an [Atomic_block.run] makes, and in fences. *)
let in_block_ns tr =
  tr.total_ns.(0) + tr.total_ns.(1) + tr.total_ns.(2) + tr.total_ns.(3) + tr.total_ns.(4)

let fence_total_ns tr = tr.total_ns.(5)

let span tr kind t0 t1 =
  let i = tr.spans in
  if tr.on && i < span_capacity then begin
    tr.span_kind.(i) <- kind;
    tr.span_op.(i) <- tr.op_id;
    tr.span_t0.(i) <- t0;
    tr.span_t1.(i) <- t1;
    tr.spans <- i + 1
  end

let note tr call t0 =
  if tr.on then begin
  let t1 = now_ns () in
  let k = call_index call in
  tr.count.(k) <- tr.count.(k) + 1;
  tr.total_ns.(k) <- tr.total_ns.(k) + (t1 - t0);
  (match call with Fence -> Hist.add tr.fence_ns (t1 - t0) | _ -> ());
  span tr k t0 t1
  end

module Timed (T : Tm_intf.S) : sig
  include Tm_intf.S

  val wrap : thread_trace array -> T.t -> t
end = struct
  type t = { tm : T.t; traces : thread_trace array }
  type txn = { inner : T.txn; thread : int }

  let name = T.name
  let wrap traces tm = { tm; traces }

  let create ?recorder ~nregs ~nthreads () =
    wrap
      (Array.init nthreads (fun _ -> thread_trace ()))
      (T.create ?recorder ~nregs ~nthreads ())

  (* Calls that raise [Abort] are timed too: the attempt's cost up to
     the abort belongs to the TM layer. *)
  let timed tr call f =
    let t0 = now_ns () in
    match f () with
    | v ->
        note tr call t0;
        v
    | exception e ->
        note tr call t0;
        raise e

  let txn_begin g ~thread =
    let tr = g.traces.(thread) in
    let inner = timed tr Begin (fun () -> T.txn_begin g.tm ~thread) in
    { inner; thread }

  let read g txn x = timed g.traces.(txn.thread) Read (fun () -> T.read g.tm txn.inner x)

  let write g txn x v =
    timed g.traces.(txn.thread) Write (fun () -> T.write g.tm txn.inner x v)

  let commit g txn = timed g.traces.(txn.thread) Commit (fun () -> T.commit g.tm txn.inner)
  let abort g txn = timed g.traces.(txn.thread) Abort (fun () -> T.abort g.tm txn.inner)
  let read_nt g ~thread x = T.read_nt g.tm ~thread x
  let write_nt g ~thread x v = T.write_nt g.tm ~thread x v
  let fence g ~thread = timed g.traces.(thread) Fence (fun () -> T.fence g.tm ~thread)
end
