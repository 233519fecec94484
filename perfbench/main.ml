(* The repository's benchmark of record.

   One run: set up every TM several times (and record the histories
   to check), measure the five production TMs in windows interleaved
   round by round, then check recorded history prefixes for DRF,
   strong opacity and with the online monitor.  The last line of
   standard output is the JSON result; see README.md for the
   workloads, the metrics and the layer each one loads. *)

open Tm_model
open Tm_runtime
open Layers
open Work
module Obs = Tm_obs.Obs

let tms = [ "tl2"; "tl2-epoch"; "norec"; "tlrw"; "lock" ]

let specs =
  [
    {
      name = "read-mostly";
      shape = List_traversal;
      domains = 1;
      policy = Fence_policy.Selective;
      tm_share = 0.85;
      prefix = 400;
    };
    {
      name = "privatize-hot";
      shape = Bank_privatization;
      domains = 2;
      policy = Fence_policy.Conservative;
      tm_share = 0.85;
      prefix = 400;
    };
    {
      name = "verify-history";
      shape = Bank_privatization;
      domains = 2;
      policy = Fence_policy.Selective;
      tm_share = 0.4;
      prefix = 800;
    };
  ]

(* An operation still uncommitted after this long is abandoned.  It
   is far above healthy latency: TL2 starving on a hot register has
   been seen retrying 2,000 times in a row, about 10 ms. *)
let stall_bound_ns = 500_000_000

let rounds = 16
let setups = 9
let min_checks = 3

(* The traced run's self-times (TM calls, the retry loop's own time,
   fences) must cover the measured op time to within this share. *)
let self_time_tolerance = 0.10

let secs ns = float_of_int ns *. 1e-9

let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, secs (now_ns () - t0))

(* ---- statistics ---------------------------------------------------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* ---- windows ------------------------------------------------------- *)

(* Spawn the workers, let them all arrive, warm up, then measure.
   Domain spawns and joins stay outside the timed window; the main
   domain sleeps while the workers run. *)
let window ~domains ~warmup ~measure ~init ~work =
  let phase = Atomic.make waiting and ready = Atomic.make 0 in
  let ds =
    Array.init domains (fun thread ->
        Domain.spawn (fun () ->
            let w = wstats () in
            init ~thread;
            Atomic.incr ready;
            while Atomic.get phase = waiting do
              Domain.cpu_relax ()
            done;
            work ~thread ~phase w;
            w))
  in
  while Atomic.get ready < domains do
    Unix.sleepf 1e-4
  done;
  Atomic.set phase warming;
  Unix.sleepf warmup;
  Atomic.set phase measuring;
  let t0 = now_ns () in
  Unix.sleepf measure;
  Atomic.set phase stopped;
  let t1 = now_ns () in
  let ws = Array.map Domain.join ds in
  (secs (t1 - t0), ws)

type window_out = {
  seconds : float;
  ws : wstats array;
  traces : thread_trace array option;
  commits : int;  (** from [M.snapshot] *)
  aborts : (Obs.abort_cause * int) list;  (** from [M.snapshot] *)
}

type runner = {
  tm_name : string;
  setup : unit -> unit;
  run_window : round:int -> traced:bool -> warmup:float -> measure:float -> window_out;
  check : unit -> string option;
}

let runner spec ~seed ~index (entry : Tm_registry.entry) =
  let module M = (val entry.tm) in
  let module G = Guarded (M.T) in
  let module U = Run (G) in
  let module TT = Timed (M.T) in
  let module GT = Guarded (TT) in
  let module R = Run (GT) in
  let keys = list_keys ~seed in
  let inst = ref None and updates = ref 0 in
  let get () = Option.get !inst in
  let guard tm = G.wrap ~bound_ns:stall_bound_ns ~nthreads:2 tm in
  let setup () =
    let tm = M.make ~nregs:(nregs spec.shape) ~nthreads:2 () in
    U.prepare spec (guard tm) ~seed ~values:Plain;
    inst := Some tm;
    updates := 0
  in
  let run_window ~round ~traced ~warmup ~measure =
    let tm = get () in
    let before = M.snapshot tm in
    (* Workers replace these with trace buffers of their own. *)
    let traces = if traced then Array.make 2 (thread_trace ()) else [||] in
    let plain = guard tm in
    let timed = GT.wrap ~bound_ns:stall_bound_ns ~nthreads:2 (TT.wrap traces tm) in
    let rng thread = Random.State.make [| seed; round; index; thread |] in
    let init ~thread = if traced then traces.(thread) <- thread_trace () in
    let work ~thread ~phase w =
      if traced then
        R.worker spec
          {
            R.g = timed;
            thread;
            policy = spec.policy;
            values = Plain;
            rng = rng thread;
            phase;
            w;
            trace = Some traces.(thread);
          }
          ~keys
      else
        U.worker spec
          {
            U.g = plain;
            thread;
            policy = spec.policy;
            values = Plain;
            rng = rng thread;
            phase;
            w;
            trace = None;
          }
          ~keys
    in
    let seconds, ws = window ~domains:spec.domains ~warmup ~measure ~init ~work in
    Array.iter (fun w -> updates := !updates + w.updates) ws;
    let after = M.snapshot tm in
    {
      seconds;
      ws;
      traces = (if traced then Some (Array.sub traces 0 spec.domains) else None);
      commits = after.Obs.s_commits - before.Obs.s_commits;
      aborts =
        List.map
          (fun c -> (c, Obs.abort_count after c - Obs.abort_count before c))
          Obs.abort_causes;
    }
  in
  let check () =
    let g = guard (get ()) in
    match spec.shape with
    | List_traversal -> U.check_list g ~updates:!updates
    | Bank_privatization -> U.check_bank g
  in
  { tm_name = entry.name; setup; run_window; check }

(* ---- recorded histories -------------------------------------------- *)

let tl2 = Tm_registry.find_exn "tl2"

(* Every workload checks prefixes of the bank idiom, fenced as the
   workload fences.  [read-mostly] has no checking of its own; a
   300-action list prefix holds only two or three traversals, and its
   checking rate varied from 1,000 to 3,700 actions/s with their
   lengths. *)
let recorded spec = { spec with shape = Bank_privatization }

(* Rough TM actions per bank operation, to size a recording. *)
let actions_per_op = 16

type recording = {
  history : History.t;  (** the checked prefix *)
  worker_ops : int;  (** ops each worker ran *)
  history_s : float;  (** [Recorder.history] *)
}

(* Run [ops] operations on each of [record_domains] workers on a fresh
   tl2 instance, with a recorder attached when [values] is [Fresh].
   Returns the seconds between the start signal and the last join. *)
let run_ops spec ~seed ~rep ~ops ~values =
  let module M = (val tl2.tm) in
  let module G = Guarded (M.T) in
  let module U = Run (G) in
  let recorder = match values with Fresh r -> Some r | Plain -> None in
  let tm = M.make ?recorder ~nregs:(nregs spec.shape) ~nthreads:2 () in
  let g = G.wrap ~bound_ns:stall_bound_ns ~nthreads:2 tm in
  U.prepare spec g ~seed ~values;
  let keys = list_keys ~seed in
  let go = Atomic.make false and ready = Atomic.make 0 in
  let ds =
    Array.init record_domains (fun thread ->
        Domain.spawn (fun () ->
            let ctx =
              {
                U.g;
                thread;
                policy = spec.policy;
                values;
                rng = Random.State.make [| seed; rep; 0x7ec; thread |];
                phase = Atomic.make warming;
                w = wstats ();
                trace = None;
              }
            in
            Atomic.incr ready;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            U.record_worker spec ctx ~keys ~ops))
  in
  while Atomic.get ready < record_domains do
    Domain.cpu_relax ()
  done;
  let t0 = now_ns () in
  Atomic.set go true;
  Array.iter Domain.join ds;
  secs (now_ns () - t0)

(* Cut a history to [n] actions, one fewer if that would leave a
   request unanswered at the end (a non-transactional access must be
   answered at once). *)
let prefix h n =
  let n = min n (History.length h) in
  let n = if Action.is_request (History.get h (n - 1)) then n - 1 else n in
  History.of_list (List.filteri (fun i _ -> i < n) (History.to_list h))

(* What a checked prefix must hold for its checks to bite: transactions
   of both threads, a non-transactional access (a race needs one) and a
   fence.  In a recording the only non-transactional accesses are the
   privatized moves. *)
let coverage_problems h =
  let info = History.analyze h in
  let txn_threads =
    List.sort_uniq compare (Array.to_list (Array.map (fun t -> t.History.t_thread) info.txns))
  in
  let fences = List.length (List.filter (fun a -> a.Action.kind = Action.Request Action.Fbegin) (History.to_list h)) in
  List.concat
    [
      (if List.length txn_threads >= record_domains then []
       else [ Printf.sprintf "prefix has transactions of %d thread(s)" (List.length txn_threads) ]);
      (if Array.length info.accesses > 0 then [] else [ "prefix has no non-transactional access" ]);
      (if fences > 0 then [] else [ "prefix has no fence" ]);
    ]

(* Record the bank idiom on tl2 with unique written values,
   growing the op count until the history covers the prefix.  A
   recording whose prefix misses part of the idiom (one worker ran
   alone while the other was descheduled) is made again, at most
   [record_tries] times; [verify] reports a prefix that still misses
   it. *)
let record_tries = 5

let record spec ~seed ~rep =
  let rec attempt ops tries =
    let r = Recorder.create () in
    ignore (run_ops spec ~seed ~rep ~ops ~values:(Fresh r));
    let h, history_s = time (fun () -> Recorder.history r) in
    if History.length h <= spec.prefix then attempt (2 * ops) tries
    else
      let p = prefix h spec.prefix in
      match coverage_problems p with
      | e :: _ when tries > 1 ->
          Printf.eprintf "recording redone: %s\n%!" e;
          attempt ops (tries - 1)
      | _ -> { history = p; worker_ops = ops; history_s }
  in
  attempt (1 + (spec.prefix / (actions_per_op * record_domains))) record_tries

type verified = {
  actions : int;
  relations_s : float;
  drf_s : float;
  checker_s : float;
  monitor_s : float;
  problems : string list;
}

let verify h =
  let rel, relations_s = time (fun () -> Tm_relations.Relations.of_history h) in
  let drf, drf_s = time (fun () -> Tm_relations.Race.is_drf rel) in
  let verdict, checker_s = time (fun () -> Tm_opacity.Checker.check h) in
  let monitor, monitor_s = time (fun () -> Tm_opacity.Monitor.check h) in
  let problems =
    List.concat
      [
        List.map (fun e -> "recorded prefix misses the idiom: " ^ e) (coverage_problems h);
        (if drf then [] else [ "recorded history has a data race" ]);
        (if Tm_opacity.Checker.is_opaque verdict then []
         else
           [ Format.asprintf "recorded history not strongly opaque: %a" Tm_opacity.Checker.pp_verdict verdict ]);
        (match monitor with
        | Tm_opacity.Monitor.Ok -> []
        | v -> [ Format.asprintf "monitor verdict: %a" Tm_opacity.Monitor.pp_verdict v ]);
      ]
  in
  { actions = History.length h; relations_s; drf_s; checker_s; monitor_s; problems }

let verify_s v = v.relations_s +. v.drf_s +. v.checker_s +. v.monitor_s

(* ---- registry dispatch --------------------------------------------- *)

(* A one-read transaction through the registry's first-class module,
   minus the same transaction on [Tl2] called directly; medians of
   interleaved repetitions, in ns. *)
let dispatch_ns () =
  let module M = (val tl2.tm) in
  let via_registry = M.make ~nregs:1 ~nthreads:1 () in
  let direct = Tl2.create_with ~nregs:1 ~nthreads:1 () in
  let iters = 200_000 in
  let registry () =
    let t0 = now_ns () in
    for _ = 1 to iters do
      let txn = M.T.txn_begin via_registry ~thread:0 in
      ignore (M.T.read via_registry txn 0);
      M.T.commit via_registry txn
    done;
    float_of_int (now_ns () - t0) /. float_of_int iters
  in
  let plain () =
    let t0 = now_ns () in
    for _ = 1 to iters do
      let txn = Tl2.txn_begin direct ~thread:0 in
      ignore (Tl2.read direct txn 0);
      Tl2.commit direct txn
    done;
    float_of_int (now_ns () - t0) /. float_of_int iters
  in
  ignore (registry ());
  ignore (plain ());
  median
    (List.init 9 (fun i ->
         if i mod 2 = 0 then
           let r = registry () in
           r -. plain ()
         else
           let p = plain () in
           registry () -. p))

(* ---- output -------------------------------------------------------- *)

type metric = { mname : string; unit_ : string; value : float }

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let json_string s = "\"" ^ Tm_obs.Json.escape s ^ "\""

let provenance ~spec ~seed ~trace ~git_rev ~flambda =
  let env k = match Sys.getenv_opt k with Some v -> json_string v | None -> "null" in
  Printf.sprintf
    "{\"workload\": %s, \"seed\": %d, \"trace\": %b, \"host_cores\": %d, \
     \"ocaml_version\": %s, \"flambda\": %s, \"git_rev\": %s, \"OBS\": %s, \
     \"PARALLEL\": %s, \"OCAMLRUNPARAM\": %s, \"span_timers\": %b, \"stall_bound_ms\": %d}"
    (json_string spec.name) seed trace
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version) (json_string flambda) (json_string git_rev)
    (env "OBS") (env "PARALLEL") (env "OCAMLRUNPARAM") (Obs.timers_enabled ())
    (stall_bound_ns / 1_000_000)

(* Chrome trace_event JSON of the kept spans, one process per TM. *)
let write_trace ~path ~provenance (kept : (string * thread_trace array) list) =
  let oc = open_out path in
  Printf.fprintf oc "{\"metadata\": %s,\n\"traceEvents\": [\n" provenance;
  let first = ref true in
  List.iteri
    (fun pid (tm, trs) ->
      Printf.fprintf oc "%s{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"args\": {\"name\": %s}}"
        (if !first then "" else ",\n") pid (json_string tm);
      first := false;
      Array.iteri
        (fun tid tr ->
          for i = 0 to tr.spans - 1 do
            Printf.fprintf oc
              ",\n{\"name\": %s, \"ph\": \"X\", \"pid\": %d, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %d}}"
              (json_string (span_name tr.span_kind.(i)))
              pid tid
              (float_of_int tr.span_t0.(i) /. 1e3)
              (float_of_int (tr.span_t1.(i) - tr.span_t0.(i)) /. 1e3)
              tr.span_op.(i)
          done)
        trs)
    kept;
  output_string oc "\n]}\n";
  close_out oc

(* ---- main ---------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let git_rev = ref "unknown" and flambda = ref "unknown" and out_dir = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME read-mostly | privatize-hot | verify-history");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--git-rev", Arg.Set_string git_rev, "REV provenance: source revision");
      ("--flambda", Arg.Set_string flambda, "BOOL provenance: compiler flambda setting");
      ("--out-dir", Arg.Set_string out_dir, "DIR where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match List.find_opt (fun s -> s.name = !workload) specs with
    | Some s -> s
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  let seed = !seed and traced = !trace = 1 in
  let provenance =
    provenance ~spec ~seed ~trace:traced ~git_rev:!git_rev ~flambda:!flambda
  in
  Printf.printf "provenance: %s\n%!" provenance;
  let problems = ref [] in
  let problem msg =
    prerr_endline ("CHECK FAILED: " ^ msg);
    problems := msg :: !problems
  in
  let runners =
    List.mapi (fun index name -> runner spec ~seed ~index (Tm_registry.find_exn name)) tms
  in
  (* Set-up, repeated: every TM instance plus one recorded history. *)
  let recordings = ref [] in
  let setup_times =
    List.init setups (fun rep ->
        snd
          (time (fun () ->
               List.iter (fun d -> d.setup ()) runners;
               recordings := record (recorded spec) ~seed ~rep :: !recordings)))
  in
  let recordings = List.rev !recordings in
  Printf.eprintf "set-up done: %s s\n%!" (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times));
  (* TM windows, interleaved round by round; the starting TM rotates. *)
  let ntms = List.length runners in
  let per_window = spec.tm_share *. !seconds /. float_of_int (rounds * ntms) in
  let kinds = if traced then [ `Timers_on; `Timers_off; `Traced ] else [ `Plain ] in
  let measure = per_window /. float_of_int (List.length kinds) in
  let warmup = 0.02 +. (measure /. 10.) in
  let results = Hashtbl.create 64 in
  let default_timers = Obs.timers_enabled () in
  (* Checking takes [(1 - tm_share) * seconds], spread over the rounds
     so that it samples the host's speed across the whole run like the
     windows do; at least [min_checks] prefixes, taken in turn. *)
  let budget = (1. -. spec.tm_share) *. !seconds in
  let checks = ref [] and spent = ref 0. and pending = ref [] in
  let check_next () =
    if !pending = [] then pending := recordings;
    match !pending with
    | [] -> ()
    | r :: rest ->
        pending := rest;
        let v = verify r.history in
        Printf.eprintf "checked %d actions: relations %.3f s, drf %.3f s, checker %.3f s, monitor %.3f s\n%!"
          v.actions v.relations_s v.drf_s v.checker_s v.monitor_s;
        checks := v :: !checks;
        spent := !spent +. verify_s v
  in
  for round = 0 to rounds - 1 do
    for i = 0 to ntms - 1 do
      let d = List.nth runners ((i + round) mod ntms) in
      List.iter
        (fun kind ->
          if traced then Obs.set_timers_enabled (kind <> `Timers_off);
          let out = d.run_window ~round ~traced:(kind = `Traced) ~warmup ~measure in
          Obs.set_timers_enabled default_timers;
          Option.iter (fun e -> problem (Printf.sprintf "%s: %s" d.tm_name e)) (d.check ());
          Hashtbl.add results (d.tm_name, kind) out)
        kinds
    done;
    let target = budget *. float_of_int (round + 1) /. float_of_int rounds in
    if !spent < target then begin
      while !spent < target do
        check_next ()
      done;
      (* Collect the checkers' garbage before the next windows. *)
      Gc.full_major ()
    end
  done;
  while List.length !checks < min_checks do
    check_next ()
  done;
  List.iter
    (fun r ->
      match History.well_formedness_errors r.history with
      | [] -> ()
      | e :: _ -> problem ("recorded history ill-formed: " ^ e))
    recordings;
  List.iter (fun v -> List.iter problem v.problems) !checks;
  let checks = !checks in
  (* Metrics.  The end-to-end rates and p99s are medians over the
     rounds of a TM's per-window values, and the checking rate a median
     over the checks: the host's speed changes within a run, and a
     median ignores the few windows it disturbs most. *)
  let outs tm kind = Hashtbl.find_all results (tm, kind) in
  let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs in
  let ws_of os = List.concat_map (fun o -> Array.to_list o.ws) os in
  let ops_of os = sum (fun w -> w.ops) (ws_of os) in
  let seconds_of os = List.fold_left (fun a o -> a +. o.seconds) 0. os in
  let rate os = float_of_int (ops_of os) /. seconds_of os in
  let ns_per_op os = seconds_of os *. float_of_int spec.domains *. 1e9 /. float_of_int (max 1 (ops_of os)) in
  let hist_of hs =
    let h = Hist.create () in
    List.iter (Hist.merge_into h) hs;
    h
  in
  let latency os q = Hist.quantile (hist_of (List.map (fun w -> w.lat) (ws_of os))) q /. 1e3 in
  let round_median f os = median (List.map (fun o -> f [ o ]) os) in
  let round_rate = round_median rate in
  let round_p99 = round_median (fun os -> latency os 0.99) in
  let main_kind = if traced then `Timers_on else `Plain in
  let all_ws = Hashtbl.fold (fun _ o acc -> Array.to_list o.ws @ acc) results [] in
  let attempted = sum (fun w -> w.ops + w.failed) all_ws in
  let failed = sum (fun w -> w.failed) all_ws in
  let failed_share = float_of_int failed /. float_of_int (max 1 attempted) in
  let m mname unit_ value = { mname; unit_; value } in
  let checked = sum (fun v -> v.actions) checks in
  let verify_rate = median (List.map (fun v -> float_of_int v.actions /. verify_s v) checks) in
  let per_round f os = String.concat " " (List.map (fun o -> Printf.sprintf "%.4g" (f [ o ])) os) in
  List.iter
    (fun d ->
      let os = outs d.tm_name main_kind in
      Printf.printf
        "%-10s %.0f ops/s median [rounds: %s]  p99 %.2f us median [rounds: %s]  pooled: p50 %.2f us  p99 %.2f us  p99.9 %.2f us  (%d ops)\n"
        d.tm_name (round_rate os) (per_round rate os) (round_p99 os)
        (per_round (fun os -> latency os 0.99) os)
        (latency os 0.5) (latency os 0.99) (latency os 0.999) (ops_of os))
    runners;
  Printf.printf "setup_s: %s\n" (String.concat " " (List.map (Printf.sprintf "%.4f") setup_times));
  Printf.printf "checked %d prefixes, %d actions: %.1f actions/s median [%s]\n" (List.length checks) checked
    verify_rate
    (String.concat " "
       (List.map (fun v -> Printf.sprintf "%.0f" (float_of_int v.actions /. verify_s v)) checks));
  Printf.printf "failed_op_share %.6f (%d of %d)\n" failed_share failed attempted;
  let metrics =
    if not traced then
      List.map (fun d -> m ("ops_per_s." ^ d.tm_name) "1/s" (round_rate (outs d.tm_name `Plain))) runners
      @ List.map (fun d -> m ("op_p99_us." ^ d.tm_name) "us" (round_p99 (outs d.tm_name `Plain))) runners
      @ [ m "verify_actions_per_s" "1/s" verify_rate; m "setup_s" "s" (median setup_times) ]
    else begin
      let kept = ref [] in
      let self_ok = ref true in
      let per_tm =
        List.concat_map
          (fun d ->
            let tr_os = outs d.tm_name `Traced in
            let traces = List.concat_map (fun o -> Array.to_list (Option.get o.traces)) tr_os in
            (match List.rev tr_os with
            | o :: _ -> kept := (d.tm_name, Option.get o.traces) :: !kept
            | [] -> ());
            let ws = ws_of tr_os in
            let ops = ops_of tr_os in
            let per_op x = float_of_int x /. float_of_int (max 1 ops) in
            let calls c = sum (fun tr -> tr.count.(call_index c)) traces in
            let total c = sum (fun tr -> tr.total_ns.(call_index c)) traces in
            let mean c = float_of_int (total c) /. float_of_int (max 1 (calls c)) in
            let in_block = sum total [ Begin; Read; Write; Commit; Abort ] in
            let op_ns = sum (fun w -> w.op_ns) ws and ab_ns = sum (fun w -> w.ab_ns) ws in
            let residual = float_of_int (op_ns - ab_ns - total Fence) /. float_of_int (max 1 op_ns) in
            let unnested = sum (fun w -> w.unnested) ws in
            Printf.printf
              "%-10s traced self-time residual %.2f%% of %d ns op time (tolerance %.0f%%), retry-loop self %d ns, %d unnested ops\n"
              d.tm_name (100. *. residual) op_ns (100. *. self_time_tolerance) (ab_ns - in_block) unnested;
            if Float.abs residual > self_time_tolerance then begin
              self_ok := false;
              problem (Printf.sprintf "%s: layer self-times miss %.1f%% of op time" d.tm_name (100. *. residual))
            end;
            (* The check above holds by how [run_op] is written; these
               catch a probe whose spans do not nest. *)
            if unnested > 0 || ab_ns < in_block then begin
              self_ok := false;
              problem
                (Printf.sprintf "%s: %d ops whose TM-call spans do not nest in their op; retry-loop self-time %d ns"
                   d.tm_name unnested (ab_ns - in_block))
            end;
            let snap_commits = sum (fun o -> o.commits) tr_os in
            let aborts c =
              float_of_int (sum (fun o -> List.assoc c o.aborts) tr_os)
              /. float_of_int (max 1 snap_commits)
            in
            let retries = sum (fun w -> w.retries) ws in
            let untraced = round_rate (outs d.tm_name `Timers_on) in
            List.map (fun c -> m (Printf.sprintf "tm.%s_ns.%s" (call_name c) d.tm_name) "ns" (mean c))
              [ Begin; Read; Write; Commit ]
            @ List.map
                (fun c ->
                  m (Printf.sprintf "tm.abort.%s.%s" (Obs.abort_cause_name c) d.tm_name) "1/op" (aborts c))
                Obs.[ Read_validation; Write_lock_busy; Commit_validation; Timestamp_drift ]
            @ [
                m ("atomic_block.self_ns." ^ d.tm_name) "ns" (per_op (ab_ns - in_block));
                m ("atomic_block.retries_per_op." ^ d.tm_name) "1/op" (per_op retries);
                m ("atomic_block.commit_ratio." ^ d.tm_name) "ratio"
                  (float_of_int ops /. float_of_int (max 1 (ops + retries)));
                m ("fence.mean_ns." ^ d.tm_name) "ns" (mean Fence);
                m ("fence.p99_us." ^ d.tm_name) "us"
                  (Hist.quantile (hist_of (List.map (fun tr -> tr.fence_ns) traces)) 0.99 /. 1e3);
                m ("obs.timers_ns_per_op." ^ d.tm_name) "ns"
                  (ns_per_op (outs d.tm_name `Timers_on) -. ns_per_op (outs d.tm_name `Timers_off));
                m ("trace.overhead_pct." ^ d.tm_name) "%" (100. *. (untraced -. round_rate tr_os) /. untraced);
              ])
          runners
      in
      (* The recorder's cost: the set-up's recording job, 40 times
         longer, with and without a recorder attached; median of three
         interleaved pairs. *)
      let last = List.nth recordings (setups - 1) in
      let ops = 40 * last.worker_ops in
      let recorder_ns =
        median
          (List.init 3 (fun _ ->
               let r = Recorder.create () in
               let recorded_s = run_ops (recorded spec) ~seed ~rep:0 ~ops ~values:(Fresh r) in
               let plain_s = run_ops (recorded spec) ~seed ~rep:0 ~ops ~values:Plain in
               (recorded_s -. plain_s) *. 1e9 /. float_of_int (Recorder.length r)))
      in
      let med f = median (List.map f checks) in
      let dir = if !out_dir = "" then "." else !out_dir in
      let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.json" spec.name seed) in
      write_trace ~path ~provenance (List.rev !kept);
      Printf.printf "spans written to %s; self-times %s\n" path (if !self_ok then "add up" else "DO NOT add up");
      per_tm
      @ [
          m "registry.dispatch_ns.tl2" "ns" (dispatch_ns ());
          m "recorder.ns_per_action" "ns" recorder_ns;
          m "recorder.history_s" "s" last.history_s;
          m "relations.of_history_s" "s" (med (fun v -> v.relations_s));
          m "race.is_drf_s" "s" (med (fun v -> v.drf_s));
          m "checker.check_s" "s" (med (fun v -> v.checker_s));
          m "monitor.check_s" "s" (med (fun v -> v.monitor_s));
          m "verify.actions" "count" (med (fun v -> float_of_int v.actions));
          m "failed_op_share" "ratio" failed_share;
        ]
    end
  in
  let correct = !problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.mname) (num x.value) (json_string x.unit_))
          metrics));
  if not correct then exit 1
