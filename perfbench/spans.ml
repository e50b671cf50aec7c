(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's own code, around calls into
   the libraries' public functions; nothing inside lib/ is instrumented.
   A sharded fleet calls [Workload.run_batch] from several domains at
   once, so each domain appends to its own buffer (Domain.DLS) and the
   buffers are merged only when the run is over. Recording is off until
   [set_enabled true]; while off, [span] is a direct call. *)

type t = {
  id : int;
  parent : int;  (** 0: no parent *)
  name : string;
  domain : int;
  start_ns : int64;
  end_ns : int64;
  reqs : int list;  (** request ids, for [Workload.run_batch] spans *)
}

let now_ns () = Monotonic_clock.now ()
let on = Atomic.make false
let enabled () = Atomic.get on
let set_enabled b = Atomic.set on b
let next_id = Atomic.make 1

(* The outermost span open on the main domain. A worker domain's
   outermost span (a run_batch inside a sharded Fleet.run) takes it as
   its parent. *)
let root = Atomic.make 0

(* Measurement-memo lookups made inside recorded run_batch spans. The
   memo lives in Domain.DLS, so its counters can only be read from the
   domain that ran the batch; each buffer keeps that domain's sums. *)
type buffer = {
  mutable spans : t list;
  mutable stack : int list;
  mutable memo_hits : int;
  mutable memo_misses : int;
}

let registry = ref []
let registry_lock = Mutex.create ()

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b = { spans = []; stack = []; memo_hits = 0; memo_misses = 0 } in
      Mutex.protect registry_lock (fun () -> registry := b :: !registry);
      b)

let record ?(reqs = []) name f =
  let b = Domain.DLS.get buffer_key in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent = match b.stack with p :: _ -> p | [] -> Atomic.get root in
  let outermost = Domain.is_main_domain () && b.stack = [] in
  b.stack <- id :: b.stack;
  if outermost then Atomic.set root id;
  let start_ns = now_ns () in
  Fun.protect f ~finally:(fun () ->
      let end_ns = now_ns () in
      b.stack <- List.tl b.stack;
      if outermost then Atomic.set root 0;
      b.spans <-
        {
          id;
          parent;
          name;
          domain = (Domain.self () :> int);
          start_ns;
          end_ns;
          reqs;
        }
        :: b.spans)

let span name f = if enabled () then record name f else f ()

(* run [f] and credit the calling domain's memo-counter delta to it *)
let count_memo f =
  let b = Domain.DLS.get buffer_key in
  let h0, m0 = Flicker_core.Measurement.cache_stats () in
  Fun.protect f ~finally:(fun () ->
      let h1, m1 = Flicker_core.Measurement.cache_stats () in
      b.memo_hits <- b.memo_hits + (h1 - h0);
      b.memo_misses <- b.memo_misses + (m1 - m0))

let buffers () = Mutex.protect registry_lock (fun () -> !registry)

(* Every recorded span, oldest first. Call only once no domain records. *)
let all () =
  List.concat_map (fun b -> b.spans) (buffers ())
  |> List.sort (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id))

let memo_counts () =
  List.fold_left
    (fun (h, m) b -> (h + b.memo_hits, m + b.memo_misses))
    (0, 0) (buffers ())

let duration_s s = Int64.to_float (Int64.sub s.end_ns s.start_ns) *. 1e-9

(* Seconds of [s] not covered by any of [children]. Children on other
   domains may overlap each other, so the covered part is their union
   clipped to [s], not the sum of their durations. *)
let self_s s children =
  let clip c = (max c.start_ns s.start_ns, min c.end_ns s.end_ns) in
  let ivs =
    List.map clip children
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = max a reach in
        if b > a then (Int64.add acc (Int64.sub b a), b) else (acc, reach))
      (0L, s.start_ns) ivs
  in
  Int64.to_float (Int64.sub (Int64.sub s.end_ns s.start_ns) covered) *. 1e-9

(* Chrome trace_event JSON: one complete ("X") event per span, one track
   per domain; ids, parents and request ids ride in [args]. *)
let write_chrome path spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc
        "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"reqs\":[%s]}}"
        s.name s.domain
        (Int64.to_float s.start_ns /. 1e3)
        (Int64.to_float (Int64.sub s.end_ns s.start_ns) /. 1e3)
        s.id s.parent
        (String.concat "," (List.map string_of_int s.reqs)))
    spans;
  output_string oc "\n]}\n"
