module Platform = Flicker_core.Platform
module Timing = Flicker_hw.Timing
module Machine = Flicker_hw.Machine
module Injector = Flicker_fault.Injector
module Privacy_ca = Flicker_tpm.Privacy_ca
module Prng = Flicker_crypto.Prng
module Metrics = Flicker_obs.Metrics

type config = {
  platforms : int;
  queue_depth : int;
  batch_size : int;
  policy : Dispatch.policy;
  seed : string;
  timing : Timing.t;
  faults : Injector.config option;
  retry_budget : int;
  breaker_failures : int;
  breaker_cooldown_ms : float;
  shards : int;
  domains : int;
}

(* TPM key hierarchy size for every platform and the fleet privacy CA:
   the simulated latencies follow the calibrated model at any size, and
   512-bit keys keep provisioning cheap *)
let key_bits = 512

(* virtual-time width of a drain window between epoch barriers *)
let epoch_ms = 250.0

let default_config =
  {
    platforms = 2;
    queue_depth = 32;
    batch_size = 4;
    policy = Dispatch.Least_loaded;
    seed = "fleet";
    timing = Timing.default;
    faults = None;
    retry_budget = 0;
    breaker_failures = 0;
    breaker_cooldown_ms = 2000.0;
    shards = 1;
    domains = 1;
  }

let tier_index = Shard.tier_index
let n_tiers = Shard.n_tiers

type t = {
  cfg : config;
  workload : Workload.t;
  shards : Shard.t array;
  arrival_rng : Prng.t;
  ca_key : Flicker_crypto.Rsa.public;
  (* shared with every shard: [set_interceptor]/[add_crash_hook] after
     creation must be visible inside [Shard.drain] *)
  interceptor : (Request.t -> string option) option ref;
  crash_hooks : (int -> unit) Queue.t;
  (* which shard takes the next unconstrained request *)
  route_cursor : int ref;
  mutable next_id : int;
  mutable submitted : int;
  submitted_by_tier : int array;  (* indexed by [tier_index] *)
  (* static-analysis admission gate consulted at submit time: [Some
     reason] refuses the request before it ever reaches the network *)
  mutable admission_gate : (Request.t -> string option) option;
  (* fleet-level series (today: [fleet.analysis_rejected]); everything
     on the serving path lives in the shard registries *)
  metrics0 : Metrics.t;
  (* requests finalized before reaching any shard (gate refusals) *)
  finalized0 : (int, Request.t * Request.disposition) Hashtbl.t;
}

(* Platforms are split into [shards] contiguous windows, as balanced as
   they come: the first [platforms mod shards] windows get one extra.
   The split depends only on the two counts — never on [domains] — so
   the shard structure, and with it the whole simulation, is a pure
   function of the config. *)
let shard_bounds ~platforms ~shards s =
  let base = platforms / shards and extra = platforms mod shards in
  let gstart = (s * base) + min s extra in
  let count = base + if s < extra then 1 else 0 in
  (gstart, count)

let shard_of_platform ~platforms ~shards g =
  let base = platforms / shards and extra = platforms mod shards in
  let boundary = extra * (base + 1) in
  if g < boundary then g / (base + 1) else extra + ((g - boundary) / base)

let create ?(config = default_config) workload =
  if config.platforms < 1 then invalid_arg "Fleet.create: need at least one platform";
  if config.queue_depth < 1 then invalid_arg "Fleet.create: queue_depth must be >= 1";
  if config.batch_size < 1 then invalid_arg "Fleet.create: batch_size must be >= 1";
  if config.retry_budget < 0 then invalid_arg "Fleet.create: negative retry budget";
  if config.shards < 1 || config.shards > config.platforms then
    invalid_arg "Fleet.create: shards must be within [1, platforms]";
  if config.domains < 1 then invalid_arg "Fleet.create: need at least one domain";
  let privacy_ca =
    Privacy_ca.create
      (Prng.create ~seed:(config.seed ^ "/privacy-ca"))
      ~name:"FleetPrivacyCA" ~key_bits
  in
  (* platforms are built and prepared in global order, on one domain,
     regardless of the shard/domain split — construction is provisioning,
     and keeping it sequential keeps every seed derivation identical to
     the unsharded fleet's *)
  let platforms =
    Array.init config.platforms (fun i ->
        let platform =
          Platform.create
            ~seed:(Printf.sprintf "%s/platform-%d" config.seed i)
            ~timing:config.timing ~key_bits ~ca:privacy_ca ()
        in
        workload.Workload.prepare platform i;
        platform)
  in
  (* fault injectors go in only after [prepare]: setup work (CA keygen
     sessions, ...) is provisioning, not the serving path under test *)
  (match config.faults with
  | None -> ()
  | Some fcfg ->
      Array.iteri
        (fun i p ->
          Machine.set_injector p.Platform.machine
            (Injector.create ~config:fcfg
               ~seed:(Printf.sprintf "%s/fault-%d" config.seed i)
               ()))
        platforms);
  (* the platforms' prepare work (CA keygen sessions, ...) consumed
     different amounts of virtual time on each clock; global time starts
     at the latest of them so no platform starts in any shard's past *)
  let now =
    Array.fold_left (fun acc p -> max acc (Platform.now_ms p)) 0.0 platforms
  in
  let interceptor = ref None in
  let crash_hooks = Queue.create () in
  let params =
    {
      Shard.queue_depth = config.queue_depth;
      batch_size = config.batch_size;
      policy = config.policy;
      timing = config.timing;
      retry_budget = config.retry_budget;
      breaker_failures = config.breaker_failures;
      breaker_cooldown_ms = config.breaker_cooldown_ms;
      gtotal = config.platforms;
      n_shards = config.shards;
    }
  in
  let shards =
    Array.init config.shards (fun s ->
        let gstart, count =
          shard_bounds ~platforms:config.platforms ~shards:config.shards s
        in
        Shard.create ~params ~sid:s ~gstart ~workload ~interceptor ~crash_hooks ~now
          (Array.sub platforms gstart count))
  in
  {
    cfg = config;
    workload;
    shards;
    arrival_rng = Prng.create ~seed:(config.seed ^ "/arrivals");
    ca_key = Privacy_ca.public_key privacy_ca;
    interceptor;
    crash_hooks;
    route_cursor = ref 0;
    next_id = 1;
    submitted = 0;
    submitted_by_tier = Array.make n_tiers 0;
    admission_gate = None;
    metrics0 = Metrics.create ();
    finalized0 = Hashtbl.create 16;
  }

let config t = t.cfg
let workload_name t = t.workload.Workload.name
let verifier_key t = t.ca_key

(* Live even mid-run: an interceptor's TTL check during a drain must see
   the advancing virtual clock. Every shard clock starts at the creation
   time and only moves forward, so their max is the fleet's clock. *)
let now_ms t =
  Array.fold_left (fun acc s -> max acc (Shard.now s)) neg_infinity t.shards
let set_interceptor t f = t.interceptor := Some f
let set_admission_gate t f = t.admission_gate <- Some f
let add_crash_hook t f = Queue.add f t.crash_hooks

let shard_index t g =
  shard_of_platform ~platforms:t.cfg.platforms ~shards:t.cfg.shards g

let owning_shard t g = t.shards.(shard_index t g)

let check_platform_index t ~who g =
  if g < 0 || g >= t.cfg.platforms then
    invalid_arg (Printf.sprintf "Fleet.%s: platform index outside fleet" who)

let platform t g =
  check_platform_index t ~who:"platform" g;
  Shard.platform (owning_shard t g) g

let platform_up t g =
  check_platform_index t ~who:"platform_up" g;
  Shard.platform_up (owning_shard t g) g

let past_deadline = Shard.past_deadline
let transit_ms t ~bytes = Timing.network_ms t.cfg.timing ~bytes

(* merged view over the fleet-level registry plus every shard's, in
   shard order — a snapshot (Metrics.merge_into is order-independent,
   so the result does not depend on which domain ran which shard) *)
let metrics t =
  let m = Metrics.create () in
  Metrics.merge_into t.metrics0 ~into:m;
  Array.iter (fun s -> Metrics.merge_into (Shard.metrics s) ~into:m) t.shards;
  m

(* Which shard receives an arriving request. Placement that must be
   fleet-global happens here, before any shard sees the request: homes
   go to their owner, sealed-affinity targets to the shard owning the
   hash, and the unconstrained rest rotates round-robin over shards. *)
let route t (req : Request.t) =
  match (req.Request.home, t.cfg.policy, req.Request.client) with
  | Some h, _, _ -> shard_index t h
  | None, Dispatch.Sealed_affinity, Some c ->
      shard_index t (Dispatch.affinity_target ~client:c ~total:t.cfg.platforms)
  | None, _, _ ->
      let s = !(t.route_cursor) in
      t.route_cursor := (s + 1) mod Array.length t.shards;
      s

let finalize0 t req disposition =
  Hashtbl.replace t.finalized0 req.Request.id (req, disposition)

let submit t ?client ?home ?(tier = Request.Batch) ?deadline_ms ?sent_ms payload =
  (match home with
  | Some h when h < 0 || h >= t.cfg.platforms ->
      invalid_arg
        (Printf.sprintf "Fleet.submit: home platform %d outside fleet of %d" h
           t.cfg.platforms)
  | _ -> ());
  (match deadline_ms with
  | Some d when d <= 0.0 -> invalid_arg "Fleet.submit: deadline must be positive"
  | _ -> ());
  let now = now_ms t in
  let sent = max now (Option.value sent_ms ~default:now) in
  let arrival = sent +. transit_ms t ~bytes:(String.length payload) in
  let req =
    {
      Request.id = t.next_id;
      payload;
      client;
      home;
      tier;
      sent_ms = sent;
      arrival_ms = arrival;
      deadline_ms = Option.map (fun d -> sent +. d) deadline_ms;
      attempts = 0;
      forwards = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.submitted <- t.submitted + 1;
  let ti = tier_index tier in
  t.submitted_by_tier.(ti) <- t.submitted_by_tier.(ti) + 1;
  (match t.admission_gate with
  | Some gate when gate req <> None ->
      (* the PAL behind this workload failed static analysis: refuse at
         the front door, before any network or queue resources *)
      Metrics.incr t.metrics0 "fleet.analysis_rejected";
      finalize0 t req
        (Request.Rejected { at_ms = sent; platform = -1; queue_depth = 0 })
  | _ -> Shard.push_arrival t.shards.(route t req) ~at_ms:arrival req);
  req.Request.id

let submit_open_loop t ~clients ~per_client ~mean_gap_ms ?tier ?deadline_ms ~payload () =
  if clients < 1 || per_client < 1 then
    invalid_arg "Fleet.submit_open_loop: need at least one client and request";
  if mean_gap_ms < 0.0 then invalid_arg "Fleet.submit_open_loop: negative gap";
  let exponential () =
    (* inverse-CDF draw from the fleet's deterministic generator *)
    let u = float_of_int (1 + Prng.int_below t.arrival_rng 1_000_000) /. 1_000_001. in
    -.mean_gap_ms *. log u
  in
  let now = now_ms t in
  for c = 0 to clients - 1 do
    let at = ref now in
    for seq = 0 to per_client - 1 do
      at := !at +. exponential ();
      ignore
        (submit t
           ~client:(Printf.sprintf "client-%d" c)
           ?tier ?deadline_ms ~sent_ms:!at
           (payload ~client:c ~seq))
    done
  done

(* Run any crash hooks the shards logged, in canonical (crash time,
   platform) order — one domain, outside any drain. A single shard runs
   its hooks inline and never logs, so this is a no-op there. *)
let flush_crash_logs t =
  Array.to_list t.shards
  |> List.concat_map Shard.take_crash_log
  |> List.sort compare
  |> List.iter (fun (_, g) -> Queue.iter (fun hook -> hook g) t.crash_hooks)

let crash_platform t g =
  check_platform_index t ~who:"crash_platform" g;
  Shard.crash_platform (owning_shard t g) g;
  (* a manual crash happens from coordinator context (between runs or
     epochs), so deferred hooks can run immediately *)
  flush_crash_logs t

(* The one run loop, for any shard count. Each round picks the earliest
   pending event time fleet-wide, lets every shard drain independently
   up to [tmin + epoch_ms) (a window no cross-shard message can cut
   into: barrier deliveries always land exactly at the window's end),
   then merges the shards' externalized effects in canonical order:

   1. deferred crash hooks, sorted by (crash time, platform) — cache
      invalidation before any re-dispatched request can be served;
   2. forwarded requests, sorted by (emission time, request id), each
      delivered to the ring successor of its emitting shard at exactly
      the window end.

   Both merges are pure functions of shard-local histories, and each
   shard's history is a pure function of its inputs, so the whole run is
   a pure function of the config — the domain count only decides which
   OS thread executes which shard.

   With one shard both merges are empty (hooks ran inline, nothing is
   forwarded), and consecutive windows pop the same events in the same
   order as one unbounded drain of the shard's queue. *)
let run ?until_ms t =
  let ns = Array.length t.shards in
  let pool = Domain_pool.create (max 1 (min t.cfg.domains ns)) in
  Fun.protect ~finally:(fun () -> Domain_pool.shutdown pool) @@ fun () ->
  let nd = Domain_pool.size pool in
  let next_event () =
    Array.fold_left
      (fun acc s ->
        match Shard.next_event_ms s with None -> acc | Some a -> min acc a)
      infinity t.shards
  in
  let rec loop () =
    let tmin = next_event () in
    let beyond =
      match until_ms with Some limit -> tmin > limit | None -> tmin = infinity
    in
    if not beyond then begin
      let stop = tmin +. epoch_ms in
      Domain_pool.run pool (fun w ->
          Array.iteri
            (fun i s -> if i mod nd = w then Shard.drain ?until_ms ~stop_before:stop s)
            t.shards);
      flush_crash_logs t;
      let forwarded =
        Array.to_list t.shards
        |> List.concat_map (fun s ->
               List.map (fun (at, req) -> (at, req, Shard.sid s)) (Shard.take_outbox s))
        |> List.sort (fun (a, (ra : Request.t), _) (b, (rb : Request.t), _) ->
               compare (a, ra.Request.id) (b, rb.Request.id))
      in
      List.iter
        (fun (_, req, src) ->
          Shard.push_arrival t.shards.((src + 1) mod ns) ~at_ms:stop req)
        forwarded;
      loop ()
    end
  in
  loop ()

let dispositions t =
  let acc = Hashtbl.fold (fun id e acc -> (id, e) :: acc) t.finalized0 [] in
  let acc =
    Array.fold_left
      (fun acc s ->
        Hashtbl.fold (fun id e acc -> (id, e) :: acc) (Shard.finalized s) acc)
      acc t.shards
  in
  List.sort (fun (a, _) (b, _) -> compare a b) acc |> List.map snd

let disposition_of t id =
  match Hashtbl.find_opt t.finalized0 id with
  | Some (_, d) -> Some d
  | None ->
      Array.fold_left
        (fun acc s ->
          match acc with
          | Some _ -> acc
          | None -> Option.map snd (Hashtbl.find_opt (Shard.finalized s) id))
        None t.shards

type tier_summary = {
  tier : Request.tier;
  t_submitted : int;
  t_completed : int;
  t_rejected : int;
  t_expired : int;
  t_failed : int;
  t_deadline_misses : int;
  t_p50_ms : float;
  t_p95_ms : float;
}

type summary = {
  submitted : int;
  completed : int;
  rejected : int;
  expired : int;
  failed : int;
  deadline_misses : int;
  makespan_ms : float;
  throughput_rps : float;
  latency_mean_ms : float;
  latency_p50_ms : float;
  latency_p95_ms : float;
  latency_max_ms : float;
  sessions : int;
  busy_retries : int;
  per_platform : int array;
  crashes : int;
  redispatched : int;
  forwarded : int;
  breaker_opens : int;
  tpm_faults : int;
  dma_storms : int;
  cache_served : int;  (* completions answered by the front-end cache *)
  analysis_rejected : int;  (* refused by the static-analysis gate *)
  by_tier : tier_summary list;  (* in [Request.all_tiers] order *)
}

(* Nearest-rank percentile over an already-sorted array. Total on every
   sample count: a run where every request was rejected or crashed has
   no latencies at all (n = 0 -> 0.0), and a single sample must answer
   every percentile with itself. The rank is clamped into [1, n] so a
   degenerate [p] (<= 0 or >= 100) still lands on a real element
   instead of indexing outside the array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    let rank = max 1 (min n rank) in
    sorted.(rank - 1)
  end

let summary t =
  let all = dispositions t in
  let m = metrics t in
  let completions =
    List.filter_map
      (fun (_, d) -> match d with Request.Completed c -> Some c | _ -> None)
      all
  in
  let count f = List.length (List.filter f all) in
  let latencies =
    Array.of_list (List.map (fun c -> c.Request.latency_ms) completions)
  in
  Array.sort compare latencies;
  let first_sent =
    List.fold_left (fun acc (r, _) -> min acc r.Request.sent_ms) infinity all
  in
  let last_finish =
    List.fold_left
      (fun acc c -> max acc c.Request.finished_ms)
      neg_infinity completions
  in
  let makespan =
    if completions = [] then 0.0 else max 0.0 (last_finish -. first_sent)
  in
  let n_completed = List.length completions in
  let sum = Array.fold_left ( +. ) 0.0 latencies in
  let machine_counter name =
    Array.fold_left (fun acc s -> acc + Shard.machine_counter s name) 0 t.shards
  in
  let tier_summary tier =
    let of_tier =
      List.filter (fun ((r : Request.t), _) -> r.Request.tier = tier) all
    in
    let tcount f = List.length (List.filter f of_tier) in
    let tcompletions =
      List.filter_map
        (fun (_, d) -> match d with Request.Completed c -> Some c | _ -> None)
        of_tier
    in
    let tlat =
      Array.of_list (List.map (fun c -> c.Request.latency_ms) tcompletions)
    in
    Array.sort compare tlat;
    {
      tier;
      t_submitted = t.submitted_by_tier.(tier_index tier);
      t_completed = List.length tcompletions;
      t_rejected =
        tcount (fun (_, d) -> match d with Request.Rejected _ -> true | _ -> false);
      t_expired =
        tcount (fun (_, d) -> match d with Request.Expired _ -> true | _ -> false);
      t_failed =
        tcount (fun (_, d) -> match d with Request.Failed _ -> true | _ -> false);
      t_deadline_misses =
        List.length
          (List.filter (fun c -> c.Request.missed_deadline) tcompletions);
      t_p50_ms = percentile tlat 50.0;
      t_p95_ms = percentile tlat 95.0;
    }
  in
  {
    submitted = t.submitted;
    completed = n_completed;
    rejected = count (fun (_, d) -> match d with Request.Rejected _ -> true | _ -> false);
    expired = count (fun (_, d) -> match d with Request.Expired _ -> true | _ -> false);
    failed = count (fun (_, d) -> match d with Request.Failed _ -> true | _ -> false);
    deadline_misses =
      List.length (List.filter (fun c -> c.Request.missed_deadline) completions);
    makespan_ms = makespan;
    throughput_rps =
      (if makespan > 0.0 then float_of_int n_completed /. (makespan /. 1000.0)
       else 0.0);
    latency_mean_ms = (if n_completed = 0 then 0.0 else sum /. float_of_int n_completed);
    latency_p50_ms = percentile latencies 50.0;
    latency_p95_ms = percentile latencies 95.0;
    latency_max_ms = (if n_completed = 0 then 0.0 else latencies.(n_completed - 1));
    sessions = Array.fold_left (fun acc s -> acc + Shard.sessions s) 0 t.shards;
    busy_retries = machine_counter "session.busy_retries";
    per_platform =
      Array.concat (Array.to_list (Array.map Shard.completed_counts t.shards));
    crashes = Metrics.counter m "fleet.crashes";
    redispatched = Metrics.counter m "fleet.redispatched";
    forwarded = Metrics.counter m "fleet.forwarded";
    breaker_opens = Metrics.counter m "fleet.breaker_opens";
    tpm_faults = machine_counter "fault.tpm.busy" + machine_counter "fault.tpm.slow";
    dma_storms = machine_counter "fault.dma_storms";
    cache_served = Metrics.counter m "fleet.cache_served";
    analysis_rejected = Metrics.counter m "fleet.analysis_rejected";
    by_tier = List.map tier_summary Request.all_tiers;
  }

let pp_summary fmt s =
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt
    "submitted %d: %d completed (%d past deadline), %d rejected, %d \
     expired, %d failed@,\
     makespan %.1f ms, throughput %.2f req/s over %d sessions (%d busy \
     retries)@,\
     latency ms: mean %.1f / p50 %.1f / p95 %.1f / max %.1f@,\
     faults: %d crashes, %d re-dispatches, %d breaker opens, %d TPM, %d \
     DMA storms@,\
     per-platform completions: %s"
    s.submitted s.completed s.deadline_misses s.rejected s.expired s.failed
    s.makespan_ms s.throughput_rps s.sessions s.busy_retries s.latency_mean_ms
    s.latency_p50_ms s.latency_p95_ms s.latency_max_ms s.crashes s.redispatched
    s.breaker_opens s.tpm_faults s.dma_storms
    (String.concat " "
       (Array.to_list (Array.map string_of_int s.per_platform)));
  if s.forwarded > 0 then
    Format.fprintf fmt "@,cross-shard forwards: %d" s.forwarded;
  if s.cache_served > 0 then
    Format.fprintf fmt "@,cache-served completions: %d" s.cache_served;
  if s.analysis_rejected > 0 then
    Format.fprintf fmt "@,rejected by analysis gate: %d" s.analysis_rejected;
  List.iter
    (fun ts ->
      if ts.t_submitted > 0 then
        Format.fprintf fmt
          "@,%s tier: %d submitted, %d completed (%d past deadline), %d \
           rejected, %d expired, %d failed, p50 %.1f ms, p95 %.1f ms"
          (Request.tier_name ts.tier) ts.t_submitted ts.t_completed
          ts.t_deadline_misses ts.t_rejected ts.t_expired ts.t_failed
          ts.t_p50_ms ts.t_p95_ms)
    s.by_tier;
  Format.pp_close_box fmt ()
