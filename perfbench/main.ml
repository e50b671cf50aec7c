(* Host-cost benchmark: what the simulator itself costs to run.

   One process runs one workload. It builds the fleet [setup_reps] times
   (setup_s is the median) and then drives rounds of open-loop load
   against the last build until [--seconds] of measured host time have
   passed. A round is submit + Fleet.run + the client-side check of
   every output; its inputs are generated from [--seed] before its clock
   starts. The first [window] rounds always run, whatever the host
   speed, so the simulated summary, the disposition digest and the work
   counters taken after them are a pure function of the seed. The
   end-to-end host timings are scaled by reference slices timed beside
   them (Reference), because the host's speed drifts.

   With [--trace 1] spans (Spans) are recorded around the calls into each
   library during set-up and the window; after the window, odd rounds
   are traced and even rounds are not, which gives the tracing overhead.
   See README.md for the workloads and the metric map. *)

module Fleet = Flicker_service.Fleet
module Workload = Flicker_service.Workload
module Request = Flicker_service.Request
module Dispatch = Flicker_service.Dispatch
module Serve = Flicker_serve.Serve
module Appraise = Flicker_serve.Appraise
module Cache = Flicker_serve.Cache
module Platform = Flicker_core.Platform
module Measurement = Flicker_core.Measurement
module Machine = Flicker_hw.Machine
module Metrics = Flicker_obs.Metrics
module CA = Flicker_apps.Cert_authority
module Rsa = Flicker_crypto.Rsa
module Prng = Flicker_crypto.Prng
module Sha1 = Flicker_crypto.Sha1
module Util = Flicker_crypto.Util

let now_s () = Int64.to_float (Spans.now_ns ()) *. 1e-9
let setup_reps = 3

(* ---- workloads ------------------------------------------------------ *)

(* One built workload: the fleet under test plus the client side. *)
type instance = {
  fleet : Fleet.t;
  serve : Serve.t option;
  inputs : int -> string array;
      (** round [r]'s payloads, client-major as submit_open_loop sends
          them *)
  check : id:int -> string -> Request.disposition -> bool;
      (** did request [id] with this payload complete correctly? *)
  after_round : int -> unit;
}

type spec = {
  name : string;
  wraps_batches : bool;
      (** the benchmark builds the Workload.t, so run_batch is timed *)
  window : int;  (** rounds in the fixed-work window *)
  clients : int;
  per_client : int;
  mean_gap_ms : float;  (** per client: offered rate = clients / gap *)
  build : seed:int -> instance;
}

let rng ~seed r tag = Random.State.make [| seed; r; tag |]
let fleet_seed seed name = Printf.sprintf "perfbench/%s/%d" name seed
let hex_label st =
  let a = Random.State.bits st in
  Printf.sprintf "%08x%06x" a (Random.State.bits st land 0xffffff)

(* Wrap a workload so traced rounds time its calls; untraced rounds pay
   one atomic read per call. *)
let traced_workload (w : Workload.t) =
  {
    w with
    Workload.prepare =
      (fun p i -> Spans.span "Workload.prepare" (fun () -> w.Workload.prepare p i));
    run_batch =
      (fun p reqs ->
        if not (Spans.enabled ()) then w.Workload.run_batch p reqs
        else
          Spans.record "Workload.run_batch"
            ~reqs:(List.map (fun r -> r.Request.id) reqs)
            (fun () -> Spans.count_memo (fun () -> w.Workload.run_batch p reqs)));
  }

let completion = function Request.Completed c -> Some c | _ -> None

(* ca_fleet: the paper's CA (Section 6.3.2), one quote per batch *)

let ca_clients = 8
let ca_per_client = 8

let ca_policy =
  {
    CA.allowed_suffixes = [ ".example.com" ];
    denied_subjects = [];
    max_certificates = max_int;
  }

let ca_build ~seed =
  let fseed = fleet_seed seed "ca_fleet" in
  let keys =
    Array.init ca_clients (fun c ->
        (Rsa.generate
           (Prng.create ~seed:(Printf.sprintf "%s/client-%d" fseed c))
           ~bits:512)
          .Rsa.pub)
  in
  let config =
    {
      Fleet.default_config with
      platforms = 8;
      batch_size = 4;
      queue_depth = 64;
      policy = Dispatch.Least_loaded;
      seed = fseed;
    }
  in
  let fleet =
    Spans.span "Fleet.create" (fun () ->
        Fleet.create ~config
          (traced_workload (Workload.ca ~attest_batches:true ca_policy)))
  in
  let inputs r =
    let st = rng ~seed r 1 in
    Array.init (ca_clients * ca_per_client) (fun k ->
        Workload.ca_csr_payload
          ~subject:(Printf.sprintf "h%s.example.com" (hex_label st))
          ~subject_key:keys.(k / ca_per_client))
  in
  (* every certificate a replica issues must verify under the one
     sealed key that replica showed first *)
  let replica_keys = Hashtbl.create 8 in
  let check ~id:_ payload d =
    match (completion d, Util.decode_fields payload) with
    | Some c, Ok [ "csr"; subject; key_raw ] -> (
        match Workload.decode_ca_output c.Request.output with
        | Error _ -> false
        | Ok (cert, ca_key) ->
            let ca_raw = Rsa.public_to_string ca_key in
            let same_replica =
              match Hashtbl.find_opt replica_keys c.Request.platform with
              | Some raw -> String.equal raw ca_raw
              | None ->
                  Hashtbl.replace replica_keys c.Request.platform ca_raw;
                  true
            in
            same_replica
            && String.equal cert.CA.cert_subject subject
            && String.equal (Rsa.public_to_string cert.CA.cert_key) key_raw
            && Spans.span "Cert_authority.verify_certificate" (fun () ->
                   CA.verify_certificate ~ca_key cert))
    | _ -> false
  in
  { fleet; serve = None; inputs; check; after_round = ignore }

(* echo_sharded: many cheap sessions on a sharded fleet. The four shards
   run on one domain: on a host whose two vCPUs are shared with other
   machines, a second domain made throughput bimodal (every
   stop-the-world minor collection waits for the slower vCPU), too
   unsteady to gate on. The domain count does not change the simulated
   results or the digest. *)

let echo_clients = 32
let echo_per_client = 16

let echo_build ~seed =
  let config =
    {
      Fleet.default_config with
      platforms = 16;
      shards = 4;
      domains = 1;
      batch_size = 4;
      queue_depth = 64;
      policy = Dispatch.Least_loaded;
      seed = fleet_seed seed "echo_sharded";
    }
  in
  let fleet =
    Spans.span "Fleet.create" (fun () ->
        Fleet.create ~config (traced_workload (Workload.echo ())))
  in
  let inputs r =
    let st = rng ~seed r 2 in
    Array.init (echo_clients * echo_per_client) (fun _ -> hex_label st)
  in
  let check ~id:_ payload d =
    match completion d with
    | Some c -> String.equal c.Request.output ("echo:" ^ payload)
    | None -> false
  in
  { fleet; serve = None; inputs; check; after_round = ignore }

(* serve_mix: the attested result cache under Zipf-like popularity over
   a pool larger than the cache, with NV invalidations between rounds *)

let serve_clients = 8
let serve_per_client = 25
let serve_pool = 8192
let serve_capacity = 64
let serve_warm = 64

(* draws a rank in [0, n) with P(rank) proportional to 1 / (rank + 1) *)
let zipf_sampler n =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (i + 1));
    cdf.(i) <- !acc
  done;
  fun st ->
    let u = Random.State.float st !acc in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then search (mid + 1) hi else search lo mid
    in
    search 0 (n - 1)

let serve_build ~seed =
  let item rank = Printf.sprintf "doc-%d-%d" seed rank in
  let config =
    {
      Serve.default_config with
      Serve.fleet =
        {
          Fleet.default_config with
          platforms = 2;
          batch_size = 4;
          queue_depth = 64;
          seed = fleet_seed seed "serve_mix";
        };
      cache_capacity = serve_capacity;
    }
  in
  let serve =
    Spans.span "Serve.create" (fun () ->
        Serve.create ~config ~warm:(List.init serve_warm item) ())
  in
  let draw = zipf_sampler serve_pool in
  let inputs r =
    let st = rng ~seed r 3 in
    Array.init (serve_clients * serve_per_client) (fun _ -> item (draw st))
  in
  let check ~id payload d =
    match (completion d, Serve.bundle_for serve id) with
    | Some c, Some b ->
        String.equal c.Request.output ("echo:" ^ payload)
        && String.equal b.Serve.payload payload
        && String.equal b.Serve.output c.Request.output
        && Spans.span "Serve.verify_bundle" (fun () ->
               Result.is_ok (Serve.verify_bundle serve b))
    | _ -> false
  in
  (* after its bundles are appraised, every fourth round ends with one
     platform advancing its NV counter, which invalidates its entries *)
  let after_round r = if r mod 4 = 3 then Serve.advance_nv serve (r / 4 mod 2) in
  { fleet = Serve.fleet serve; serve = Some serve; inputs; check; after_round }

let specs =
  [
    {
      name = "ca_fleet";
      wraps_batches = true;
      window = 8;
      clients = ca_clients;
      per_client = ca_per_client;
      mean_gap_ms = 400.0;
      build = ca_build;
    };
    {
      name = "echo_sharded";
      wraps_batches = true;
      window = 16;
      clients = echo_clients;
      per_client = echo_per_client;
      mean_gap_ms = 40.0;
      build = echo_build;
    };
    {
      name = "serve_mix";
      wraps_batches = false;
      window = 12;
      clients = serve_clients;
      per_client = serve_per_client;
      mean_gap_ms = 1600.0;
      build = serve_build;
    };
  ]

(* ---- counters read at phase boundaries ------------------------------ *)

type counters = {
  sessions : int;  (** session.runs summed over the platforms *)
  tpm : int array;  (** per [tpm_ops], summed over the platforms *)
  minor_words : float;
  major_collections : int;
  cache : Cache.stats option;
  appraise : Appraise.stats option;
}

let tpm_ops = [| "unseal"; "seal"; "quote"; "pcr_extend" |]

let machine_sum fleet name =
  let total = ref 0 in
  for i = 0 to (Fleet.config fleet).Fleet.platforms - 1 do
    let m = (Fleet.platform fleet i).Platform.machine.Machine.metrics in
    total := !total + Metrics.counter m name
  done;
  !total

let counters inst =
  let g = Gc.quick_stat () in
  {
    sessions = machine_sum inst.fleet "session.runs";
    tpm = Array.map (fun op -> machine_sum inst.fleet ("tpm." ^ op ^ ".count")) tpm_ops;
    minor_words = g.Gc.minor_words;
    major_collections = g.Gc.major_collections;
    cache = Option.map Serve.cache_stats inst.serve;
    appraise = Option.map (fun s -> Appraise.stats (Serve.appraiser s)) inst.serve;
  }

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM in /proc/self/status"
  in
  scan ()

(* ---- set-up and measured phase -------------------------------------- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

(* Build the workload [setup_reps] times from the same seed, each from a
   collected heap and a cold measurement memo; keep the last build. Each
   build is bracketed by reference slices taken just before and after
   it, and scaled by them. Returns (host s, scaled s) per build. *)
let setup spec ~seed =
  let bracket () = List.init 5 (fun _ -> Reference.slice ()) in
  let rec go i times before last =
    if i = setup_reps then (Option.get last, List.rev times)
    else begin
      Gc.full_major ();
      Measurement.clear_cache ();
      let s0 = Sha1.bytes_hashed () in
      let t0 = now_s () in
      let inst = spec.build ~seed in
      let dt = now_s () -. t0 in
      let sha1 = Sha1.bytes_hashed () - s0 in
      let after = bracket () in
      let scaled = Reference.scale ~slices:(before @ after) dt in
      go (i + 1) ((dt, scaled) :: times) after (Some (inst, sha1))
    end
  in
  go 0 [] (bracket ()) None

type window = {
  summary : Fleet.summary;
  digest : string;
  fleet_metrics : Metrics.t;
  at_end : counters;
  run_sha1 : int;  (** SHA-1 bytes hashed inside Fleet.run *)
  memo : int * int;  (** measurement-memo (hits, misses) in run_batch *)
  peak_rss_mb : float;  (** VmHWM: the most memory the window needed *)
  requests : int;
  start_ns : int64;
  end_ns : int64;
}

type measured = {
  host_s : float;
  submitted : int;
  finalized : int;
  bad : int;
  at_start : counters;
  final : counters;
  win : window;
  split : (float * int) array;
      (** post-window (host s, requests): untraced rounds, traced rounds *)
  ref_slices : float list;  (** one reference slice after each round *)
}

let measure spec inst ~seconds ~trace =
  let fleet = inst.fleet in
  let at_start = counters inst in
  let start_ns = Spans.now_ns () in
  let submitted = ref 0 and finalized = ref 0 and bad = ref 0 in
  let host = ref 0.0 and run_sha1 = ref 0 and win = ref None in
  let split = [| (0.0, 0); (0.0, 0) |] in
  let ref_slices = ref [] in
  let r = ref 0 in
  while !r < spec.window || !host < seconds do
    let in_window = !r < spec.window in
    let traced = trace && (in_window || !r mod 2 = 1) in
    let payloads = inst.inputs !r in
    let base = !submitted in
    Spans.set_enabled traced;
    let t0 = now_s () in
    Spans.span "Fleet.submit_open_loop" (fun () ->
        Fleet.submit_open_loop fleet ~clients:spec.clients
          ~per_client:spec.per_client ~mean_gap_ms:spec.mean_gap_ms
          ~payload:(fun ~client ~seq -> payloads.((client * spec.per_client) + seq))
          ());
    let s0 = Sha1.bytes_hashed () in
    Spans.span "Fleet.run" (fun () ->
        if spec.wraps_batches || not traced then Fleet.run fleet
        else Spans.count_memo (fun () -> Fleet.run fleet));
    run_sha1 := !run_sha1 + (Sha1.bytes_hashed () - s0);
    Array.iteri
      (fun k payload ->
        let id = base + 1 + k in
        match Fleet.disposition_of fleet id with
        | None -> incr bad
        | Some d ->
            incr finalized;
            if not (inst.check ~id payload d) then incr bad)
      payloads;
    inst.after_round !r;
    let dt = now_s () -. t0 in
    Spans.set_enabled false;
    ref_slices := Reference.slice () :: !ref_slices;
    submitted := base + Array.length payloads;
    host := !host +. dt;
    if not in_window then begin
      let i = if traced then 1 else 0 in
      let h, n = split.(i) in
      split.(i) <- (h +. dt, n + Array.length payloads)
    end;
    incr r;
    if !r = spec.window then begin
      let peak_rss_mb = vm_hwm_mb () in
      let summary = Fleet.summary fleet in
      let digest =
        Digest.to_hex
          (Digest.string
             (Marshal.to_string (Fleet.dispositions fleet, summary) [ Marshal.No_sharing ]))
      in
      win :=
        Some
          {
            summary;
            digest;
            fleet_metrics = Fleet.metrics fleet;
            at_end = counters inst;
            run_sha1 = !run_sha1;
            memo = Spans.memo_counts ();
            peak_rss_mb;
            requests = !submitted;
            start_ns;
            end_ns = Spans.now_ns ();
          }
    end
  done;
  {
    host_s = !host;
    submitted = !submitted;
    finalized = !finalized;
    bad = !bad;
    at_start;
    final = counters inst;
    win = Option.get !win;
    split;
    ref_slices = !ref_slices;
  }

(* ---- metrics -------------------------------------------------------- *)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* nearest-rank percentile, the estimator Fleet.summary uses *)
let pct xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  Fleet.percentile a p

(* (name, value, unit, base): the base says what a ratio or a
   percentile was taken over *)
type metric = string * float * string * string

let end_to_end spec setup_times (m : measured) : metric list =
  let s = m.win.summary in
  let host = Reference.scale ~slices:m.ref_slices m.host_s in
  let sessions = m.final.sessions - m.at_start.sessions in
  let raw = Printf.sprintf "%.3f s on this host, %.3f s scaled" m.host_s host in
  [
    ("setup_s", median (List.map snd setup_times), "s",
      Printf.sprintf "median of %d builds, host s -> scaled s: %s" setup_reps
        (String.concat ", "
           (List.map (fun (h, n) -> Printf.sprintf "%.3f -> %.3f" h n) setup_times)));
    ("requests_per_host_s", float_of_int m.finalized /. host, "1/s",
      Printf.sprintf "%d finalized / %s" m.finalized raw);
    ("sessions_per_host_s", float_of_int sessions /. host, "1/s",
      Printf.sprintf "%d sessions / %s" sessions raw);
    ("peak_rss_mb", m.win.peak_rss_mb, "MB", "VmHWM after set-up and the window");
    ("sim_throughput_rps", s.Fleet.throughput_rps, "1/sim_s",
      Printf.sprintf "%d completed over %.1f sim ms, first %d rounds"
        s.Fleet.completed s.Fleet.makespan_ms spec.window);
    ("sim_p50_ms", s.Fleet.latency_p50_ms, "sim_ms",
      Printf.sprintf "%d completed" s.Fleet.completed);
    ("sim_p95_ms", s.Fleet.latency_p95_ms, "sim_ms",
      Printf.sprintf "%d completed" s.Fleet.completed);
  ]

let per_layer spec setup_sha1 (m : measured) : metric list =
  let spans = Spans.all () in
  let named n = List.filter (fun (s : Spans.t) -> s.Spans.name = n) spans in
  let children p = List.filter (fun (s : Spans.t) -> s.Spans.parent = p.Spans.id) spans in
  let in_window (s : Spans.t) =
    s.Spans.start_ns >= m.win.start_ns && s.Spans.end_ns <= m.win.end_ns
  in
  let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs in
  let creates = named "Fleet.create" in
  let prepares c = List.filter (fun s -> s.Spans.name = "Workload.prepare") (children c) in
  let runs = List.filter in_window (named "Fleet.run") in
  let batches = named "Workload.run_batch" in
  let timing name unit scale spans_ =
    let xs = List.map (fun s -> Spans.duration_s s *. scale) spans_ in
    let n = List.length xs in
    let base = Printf.sprintf "%d spans" n in
    [
      (name ^ ".p50", pct xs 50.0, unit, base);
      (name ^ ".p99", pct xs 99.0, unit, base);
      (name ^ ".count", float_of_int n, "count", "traced rounds");
    ]
  in
  let c0 = m.at_start and c1 = m.win.at_end in
  let sessions = c1.sessions - c0.sessions in
  let window_base = Printf.sprintf "first %d rounds, %d requests" spec.window m.win.requests in
  let memo_h, memo_m = m.win.memo in
  let cache_d f =
    match (c0.cache, c1.cache) with Some a, Some b -> f b - f a | _ -> 0
  in
  let appraise_d f =
    match (c0.appraise, c1.appraise) with Some a, Some b -> f b - f a | _ -> 0
  in
  let hits = cache_d (fun s -> s.Cache.hits) and misses = cache_d (fun s -> s.Cache.misses) in
  let memo_hits = appraise_d (fun s -> s.Appraise.cert_hits + s.Appraise.quote_hits) in
  let memo_all =
    memo_hits + appraise_d (fun s -> s.Appraise.cert_misses + s.Appraise.quote_misses)
  in
  let fill =
    match Metrics.histogram m.win.fleet_metrics "fleet.batch_fill" with
    | Some h -> h.Metrics.mean
    | None -> 0.0
  in
  let (uh, un), (th, tn) = (m.split.(0), m.split.(1)) in
  let overhead =
    if un = 0 || tn = 0 then 0.0
    else 1.0 -. (float_of_int tn /. th /. (float_of_int un /. uh))
  in
  let count name v base = (name, float_of_int v, "count", base) in
  [
    ("service.provision_s",
      median (List.map (fun c -> Spans.self_s c (prepares c)) creates), "s",
      Printf.sprintf "Fleet.create minus Workload.prepare, median of %d" (List.length creates));
    ("apps.prepare_s",
      median (List.map (fun c -> sum Spans.duration_s (prepares c)) creates), "s",
      Printf.sprintf "sum of Workload.prepare per build, median of %d" (List.length creates));
    ("serve.create_s", median (List.map Spans.duration_s (named "Serve.create")), "s",
      "median over builds");
  ]
  @ timing "core.batch_host_ms" "ms" 1e3 batches
  @ [
      ("core.batch_host_s", sum Spans.duration_s (List.filter in_window batches), "s",
        window_base);
      ("service.run_s", sum Spans.duration_s runs, "s", window_base);
      ("service.loop_self_s",
        (if spec.wraps_batches then
           sum (fun r -> Spans.self_s r (children r)) runs
         else 0.0), "s",
        if spec.wraps_batches then window_base
        else "run_batch is internal to Serve.create: not observable");
      count "service.batches" (Metrics.counter m.win.fleet_metrics "fleet.batches") window_base;
      ("service.batch_fill_mean", fill, "count", window_base);
      count "service.forwarded" m.win.summary.Fleet.forwarded window_base;
      count "core.sessions" sessions window_base;
      ("core.measure_memo_hit_ratio", ratio memo_h (memo_h + memo_m), "ratio",
        Printf.sprintf "%d hits / %d lookups" memo_h (memo_h + memo_m));
      ("crypto.sha1_bytes_per_session", ratio m.win.run_sha1 sessions, "B",
        Printf.sprintf "%d bytes in Fleet.run / %d sessions" m.win.run_sha1 sessions);
      ("crypto.sha1_bytes_setup", float_of_int setup_sha1, "B", "last build");
    ]
  @ List.mapi
      (fun i op ->
        count
          (Printf.sprintf "tpm.%s.count"
             (if op = "pcr_extend" then "extend" else op))
          (c1.tpm.(i) - c0.tpm.(i)) window_base)
      (Array.to_list tpm_ops)
  @ timing "apps.cert_verify_us" "us" 1e6 (named "Cert_authority.verify_certificate")
  @ timing "serve.appraise_us" "us" 1e6 (named "Serve.verify_bundle")
  @ [
      ("serve.memo_hit_ratio", ratio memo_hits memo_all, "ratio",
        Printf.sprintf "%d hits / %d appraisal stages" memo_hits memo_all);
      ("serve.memo_bytes_saved", float_of_int (appraise_d (fun s -> s.Appraise.bytes_saved)), "B",
        window_base);
      ("serve.cache_hit_ratio", ratio hits (hits + misses), "ratio",
        Printf.sprintf "%d hits / %d lookups" hits (hits + misses));
      count "serve.cache_insertions" (cache_d (fun s -> s.Cache.insertions)) window_base;
      count "serve.cache_evictions" (cache_d (fun s -> s.Cache.evictions)) window_base;
      count "serve.cache_invalidations" (cache_d (fun s -> s.Cache.invalidations)) window_base;
      ("gc.minor_words_per_request",
        (c1.minor_words -. c0.minor_words) /. float_of_int m.win.requests, "words",
        window_base);
      count "gc.major_collections" (c1.major_collections - c0.major_collections) window_base;
      ("host.ref_slice_ms", Reference.median_slice m.ref_slices *. 1e3, "ms",
        Printf.sprintf "median of %d slices, one after each round" (List.length m.ref_slices));
      ("trace.overhead_frac", overhead, "ratio",
        Printf.sprintf "after the window: traced %d req / %.3f s vs untraced %d req / %.3f s"
          tn th un uh);
    ]

(* ---- output --------------------------------------------------------- *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line ~correct (m : measured) metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct m.submitted m.bad
    (String.concat ", "
       (List.map
          (fun (n, v, u, _) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
          metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 15.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME ca_fleet | echo_sharded | serve_mix");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured host seconds");
      ("--trace", Arg.Set_int trace, "0|1 record spans, report per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let spec =
    match List.find_opt (fun s -> s.name = !workload) specs with
    | Some s -> s
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let trace = !trace = 1 in
  Spans.set_enabled trace;
  let (inst, setup_sha1), setup_times = setup spec ~seed:!seed in
  Spans.set_enabled false;
  let m = measure spec inst ~seconds:!seconds ~trace in
  let e2e = end_to_end spec setup_times m in
  let metrics = if trace then per_layer spec setup_sha1 m else e2e in
  Printf.printf "workload %s  seed %d  trace %d  rounds of %d requests\n" spec.name
    !seed (Bool.to_int trace) (spec.clients * spec.per_client);
  Printf.printf "digest %s  (dispositions + summary after %d rounds)\n" m.win.digest
    spec.window;
  Printf.printf "failed_frac %.6f  (%d of %d requests not completed correctly)\n"
    (ratio m.bad m.submitted) m.bad m.submitted;
  List.iter
    (fun (n, v, u, base) -> Printf.printf "%-32s %14.6g %-8s %s\n" n v u base)
    (if trace then e2e @ metrics else metrics);
  if trace then begin
    let dir = ".perfbench" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "spans-%s.json" spec.name) in
    Spans.write_chrome path (Spans.all ());
    Printf.printf "spans written to %s\n" path
  end;
  print_endline (result_line ~correct:(m.bad = 0) m metrics)
