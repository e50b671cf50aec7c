(* Domain-safety and sharded-fleet regression tests.

   The first group hammers the host-side shared-state paths that used to
   be module-level globals (measurement memo, SHA scratch contexts) from
   two domains at once and checks the results against single-domain
   references — under the old globals these raced (torn Hashtbl entries,
   interleaved scratch absorptions); with Domain.DLS each domain owns its
   state and the content-keyed caches stay identity-preserving.

   The second group pins down the sharded fleet's core contract: the
   simulation is a pure function of the config — the domain count only
   chooses execution placement — so dispositions and summaries must be
   exactly equal for 1, 2, and 4 domains, across random workloads,
   policies, shard counts, and fault schedules. *)

open Flicker_crypto
module Measurement = Flicker_core.Measurement
module Fleet = Flicker_service.Fleet
module Workload = Flicker_service.Workload
module Dispatch = Flicker_service.Dispatch
module Request = Flicker_service.Request
module Injector = Flicker_fault.Injector

(* --- DLS hammers ------------------------------------------------------ *)

(* join both domains and re-raise the first failure, so an assertion
   tripping inside a spawned domain fails the test instead of vanishing *)
let join_all domains =
  let results = List.map Domain.join domains in
  List.iter (function Ok () -> () | Error e -> raise e) results

let spawn_catching f =
  Domain.spawn (fun () ->
      match f () with () -> Ok () | exception e -> Error e)

let test_measurement_memo_two_domains () =
  let windows =
    Array.init 80 (fun i ->
        (* > 64-entry cache bound, so concurrent eviction runs too *)
        Printf.sprintf "window-%03d-%s" i (String.make 961 (Char.chr (33 + (i mod 90)))))
  in
  (* unmemoized reference digests, computed before any hammering *)
  let expected = Array.map Sha1.digest windows in
  let hammer () =
    Measurement.clear_cache ();
    for pass = 0 to 2 do
      ignore pass;
      Array.iteri
        (fun i w ->
          let d = Measurement.window_digest w in
          if not (String.equal d expected.(i)) then
            Alcotest.failf "torn or stale memo entry for window %d" i)
        windows
    done;
    let hits, misses = Measurement.cache_stats () in
    (* every access is accounted for on this domain's own stats *)
    Alcotest.(check int) "every lookup counted" (3 * Array.length windows)
      (hits + misses)
  in
  join_all [ spawn_catching hammer; spawn_catching hammer ];
  (* and the hammering never polluted this domain's view *)
  Array.iteri
    (fun i w ->
      Alcotest.(check string) "main-domain digest" expected.(i)
        (Measurement.window_digest w))
    windows

(* Two domains hammer one content memo with near-identical 4 KB keys
   (pairs differ in one byte the fingerprint skips), more keys than the
   capacity: every lookup must return its own key's digest, and each
   domain's table must stay within the bound. *)
let test_content_memo_two_domains () =
  let memo : string Memo.t = Memo.create () in
  let base i = String.make 4096 (Char.chr (33 + i)) in
  let keys =
    Array.init (Memo.capacity + 16) (fun i ->
        let s = base (i / 2) in
        if i mod 2 = 0 then s
        else
          (* byte 9 sits between the first two sampled words *)
          String.mapi (fun j c -> if j = 9 then '#' else c) s)
  in
  Alcotest.(check bool) "pairs share a fingerprint" true
    (Memo.sampled_hash keys.(0) = Memo.sampled_hash keys.(1));
  let expected = Array.map Sha1.digest keys in
  let hammer () =
    let n = Array.length keys in
    for pass = 0 to 19 do
      for j = 0 to n - 1 do
        (* each pass starts at a different key, so evictions vary *)
        let i = (j + pass) mod n in
        let k = keys.(i) in
        let got = Memo.find_or_add memo k (fun () -> Sha1.digest k) in
        if not (String.equal got expected.(i)) then
          Alcotest.failf "memo returned another key's digest (key %d, pass %d)" i pass;
        if Memo.length memo > Memo.capacity then Alcotest.fail "capacity exceeded"
      done
    done;
    let hits, misses = Memo.stats memo in
    Alcotest.(check int) "every lookup counted" (20 * Array.length keys) (hits + misses)
  in
  join_all [ spawn_catching hammer; spawn_catching hammer ];
  (* the hammering stayed on the workers' own tables *)
  Alcotest.(check (pair int int)) "main domain untouched" (0, 0) (Memo.stats memo);
  Array.iteri
    (fun i k ->
      Alcotest.(check string) "main-domain digest" expected.(i)
        (Memo.find_or_add memo k (fun () -> Sha1.digest k)))
    keys

let test_sha_scratch_two_domains () =
  let inputs =
    Array.init 64 (fun i -> String.make ((i * 17 mod 300) + 1) (Char.chr (40 + i)))
  in
  (* sequential single-domain references *)
  let ref1 = Array.map Sha1.digest inputs in
  let ref256 = Array.map Sha256.digest inputs in
  let hammer () =
    for pass = 0 to 49 do
      ignore pass;
      Array.iteri
        (fun i s ->
          if not (String.equal (Sha1.digest s) ref1.(i)) then
            Alcotest.failf "Sha1.digest diverged concurrently on input %d" i;
          if not (String.equal (Sha256.digest s) ref256.(i)) then
            Alcotest.failf "Sha256.digest diverged concurrently on input %d" i)
        inputs
    done
  in
  join_all [ spawn_catching hammer; spawn_catching hammer ]

let test_eviction_keeps_working_set_warm () =
  Measurement.clear_cache ();
  let window i = Printf.sprintf "evict-%03d-%s" i (String.make 100 'w') in
  (* 65 distinct windows: one past the 64-entry bound. The old wholesale
     Hashtbl.reset at capacity flushed everything on the 65th insert;
     single-victim FIFO eviction only drops window 0. *)
  for i = 0 to 64 do
    ignore (Measurement.window_digest (window i))
  done;
  let hits0, misses0 = Measurement.cache_stats () in
  Alcotest.(check int) "all cold at first" 0 hits0;
  Alcotest.(check int) "65 misses" 65 misses0;
  for i = 1 to 64 do
    ignore (Measurement.window_digest (window i))
  done;
  let hits, misses = Measurement.cache_stats () in
  Alcotest.(check int) "only the FIFO victim was evicted" 64 hits;
  Alcotest.(check int) "no re-derivation of survivors" 65 misses

(* --- sharded fleet ---------------------------------------------------- *)

let strip_outputs dispositions =
  (* (id, disposition kind, completion platform, finalization time) —
     the multiset the determinism property is about *)
  List.map
    (fun ((r : Request.t), d) ->
      let at =
        match d with
        | Request.Completed c -> c.Request.finished_ms
        | Request.Rejected x -> x.at_ms
        | Request.Expired x -> x.at_ms
        | Request.Failed x -> x.at_ms
      in
      let platform =
        match d with Request.Completed c -> c.Request.platform | _ -> -1
      in
      (r.Request.id, Request.disposition_name d, platform, at))
    dispositions

let run_echo_case ~domains ~platforms ~shards ~batch ~policy ~faults
    ~retry_budget ~breaker_failures ~clients ~per_client ~work_ms ~deadline
    ~seed =
  let config =
    {
      Fleet.default_config with
      platforms;
      shards;
      domains;
      batch_size = batch;
      queue_depth = 8;
      policy;
      seed;
      faults;
      retry_budget;
      breaker_failures;
    }
  in
  let fleet = Fleet.create ~config (Workload.echo ~work_ms ()) in
  Fleet.submit_open_loop fleet ~clients ~per_client ~mean_gap_ms:20.0
    ?deadline_ms:deadline
    ~payload:(fun ~client ~seq -> Printf.sprintf "mc-%d-%d" client seq)
    ();
  Fleet.run fleet;
  (Fleet.dispositions fleet, Fleet.summary fleet)

let test_rr_parity_across_domains () =
  let run ~domains =
    let config =
      {
        Fleet.default_config with
        platforms = 4;
        shards = 2;
        domains;
        batch_size = 1;
        policy = Dispatch.Round_robin;
        seed = "rr-parity";
      }
    in
    let fleet = Fleet.create ~config (Workload.echo ~work_ms:30.0 ()) in
    for i = 1 to 16 do
      ignore (Fleet.submit fleet (Printf.sprintf "rr-%d" i))
    done;
    Fleet.run fleet;
    let order =
      (* dispatch order: which platform served each request, by id *)
      List.filter_map
        (fun ((r : Request.t), d) ->
          match d with
          | Request.Completed c -> Some (r.Request.id, c.Request.platform)
          | _ -> None)
        (Fleet.dispositions fleet)
    in
    (order, Fleet.summary fleet)
  in
  let order1, s1 = run ~domains:1 in
  let order4, s4 = run ~domains:4 in
  Alcotest.(check (list (pair int int)))
    "round-robin dispatch order identical for 1 and 4 domains" order1 order4;
  Alcotest.(check bool) "summaries identical" true (s1 = s4);
  (* and the shard-local cursors actually rotated within each window *)
  let platforms_hit = List.sort_uniq compare (List.map snd order1) in
  Alcotest.(check (list int)) "every platform served" [ 0; 1; 2; 3 ] platforms_hit

let test_cross_shard_forwarding () =
  let config =
    {
      Fleet.default_config with
      platforms = 2;
      shards = 2;
      domains = 2;
      batch_size = 1;
      queue_depth = 8;
      policy = Dispatch.Least_loaded;
      seed = "forward";
    }
  in
  let fleet = Fleet.create ~config (Workload.echo ~work_ms:10.0 ()) in
  let crashed = ref [] in
  Fleet.add_crash_hook fleet (fun i -> crashed := i :: !crashed);
  (* shard 0's only platform goes down: its arrivals cannot be placed
     locally and must ride the barrier to shard 1 *)
  Fleet.crash_platform fleet 0;
  Alcotest.(check (list int)) "deferred hook ran for the manual crash" [ 0 ]
    !crashed;
  Alcotest.(check bool) "platform 0 down" false (Fleet.platform_up fleet 0);
  let ids = List.init 6 (fun i -> Fleet.submit fleet (Printf.sprintf "f-%d" i)) in
  Fleet.run fleet;
  let s = Fleet.summary fleet in
  Alcotest.(check int) "everything completed" 6 s.Fleet.completed;
  Alcotest.(check bool) "requests crossed shards" true (s.Fleet.forwarded > 0);
  List.iter
    (fun id ->
      match Fleet.disposition_of fleet id with
      | Some (Request.Completed c) ->
          Alcotest.(check int) "served by shard 1's platform" 1 c.Request.platform
      | d ->
          Alcotest.failf "request %d: expected completion, got %s" id
            (match d with
            | Some disp -> Request.disposition_name disp
            | None -> "nothing"))
    ids

let prop_domain_count_invisible =
  QCheck.Test.make ~name:"random workload x seed x {1,2,4} domains agree"
    ~count:6
    QCheck.(int_bound 100_000)
    (fun n ->
      let rng = Prng.create ~seed:(Printf.sprintf "mc-prop-%d" n) in
      let platforms = 2 + Prng.int_below rng 4 in
      let shards = 1 + Prng.int_below rng platforms in
      let batch = 1 + Prng.int_below rng 3 in
      let policy =
        match Prng.int_below rng 3 with
        | 0 -> Dispatch.Round_robin
        | 1 -> Dispatch.Least_loaded
        | _ -> Dispatch.Sealed_affinity
      in
      let faulty = Prng.int_below rng 2 = 1 in
      let faults = if faulty then Some (Injector.scaled 0.25) else None in
      let retry_budget = if faulty then 2 else 0 in
      let breaker_failures = if faulty then 2 else 0 in
      let clients = 1 + Prng.int_below rng 3 in
      let per_client = 1 + Prng.int_below rng 4 in
      let work_ms = 10.0 +. float_of_int (Prng.int_below rng 90) in
      let deadline =
        if Prng.int_below rng 3 = 0 then Some 500.0 else None
      in
      let seed = Printf.sprintf "mc-case-%d" n in
      let case ~domains =
        run_echo_case ~domains ~platforms ~shards ~batch ~policy ~faults
          ~retry_budget ~breaker_failures ~clients ~per_client ~work_ms
          ~deadline ~seed
      in
      let d1, s1 = case ~domains:1 in
      let d2, s2 = case ~domains:2 in
      let d4, s4 = case ~domains:4 in
      let m1 = strip_outputs d1 and m2 = strip_outputs d2
      and m4 = strip_outputs d4 in
      if m1 <> m2 || m1 <> m4 then
        QCheck.Test.fail_report "finalized multisets differ across domain counts";
      if d1 <> d2 || d1 <> d4 then
        QCheck.Test.fail_report "full dispositions differ across domain counts";
      if s1 <> s2 || s1 <> s4 then
        QCheck.Test.fail_report "summaries differ across domain counts";
      true)

let () =
  Alcotest.run "multicore"
    [
      ( "domain safety",
        [
          Alcotest.test_case "measurement memo: 2-domain hammer" `Quick
            test_measurement_memo_two_domains;
          Alcotest.test_case "content memo: 2-domain hammer" `Quick
            test_content_memo_two_domains;
          Alcotest.test_case "sha scratch: 2-domain hammer" `Quick
            test_sha_scratch_two_domains;
          Alcotest.test_case "memo eviction keeps 65-image set warm" `Quick
            test_eviction_keeps_working_set_warm;
        ] );
      ( "sharded fleet",
        [
          Alcotest.test_case "round-robin parity: 1 vs 4 domains" `Quick
            test_rr_parity_across_domains;
          Alcotest.test_case "cross-shard forwarding completes" `Quick
            test_cross_shard_forwarding;
          QCheck_alcotest.to_alcotest prop_domain_count_invisible;
        ] );
    ]
