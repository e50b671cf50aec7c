(* Tests for the fleet serving layer (flicker_service) and the satellite
   changes that ride with it: scheduler pruning, the Os_busy split, the
   retry helper, and CA batch signing. *)

open Flicker_service
module Platform = Flicker_core.Platform
module Session = Flicker_core.Session
module Scheduler = Flicker_os.Scheduler
module Machine = Flicker_hw.Machine
module Clock = Flicker_hw.Clock
module Timing = Flicker_hw.Timing
module Metrics = Flicker_obs.Metrics
module Prng = Flicker_crypto.Prng
module Rsa = Flicker_crypto.Rsa
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module CA = Flicker_apps.Cert_authority
module Injector = Flicker_fault.Injector

(* --- event queue ---------------------------------------------------- *)

let test_event_queue_ordering () =
  let q = Event_queue.create () in
  List.iter (fun (at, v) -> Event_queue.push q ~at_ms:at v)
    [ (5.0, "e"); (1.0, "a"); (3.0, "c"); (1.0, "b"); (3.0, "d") ];
  Alcotest.(check int) "length" 5 (Event_queue.length q);
  Alcotest.(check (option (float 1e-9))) "peek" (Some 1.0) (Event_queue.peek_ms q);
  let drained = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, v) ->
        drained := v :: !drained;
        drain ()
  in
  drain ();
  (* time-ordered, FIFO among equal timestamps *)
  Alcotest.(check (list string)) "stable order"
    [ "a"; "b"; "c"; "d"; "e" ] (List.rev !drained);
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

(* the pop in the old implementation left the popped payload reachable
   from the heap array; after the fix a popped element is collectable as
   soon as the caller drops it *)
let test_event_queue_releases_payloads () =
  let q = Event_queue.create () in
  let w = Weak.create 1 in
  let () =
    let s = String.init 64 (fun i -> Char.chr (i land 0x7f)) in
    Weak.set w 0 (Some s);
    Event_queue.push q ~at_ms:1.0 s
  in
  (match Event_queue.pop q with
  | Some (_, _) -> ()
  | None -> Alcotest.fail "queue lost the element");
  Gc.full_major ();
  Alcotest.(check bool) "popped payload released" false (Weak.check w 0);
  (* the queue itself is still alive and usable *)
  Event_queue.push q ~at_ms:2.0 "still works";
  Alcotest.(check int) "queue usable after pop" 1 (Event_queue.length q)

(* model-based property: pops always come out sorted by time, FIFO among
   equal timestamps, under arbitrary push/pop interleavings *)
let prop_event_queue_ordering =
  QCheck.Test.make ~name:"pop sorted by time, FIFO ties" ~count:300
    QCheck.(list (int_range (-10) 60))
    (fun ops ->
      let q = Event_queue.create () in
      let seq = ref 0 in
      (* pending pushes the queue must still hold, as (time, seq) *)
      let model = ref [] in
      let min_pending pending =
        List.fold_left
          (fun best x ->
            match best with
            | None -> Some x
            | Some (bt, bs) ->
                let xt, xs = x in
                if xt < bt || (xt = bt && xs < bs) then Some x else best)
          None pending
      in
      let step op =
        if op >= 0 then begin
          (* a handful of distinct timestamps, so ties are common *)
          let at = float_of_int (op mod 7) in
          Event_queue.push q ~at_ms:at !seq;
          model := (at, !seq) :: !model;
          incr seq;
          true
        end
        else
          match (Event_queue.pop q, !model) with
          | None, [] -> true
          | None, _ :: _ | Some _, [] -> false
          | Some (at, v), pending -> (
              match min_pending pending with
              | Some (et, es) when et = at && es = v ->
                  model := List.filter (fun (_, s) -> s <> es) pending;
                  true
              | _ -> false)
      in
      let interleaved = List.for_all step ops in
      (* drain whatever is left: the tail must come out in order too *)
      let rec drain () =
        match (Event_queue.pop q, !model) with
        | None, [] -> true
        | None, _ :: _ | Some _, [] -> false
        | Some (at, v), pending -> (
            match min_pending pending with
            | Some (et, es) when et = at && es = v ->
                model := List.filter (fun (_, s) -> s <> es) pending;
                drain ()
            | _ -> false)
      in
      interleaved && drain ())

(* --- fleet ----------------------------------------------------------- *)

let echo_config ~platforms ~queue_depth ~batch_size ~policy ~seed =
  { Fleet.default_config with platforms; queue_depth; batch_size; policy; seed }

let run_echo_fleet ~seed =
  let config =
    echo_config ~platforms:3 ~queue_depth:16 ~batch_size:4
      ~policy:Dispatch.Least_loaded ~seed
  in
  let fleet = Fleet.create ~config (Workload.echo ~work_ms:50.0 ()) in
  Fleet.submit_open_loop fleet ~clients:4 ~per_client:5 ~mean_gap_ms:30.0
    ~payload:(fun ~client ~seq -> Printf.sprintf "req-%d-%d" client seq)
    ();
  Fleet.run fleet;
  fleet

let test_determinism () =
  let a = run_echo_fleet ~seed:"det" in
  let b = run_echo_fleet ~seed:"det" in
  let sa = Fleet.summary a and sb = Fleet.summary b in
  Alcotest.(check int) "submitted" 20 sa.Fleet.submitted;
  Alcotest.(check int) "all completed" 20 sa.Fleet.completed;
  Alcotest.(check int) "same completed" sa.Fleet.completed sb.Fleet.completed;
  Alcotest.(check (float 1e-9)) "same makespan" sa.Fleet.makespan_ms sb.Fleet.makespan_ms;
  Alcotest.(check (float 1e-9)) "same p95" sa.Fleet.latency_p95_ms sb.Fleet.latency_p95_ms;
  let schedule fleet =
    List.map
      (fun (r, d) ->
        match d with
        | Request.Completed c ->
            (r.Request.id, c.Request.platform, c.Request.finished_ms)
        | _ -> (r.Request.id, -1, nan))
      (Fleet.dispositions fleet)
  in
  Alcotest.(check bool) "identical schedules" true (schedule a = schedule b);
  (* a different seed shifts arrivals, so the schedule must differ *)
  let c = run_echo_fleet ~seed:"det2" in
  Alcotest.(check bool) "seed changes the schedule" true (schedule a <> schedule c)

let test_admission_control () =
  let config =
    echo_config ~platforms:1 ~queue_depth:2 ~batch_size:1
      ~policy:Dispatch.Round_robin ~seed:"admission"
  in
  let fleet = Fleet.create ~config (Workload.echo ~work_ms:100.0 ()) in
  for i = 1 to 8 do
    ignore (Fleet.submit fleet (Printf.sprintf "burst-%d" i))
  done;
  Fleet.run fleet;
  let s = Fleet.summary fleet in
  (* one dispatches immediately, two sit in the queue, the rest bounce *)
  Alcotest.(check int) "completed" 3 s.Fleet.completed;
  Alcotest.(check int) "rejected" 5 s.Fleet.rejected;
  Alcotest.(check int) "conservation" 8
    (s.Fleet.completed + s.Fleet.rejected + s.Fleet.expired + s.Fleet.failed);
  let m = Fleet.metrics fleet in
  Alcotest.(check int) "rejects exported" 5 (Metrics.counter m "fleet.rejected");
  Alcotest.(check int) "completions exported" 3 (Metrics.counter m "fleet.completed");
  (match Metrics.histogram m "fleet.queue_depth" with
  | Some h -> Alcotest.(check bool) "queue depth bounded" true (h.Metrics.max_v <= 2.0)
  | None -> Alcotest.fail "no queue-depth histogram")

let test_deadlines () =
  let config =
    echo_config ~platforms:1 ~queue_depth:8 ~batch_size:1
      ~policy:Dispatch.Least_loaded ~seed:"deadline"
  in
  let fleet = Fleet.create ~config (Workload.echo ~work_ms:400.0 ()) in
  let ids = List.init 4 (fun i ->
      Fleet.submit fleet ~deadline_ms:1100.0 (Printf.sprintf "d-%d" i))
  in
  Fleet.run fleet;
  let s = Fleet.summary fleet in
  Alcotest.(check int) "completed" 3 s.Fleet.completed;
  Alcotest.(check int) "expired in queue" 1 s.Fleet.expired;
  Alcotest.(check int) "third finished late" 1 s.Fleet.deadline_misses;
  (* the expired one is the last, and it never consumed a session *)
  (match Fleet.disposition_of fleet (List.nth ids 3) with
  | Some (Request.Expired _) -> ()
  | d ->
      Alcotest.failf "expected expiry, got %s"
        (match d with
        | Some disp -> Request.disposition_name disp
        | None -> "nothing"));
  Alcotest.(check int) "three sessions only" 3 s.Fleet.sessions

(* regression for the deadline-boundary inconsistency: one helper, one
   convention (exactly-at-deadline is on time), and the response's return
   transit counts toward the client-perceived miss decision *)
let test_deadline_boundary () =
  let mk deadline =
    let config =
      echo_config ~platforms:1 ~queue_depth:8 ~batch_size:1
        ~policy:Dispatch.Least_loaded ~seed:"boundary"
    in
    let fleet = Fleet.create ~config (Workload.echo ~work_ms:100.0 ()) in
    let id = Fleet.submit fleet ?deadline_ms:deadline "boundary-req" in
    Fleet.run fleet;
    (fleet, id)
  in
  (* learn this deterministic schedule's exact finish and delivery *)
  let fleet0, id0 = mk None in
  let c0 =
    match Fleet.disposition_of fleet0 id0 with
    | Some (Request.Completed c) -> c
    | _ -> Alcotest.fail "no completion"
  in
  let rel_delivered = c0.Request.latency_ms in
  let sent =
    match Fleet.dispositions fleet0 with
    | [ (r, _) ] -> r.Request.sent_ms
    | _ -> Alcotest.fail "expected exactly one request"
  in
  let rel_finished = c0.Request.finished_ms -. sent in
  Alcotest.(check bool) "return transit is nonzero" true
    (rel_delivered > rel_finished);
  (* a deadline between finish and delivery: the machine was done in
     time, but the client got the answer late — that is a miss *)
  let mid = (rel_finished +. rel_delivered) /. 2.0 in
  let fleet1, id1 = mk (Some mid) in
  (match Fleet.disposition_of fleet1 id1 with
  | Some (Request.Completed c) ->
      Alcotest.(check bool) "return transit counts toward the miss" true
        c.Request.missed_deadline
  | _ -> Alcotest.fail "expected completion");
  (* a comfortably later deadline: on time *)
  let fleet2, id2 = mk (Some (rel_delivered +. 1.0)) in
  (match Fleet.disposition_of fleet2 id2 with
  | Some (Request.Completed c) ->
      Alcotest.(check bool) "later deadline met" false c.Request.missed_deadline
  | _ -> Alcotest.fail "expected completion");
  (* the helper pins the exact-boundary convention for every caller *)
  Alcotest.(check bool) "exactly at the deadline is on time" false
    (Fleet.past_deadline ~deadline_ms:(Some 100.0) ~at_ms:100.0);
  Alcotest.(check bool) "strictly after is late" true
    (Fleet.past_deadline ~deadline_ms:(Some 100.0) ~at_ms:100.000001);
  Alcotest.(check bool) "no deadline never misses" false
    (Fleet.past_deadline ~deadline_ms:None ~at_ms:1e12)

let completed_platforms fleet =
  List.filter_map
    (fun (r, d) ->
      match d with
      | Request.Completed c -> Some (r, c.Request.platform)
      | _ -> None)
    (Fleet.dispositions fleet)

let test_sealed_affinity_routing () =
  let config =
    echo_config ~platforms:4 ~queue_depth:64 ~batch_size:2
      ~policy:Dispatch.Sealed_affinity ~seed:"affinity"
  in
  let fleet = Fleet.create ~config (Workload.echo ~work_ms:20.0 ()) in
  Fleet.submit_open_loop fleet ~clients:5 ~per_client:6 ~mean_gap_ms:40.0
    ~payload:(fun ~client ~seq -> Printf.sprintf "aff-%d-%d" client seq)
    ();
  Fleet.run fleet;
  Alcotest.(check int) "all served" 30 (Fleet.summary fleet).Fleet.completed;
  (* every request of one client lands on one machine *)
  let by_client = Hashtbl.create 8 in
  List.iter
    (fun (r, platform) ->
      let client = Option.get r.Request.client in
      match Hashtbl.find_opt by_client client with
      | None -> Hashtbl.add by_client client platform
      | Some p -> Alcotest.(check int) ("client sticky: " ^ client) p platform)
    (completed_platforms fleet);
  Alcotest.(check int) "five clients seen" 5 (Hashtbl.length by_client)

let test_home_overrides_policy () =
  (* a sealed-state home binds under round-robin too: the blob only
     unseals on its own TPM *)
  let config =
    echo_config ~platforms:3 ~queue_depth:64 ~batch_size:1
      ~policy:Dispatch.Round_robin ~seed:"home"
  in
  let fleet = Fleet.create ~config (Workload.echo ~work_ms:10.0 ()) in
  for i = 1 to 6 do
    ignore (Fleet.submit fleet ~home:2 (Printf.sprintf "homed-%d" i))
  done;
  Fleet.run fleet;
  let placements = completed_platforms fleet in
  Alcotest.(check int) "all six served" 6 (List.length placements);
  List.iter
    (fun (_, platform) -> Alcotest.(check int) "on home platform" 2 platform)
    placements;
  match Fleet.submit fleet ~home:7 "bad" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range home accepted"

let ca_policy =
  {
    CA.allowed_suffixes = [ ".example.com" ];
    denied_subjects = [];
    max_certificates = 1000;
  }

let csr_rng = Prng.create ~seed:"service-csr-keys"

let ca_fleet ~batch_size ~seed =
  let config =
    {
      Fleet.default_config with
      platforms = 1;
      batch_size;
      queue_depth = 64;
      seed;
      policy = Dispatch.Least_loaded;
    }
  in
  Fleet.create ~config (Workload.ca ca_policy)

let submit_csrs fleet n =
  for i = 1 to n do
    let key = (Rsa.generate csr_rng ~bits:256).Rsa.pub in
    ignore
      (Fleet.submit fleet
         (Workload.ca_csr_payload
            ~subject:(Printf.sprintf "host%d.example.com" i)
            ~subject_key:key))
  done

let test_batching_amortization () =
  let single = ca_fleet ~batch_size:1 ~seed:"amortize" in
  let batched = ca_fleet ~batch_size:8 ~seed:"amortize" in
  submit_csrs single 8;
  submit_csrs batched 8;
  Fleet.run single;
  Fleet.run batched;
  let s1 = Fleet.summary single and s8 = Fleet.summary batched in
  Alcotest.(check int) "single all signed" 8 s1.Fleet.completed;
  Alcotest.(check int) "batched all signed" 8 s8.Fleet.completed;
  (* one unseal per session instead of eight: the batched makespan must
     beat 8 independent sessions by a wide margin, not a rounding one *)
  Alcotest.(check bool)
    (Printf.sprintf "batched %.0f ms well under single %.0f ms"
       s8.Fleet.makespan_ms s1.Fleet.makespan_ms)
    true
    (s8.Fleet.makespan_ms < s1.Fleet.makespan_ms /. 3.0);
  Alcotest.(check bool) "throughput gain" true
    (s8.Fleet.throughput_rps > s1.Fleet.throughput_rps *. 3.0);
  (* and the batched fleet's certificates still verify *)
  List.iter
    (fun (_, d) ->
      match d with
      | Request.Completed c -> (
          match Workload.decode_ca_output c.Request.output with
          | Ok (cert, ca_key) ->
              Alcotest.(check bool) "verifies" true
                (CA.verify_certificate ~ca_key cert)
          | Error m -> Alcotest.fail m)
      | d -> Alcotest.failf "not completed: %s" (Request.disposition_name d))
    (Fleet.dispositions batched)

(* --- CA batch signing (app layer) ------------------------------------ *)

let test_ca_sign_batch () =
  let p = Platform.create ~seed:"sign-batch" ~key_bits:512 () in
  let server =
    CA.create p ~key_bits:512
      { ca_policy with denied_subjects = [ "blocked.example.com" ] }
  in
  ignore (Result.get_ok (CA.init_ca server));
  let csr subject = { CA.subject; subject_key = (Rsa.generate csr_rng ~bits:256).Rsa.pub } in
  let t0 = Platform.now_ms p in
  let results =
    CA.sign_batch server
      [
        csr "a.example.com";
        csr "blocked.example.com";
        csr "b.example.com";
        csr "evil.net";
        csr "c.example.com";
      ]
  in
  let batch_ms = Platform.now_ms p -. t0 in
  (match results with
  | [ Ok a; Error denied; Ok b; Error foreign; Ok c ] ->
      Alcotest.(check (list int)) "serials skip denials" [ 1; 2; 3 ]
        [ a.CA.serial; b.CA.serial; c.CA.serial ];
      Alcotest.(check bool) "denied mentions policy" true
        (String.length denied > 0 && String.length foreign > 0)
  | _ -> Alcotest.fail "unexpected batch result shape");
  Alcotest.(check int) "audit log has the three" 3 (CA.issued_count server);
  (* the whole batch cost one unseal: well under three single signatures *)
  let solo = CA.create p ~key_bits:512 ca_policy in
  ignore (Result.get_ok (CA.init_ca solo));
  let t1 = Platform.now_ms p in
  ignore (Result.get_ok (CA.sign_csr solo (csr "solo.example.com")));
  let single_ms = Platform.now_ms p -. t1 in
  Alcotest.(check bool)
    (Printf.sprintf "batch of 5 (%.0f ms) < 3x single (%.0f ms)" batch_ms single_ms)
    true
    (batch_ms < 3.0 *. single_ms);
  (* a later single sign continues the serial sequence *)
  let d = Result.get_ok (CA.sign_csr server (csr "d.example.com")) in
  Alcotest.(check int) "serial continues" 4 d.CA.serial

let test_ca_sign_batch_chunks () =
  (* more CSRs than fit one 4 KB page: the batch splits but every CSR is
     still signed, in order *)
  let p = Platform.create ~seed:"chunking" ~key_bits:512 () in
  let server = CA.create p ~key_bits:512 ca_policy in
  ignore (Result.get_ok (CA.init_ca server));
  let csrs =
    List.init 40 (fun i ->
        {
          CA.subject = Printf.sprintf "chunk-%02d.example.com" i;
          subject_key = (Rsa.generate csr_rng ~bits:256).Rsa.pub;
        })
  in
  let results = CA.sign_batch server csrs in
  Alcotest.(check int) "one result per csr" 40 (List.length results);
  List.iteri
    (fun i r ->
      match r with
      | Ok cert -> Alcotest.(check int) "serial order" (i + 1) cert.CA.serial
      | Error e -> Alcotest.failf "csr %d failed: %s" i e)
    results;
  (* needed more than one session, but far fewer than 40 *)
  let sessions = p.Platform.sessions_run in
  Alcotest.(check bool)
    (Printf.sprintf "2..10 sessions (got %d)" sessions)
    true
    (sessions > 2 && sessions < 12)

(* --- scheduler pruning ------------------------------------------------ *)

let make_machine () = Machine.create Timing.default

let test_scheduler_pruning () =
  let m = make_machine () in
  let s = Scheduler.create m in
  let jobs = List.init 50 (fun i -> Scheduler.spawn s ~name:(string_of_int i) ~work_ms:10.0) in
  Alcotest.(check int) "all resident" 50 (Scheduler.resident_processes s);
  Scheduler.run_for s 10_000.0;
  Alcotest.(check int) "all pruned" 0 (Scheduler.resident_processes s);
  Alcotest.(check int) "all counted" 50 (Scheduler.completed_total s);
  Alcotest.(check (list string)) "none active" []
    (List.map (fun p -> p.Scheduler.name) (Scheduler.active_processes s));
  (* completion timestamps stay queryable on the spawner's records *)
  List.iter
    (fun p ->
      match p.Scheduler.completed_at with
      | Some at -> Alcotest.(check bool) "timestamped" true (at > 0.0)
      | None -> Alcotest.fail "record lost its completion")
    jobs;
  (match Scheduler.last_completion s with
  | Some (_, at) -> Alcotest.(check bool) "last completion recorded" true (at > 0.0)
  | None -> Alcotest.fail "no last completion");
  (* a still-running process stays resident *)
  let live = Scheduler.spawn s ~name:"live" ~work_ms:1e9 in
  Scheduler.run_for s 5.0;
  Alcotest.(check int) "live resident" 1 (Scheduler.resident_processes s);
  Alcotest.(check bool) "live not complete" true (live.Scheduler.completed_at = None)

let test_scheduler_pruning_fairness () =
  (* pruning mid-sync must not change fair-share arithmetic: one long job
     next to many short ones speeds up as they retire *)
  let m = make_machine () in
  let s = Scheduler.create m in
  let long = Scheduler.spawn s ~name:"long" ~work_ms:100.0 in
  let _shorts = List.init 3 (fun _ -> Scheduler.spawn s ~name:"s" ~work_ms:25.0) in
  (* 4 jobs on 2 cores: rate 1/2 until the shorts finish at t=50, then
     the long runs at full rate: 25 done by 50, the remaining 75 by 125 *)
  Scheduler.run_for s 125.0;
  (match long.Scheduler.completed_at with
  | Some at -> Alcotest.(check (float 1e-6)) "long completes at 125" 125.0 at
  | None -> Alcotest.fail "long never completed");
  Alcotest.(check int) "everything pruned" 0 (Scheduler.resident_processes s)

(* --- Os_busy split + retry helper ------------------------------------ *)

let hello_pal =
  lazy (Pal.define ~name:"service-test-hello" (fun env -> Pal_env.set_output env "hi"))

let test_os_busy_distinction () =
  let p = Platform.create ~seed:"busy" ~key_bits:512 () in
  (* nothing written: permanent *)
  (match Session.execute_from_sysfs p () with
  | Error (Session.Os_busy { msg; _ } as e) ->
      Alcotest.(check bool) "names the missing SLB" true
        (String.length msg >= 6 && String.sub msg 0 6 = "no SLB");
      Alcotest.(check bool) "not transient" false (Session.busy_is_transient e)
  | _ -> Alcotest.fail "expected Os_busy");
  (* mid-session: transient, and reported as such even with no SLB entry *)
  Scheduler.suspend p.Platform.scheduler;
  (match Session.execute_from_sysfs p () with
  | Error (Session.Os_busy { msg; transient } as e) ->
      Alcotest.(check bool) "names the running session" true
        (String.length msg >= 11 && String.sub msg 0 11 = "mid-session");
      Alcotest.(check bool) "flagged transient" true transient;
      Alcotest.(check bool) "transient" true (Session.busy_is_transient e)
  | _ -> Alcotest.fail "expected Os_busy");
  (match Session.execute p ~pal:(Lazy.force hello_pal) () with
  | Error (Session.Os_busy _ as e) ->
      Alcotest.(check bool) "execute also transient" true (Session.busy_is_transient e)
  | _ -> Alcotest.fail "expected Os_busy from execute");
  Scheduler.resume p.Platform.scheduler

let test_retry_busy () =
  let p = Platform.create ~seed:"retry" ~key_bits:512 () in
  let calls = ref 0 in
  let t0 = Platform.now_ms p in
  let result =
    Session.retry_busy p ~attempts:4 ~backoff_ms:10.0 (fun () ->
        incr calls;
        if !calls < 3 then Error (Session.os_busy_transient "mid-session: induced for test")
        else Session.execute p ~pal:(Lazy.force hello_pal) ())
  in
  (match result with
  | Ok o -> Alcotest.(check string) "eventually ran" "hi" o.Session.outputs
  | Error e ->
      Alcotest.fail
        (Format.asprintf "retry failed: %a" Session.pp_error e));
  Alcotest.(check int) "two retries" 3 !calls;
  Alcotest.(check int) "retries counted" 2
    (Metrics.counter p.Platform.machine.Machine.metrics "session.busy_retries");
  (* 10 + 20 ms of backoff charged to the clock, on top of the session *)
  Alcotest.(check bool) "backoff charged" true (Platform.now_ms p -. t0 >= 30.0);
  (* permanent busyness is not retried *)
  let calls = ref 0 in
  (match
     Session.retry_busy p ~attempts:5 (fun () ->
         incr calls;
         Error (Session.os_busy_permanent "no SLB written to the sysfs slb entry"))
   with
  | Error (Session.Os_busy _) -> ()
  | _ -> Alcotest.fail "expected the permanent error back");
  Alcotest.(check int) "single attempt" 1 !calls

let test_retry_busy_exhaustion () =
  let p = Platform.create ~seed:"exhaust" ~key_bits:512 () in
  let calls = ref 0 in
  let t0 = Platform.now_ms p in
  (match
     Session.retry_busy p ~attempts:3 ~backoff_ms:10.0 (fun () ->
         incr calls;
         Error
           (Session.os_busy_transient
              (Printf.sprintf "mid-session: attempt %d" !calls)))
   with
  | Error (Session.Os_busy { transient = true; msg }) ->
      (* the last attempt's error comes back, not the first's *)
      Alcotest.(check string) "last error surfaces" "mid-session: attempt 3" msg
  | Ok _ -> Alcotest.fail "an always-busy OS cannot succeed"
  | Error e -> Alcotest.failf "wrong error: %a" Session.pp_error e);
  Alcotest.(check int) "every attempt consumed" 3 !calls;
  (* two backoffs were charged (10 then 20 ms, doubling) and none after
     the final attempt *)
  Alcotest.(check (float 1e-6)) "exact backoff charged" 30.0
    (Platform.now_ms p -. t0);
  Alcotest.(check int) "retries counted" 2
    (Metrics.counter p.Platform.machine.Machine.metrics "session.busy_retries")

(* --- one run loop ----------------------------------------------------- *)

(* A one-shard fleet runs the same epoch loop as a sharded one. Cutting
   that loop anywhere with [run ~until_ms] must not change where it ends:
   the sliced run and one uninterrupted run agree on every disposition,
   the summary, the clock, and what each crash hook saw. Hooks run
   inline with one shard, so a hook deferred to the next barrier would
   see a later clock and more finalized requests when a cut falls
   between the crash and the window's end. *)
let prop_sliced_run_matches_uninterrupted =
  QCheck.Test.make ~name:"one shard: run sliced at random cuts = one run"
    ~count:8
    QCheck.(pair (int_bound 100_000) (list_of_size Gen.(1 -- 6) (int_bound 3000)))
    (fun (n, cuts) ->
      let rng = Prng.create ~seed:(Printf.sprintf "slice-prop-%d" n) in
      let platforms = 1 + Prng.int_below rng 3 in
      let batch_size = 1 + Prng.int_below rng 3 in
      let work_ms = 10.0 +. float_of_int (Prng.int_below rng 90) in
      let clients = 1 + Prng.int_below rng 4 in
      let per_client = 2 + Prng.int_below rng 5 in
      let config =
        {
          Fleet.default_config with
          platforms;
          batch_size;
          queue_depth = 8;
          seed = Printf.sprintf "slice-case-%d" n;
          faults = Some (Injector.scaled 0.5);
          retry_budget = 2;
          breaker_failures = 2;
        }
      in
      let case cuts =
        let fleet = Fleet.create ~config (Workload.echo ~work_ms ()) in
        let hooks = ref [] in
        Fleet.add_crash_hook fleet (fun g ->
            let finalized = List.length (Fleet.dispositions fleet) in
            hooks := (g, Fleet.now_ms fleet, finalized) :: !hooks);
        Fleet.submit_open_loop fleet ~clients ~per_client ~mean_gap_ms:20.0
          ~payload:(fun ~client ~seq -> Printf.sprintf "slice-%d-%d" client seq)
          ();
        let start = Fleet.now_ms fleet in
        List.iter
          (fun c -> Fleet.run ~until_ms:(start +. float_of_int c) fleet)
          (List.sort compare cuts);
        Fleet.run fleet;
        (Fleet.dispositions fleet, Fleet.summary fleet, Fleet.now_ms fleet, !hooks)
      in
      let d1, s1, now1, h1 = case [] in
      let d2, s2, now2, h2 = case cuts in
      if d1 <> d2 then QCheck.Test.fail_report "dispositions differ";
      if s1 <> s2 then QCheck.Test.fail_report "summaries differ";
      if now1 <> now2 then QCheck.Test.fail_report "now_ms differs";
      if h1 <> h2 then QCheck.Test.fail_report "crash hooks fired differently";
      true)

(* --- page chunking --------------------------------------------------- *)

(* pins the chunk boundaries the echo workload and the serving tier
   batch their sessions by: a 25-byte header plus 13 bytes of framing per
   item in a 4096-byte page fits 36 items of 100 bytes *)
let test_page_chunks () =
  let items = List.init 100 (fun i -> (i, String.make 100 'x')) in
  let chunks = Workload.page_chunks ~payload:snd items in
  Alcotest.(check (list int)) "chunk sizes" [ 36; 36; 28 ]
    (List.map List.length chunks);
  Alcotest.(check (list int)) "order kept" (List.map fst items)
    (List.map fst (List.concat chunks));
  let huge = String.make 5000 'y' in
  Alcotest.(check (list (list string))) "an oversized item rides alone"
    [ [ "a" ]; [ huge ]; [ "b" ] ]
    (Workload.page_chunks ~payload:Fun.id [ "a"; huge; "b" ]);
  Alcotest.(check int) "no items, no chunks" 0
    (List.length (Workload.page_chunks ~payload:Fun.id []))

(* --- percentile estimator ------------------------------------------- *)

let test_percentile_degenerate () =
  (* regression: the nearest-rank estimator indexed [rank] instead of
     [rank - 1], reading one past the p100 element, and an all-rejected
     run (no latencies at all) raised on the empty array *)
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Fleet.percentile [||] 50.0);
  Alcotest.(check (float 1e-9)) "singleton p50" 7.0 (Fleet.percentile [| 7.0 |] 50.0);
  Alcotest.(check (float 1e-9)) "singleton p95" 7.0 (Fleet.percentile [| 7.0 |] 95.0);
  Alcotest.(check (float 1e-9)) "singleton p100" 7.0 (Fleet.percentile [| 7.0 |] 100.0);
  let two = [| 1.0; 2.0 |] in
  Alcotest.(check (float 1e-9)) "pair p50" 1.0 (Fleet.percentile two 50.0);
  Alcotest.(check (float 1e-9)) "pair p95" 2.0 (Fleet.percentile two 95.0);
  Alcotest.(check (float 1e-9)) "pair p100" 2.0 (Fleet.percentile two 100.0);
  (* degenerate p clamps into the array instead of indexing outside it *)
  Alcotest.(check (float 1e-9)) "p0 clamps" 1.0 (Fleet.percentile two 0.0);
  Alcotest.(check (float 1e-9)) "p>100 clamps" 2.0 (Fleet.percentile two 120.0);
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50 of 10" 5.0 (Fleet.percentile ten 50.0);
  Alcotest.(check (float 1e-9)) "p95 of 10" 10.0 (Fleet.percentile ten 95.0)

let () =
  Alcotest.run "service"
    [
      ( "event-queue",
        [
          Alcotest.test_case "stable ordering" `Quick test_event_queue_ordering;
          Alcotest.test_case "pop releases payloads" `Quick
            test_event_queue_releases_payloads;
          QCheck_alcotest.to_alcotest prop_event_queue_ordering;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "deterministic schedule" `Quick test_determinism;
          Alcotest.test_case "admission control" `Quick test_admission_control;
          Alcotest.test_case "deadlines" `Quick test_deadlines;
          Alcotest.test_case "deadline boundary" `Quick test_deadline_boundary;
          Alcotest.test_case "sealed affinity" `Quick test_sealed_affinity_routing;
          Alcotest.test_case "home overrides policy" `Quick test_home_overrides_policy;
          Alcotest.test_case "batching amortization" `Quick test_batching_amortization;
          Alcotest.test_case "percentile degenerate samples" `Quick
            test_percentile_degenerate;
          Alcotest.test_case "echo page chunker" `Quick test_page_chunks;
          QCheck_alcotest.to_alcotest prop_sliced_run_matches_uninterrupted;
        ] );
      ( "ca-batching",
        [
          Alcotest.test_case "sign batch" `Quick test_ca_sign_batch;
          Alcotest.test_case "page chunking" `Quick test_ca_sign_batch_chunks;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "pruning" `Quick test_scheduler_pruning;
          Alcotest.test_case "pruning fairness" `Quick test_scheduler_pruning_fairness;
        ] );
      ( "os-busy",
        [
          Alcotest.test_case "message distinction" `Quick test_os_busy_distinction;
          Alcotest.test_case "retry with backoff" `Quick test_retry_busy;
          Alcotest.test_case "retry exhaustion" `Quick test_retry_busy_exhaustion;
        ] );
    ]
