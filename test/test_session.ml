open Flicker_core
open Flicker_crypto
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Builder = Flicker_slb.Builder
module Layout = Flicker_slb.Layout
module Machine = Flicker_hw.Machine
module Memory = Flicker_hw.Memory
module Cpu = Flicker_hw.Cpu
module Tpm = Flicker_tpm.Tpm

let make_platform ?seed () = Platform.create ?seed ~key_bits:512 ()

let hello =
  Pal.define ~name:"session-hello" (fun env ->
      Pal_env.set_output env ("Hello, " ^ env.Pal_env.inputs))

let run ?flavor ?inputs ?nonce platform pal =
  match Session.execute platform ~pal ?flavor ?inputs ?nonce () with
  | Ok outcome -> outcome
  | Error e -> Alcotest.failf "session failed: %a" Session.pp_error e

let test_basic_outputs () =
  let p = make_platform () in
  let outcome = run ~inputs:"world" p hello in
  Alcotest.(check string) "outputs" "Hello, world" outcome.Session.outputs;
  Alcotest.(check bool) "no fault" true (outcome.Session.pal_fault = None);
  (* outputs also visible through sysfs, as the application reads them *)
  Alcotest.(check (option string)) "sysfs outputs" (Some "Hello, world")
    (Flicker_os.Sysfs.read p.Platform.sysfs ~path:"outputs")

let test_phases_present () =
  let p = make_platform () in
  let outcome = run p hello in
  let phases = List.map fst outcome.Session.breakdown in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (Session.phase_name phase) true (List.mem phase phases))
    [
      Session.Load_slb; Session.Suspend_os; Session.Skinit; Session.Slb_init;
      Session.Pal_execution; Session.Cleanup; Session.Pcr_extends; Session.Resume_os;
    ];
  (* total equals the sum of phases *)
  let sum = List.fold_left (fun acc (_, ms) -> acc +. ms) 0.0 outcome.Session.breakdown in
  Alcotest.(check (float 1e-6)) "phases sum to total" outcome.Session.total_ms sum

let test_skinit_time_by_flavor () =
  let p = make_platform () in
  let std = run ~flavor:Builder.Standard p hello in
  let opt = run ~flavor:Builder.Optimized p hello in
  (* the optimized stub keeps SKINIT near 14 ms; the standard image pays
     per measured byte *)
  Alcotest.(check (float 1.0)) "optimized skinit ~13.7" 13.7
    (Session.phase_ms opt Session.Skinit);
  Alcotest.(check bool) "standard differs from optimized" true
    (Session.phase_ms std Session.Skinit <> Session.phase_ms opt Session.Skinit);
  (* but the optimized flavor pays a CPU hash + extend in init *)
  Alcotest.(check bool) "optimized init cost" true
    (Session.phase_ms opt Session.Slb_init > Session.phase_ms std Session.Slb_init)

let test_pcr17_value () =
  let p = make_platform () in
  let nonce = Platform.fresh_nonce p in
  let outcome = run ~inputs:"in" ~nonce p hello in
  let image = Builder.build ~flavor:Builder.Optimized hello in
  (* during-PAL value matches the measurement chain *)
  Alcotest.(check string) "pcr17 during"
    (Measurement.after_skinit image ~slb_base:p.Platform.slb_base)
    outcome.Session.pcr17_during;
  (* final value matches the full chain with io extends and cap *)
  Alcotest.(check string) "pcr17 final"
    (Measurement.final image ~slb_base:p.Platform.slb_base ~inputs:"in"
       ~outputs:outcome.Session.outputs ~nonce:(Some nonce))
    outcome.Session.pcr17_final;
  (* and the live TPM agrees *)
  Alcotest.(check string) "tpm agrees" outcome.Session.pcr17_final
    (Result.get_ok (Tpm.pcr_read p.Platform.tpm 17))

let test_measurement_differs_by_pal () =
  let p = make_platform () in
  let other = Pal.define ~name:"session-other" (fun env -> Pal_env.set_output env "x") in
  (* with the optimized loader, SKINIT itself measures only the shared
     stub — identical for every PAL; the PAL's identity enters PCR 17 via
     the stub's window-hash extend *)
  let o1 = run p hello in
  let o2 = run p other in
  Alcotest.(check string) "optimized: same stub measurement" o1.Session.slb_measurement
    o2.Session.slb_measurement;
  Alcotest.(check bool) "optimized: different pcr17" true
    (o1.Session.pcr17_during <> o2.Session.pcr17_during);
  (* with standard images, the SKINIT measurement itself distinguishes *)
  let s1 = run ~flavor:Builder.Standard p hello in
  let s2 = run ~flavor:Builder.Standard p other in
  Alcotest.(check bool) "standard: different measurements" true
    (s1.Session.slb_measurement <> s2.Session.slb_measurement)

let test_measurement_stable_across_sessions () =
  let p = make_platform () in
  let o1 = run p hello in
  let o2 = run p hello in
  Alcotest.(check string) "same PAL, same measurement" o1.Session.slb_measurement
    o2.Session.slb_measurement;
  Alcotest.(check string) "same during-value" o1.Session.pcr17_during o2.Session.pcr17_during

(* The corruption hook flips the first PAL byte after the module loads
   the window: whatever the memos hold from the honest warm-up session,
   the launch must re-hash the changed bytes. PCR 17 must then hold
   exactly the chain over the corrupted window. *)
let corrupted_final ?acm image ~slb_base ~inputs =
  let w = Bytes.of_string (Measurement.initialized image ~slb_base) in
  let off = image.Builder.pal_region_off in
  Bytes.set w off (Char.chr (Char.code (Bytes.get w off) lxor 0xff));
  let w = Bytes.to_string w in
  let start =
    match acm with
    | None -> Flicker_tpm.Tpm_types.zero_digest
    | Some a -> Measurement.extend Flicker_tpm.Tpm_types.zero_digest (Sha1.digest a)
  in
  let launched =
    Measurement.extend start (Sha1.digest (String.sub w 0 image.Builder.measured_length))
  in
  let launched =
    match image.Builder.flavor with
    | Builder.Standard -> launched
    | Builder.Optimized -> Measurement.extend launched (Sha1.digest w)
  in
  Measurement.extend_chain launched
    (Measurement.io_extends ~inputs ~outputs:"" ~nonce:None
    @ [ Flicker_slb.Slb_core.cap_value ])

let test_corrupt_slb_rehashes () =
  let acm = Flicker_hw.Senter.default_acm in
  List.iter
    (fun (label, tech, acm, flavor) ->
      let p = make_platform ~seed:("corrupt-" ^ label) () in
      let honest =
        match Session.execute p ~pal:hello ~flavor ~tech ~inputs:"in" () with
        | Ok o -> o
        | Error e -> Alcotest.failf "%s honest: %a" label Session.pp_error e
      in
      Session.corrupt_slb_in_memory p;
      (match Session.execute p ~pal:hello ~flavor ~tech ~inputs:"in" () with
      | Error Session.Unknown_pal -> ()
      | Error e -> Alcotest.failf "%s: unexpected %a" label Session.pp_error e
      | Ok _ -> Alcotest.failf "%s: corrupted PAL dispatched" label);
      let pcr = Result.get_ok (Tpm.pcr_read p.Platform.tpm 17) in
      let image = Builder.build ~flavor hello in
      Alcotest.(check string) (label ^ ": pcr17 is the corrupted chain")
        (corrupted_final ?acm image ~slb_base:p.Platform.slb_base ~inputs:"in")
        pcr;
      Alcotest.(check bool) (label ^ ": differs from honest") true
        (pcr <> honest.Session.pcr17_final);
      (* and the memos did not go stale: an honest session measures as
         before *)
      let again =
        match Session.execute p ~pal:hello ~flavor ~tech ~inputs:"in" () with
        | Ok o -> o
        | Error e -> Alcotest.failf "%s again: %a" label Session.pp_error e
      in
      Alcotest.(check string) (label ^ ": recovered") honest.Session.pcr17_final
        again.Session.pcr17_final)
    [
      ("svm-std", Session.Svm, None, Builder.Standard);
      ("svm-opt", Session.Svm, None, Builder.Optimized);
      ("txt-std", Session.Txt { acm }, Some acm, Builder.Standard);
      ("txt-opt", Session.Txt { acm }, Some acm, Builder.Optimized);
    ]

(* Deterministic work gate: a warm Optimized session identifies its
   window, stub and code through the content memos, so the only SHA-1
   left is the PCR extends and the I/O measurements (~260 bytes; the
   unmemoized path hashed over 10 KB). *)
let test_warm_session_hash_budget () =
  let p = make_platform ~seed:"hash-budget" () in
  ignore (run ~inputs:"world" p hello);
  let before = Sha1.bytes_hashed () in
  ignore (run ~inputs:"world" p hello);
  let hashed = Sha1.bytes_hashed () - before in
  if hashed > 1024 then Alcotest.failf "warm session hashed %d bytes (budget 1024)" hashed

(* One Optimized session looks up three memos — patched image, SKINIT
   measurement, window digest — and [clear_cache] resets all of them. *)
let test_memo_stats_cover_launch () =
  let p = make_platform ~seed:"memo-stats" () in
  Measurement.clear_cache ();
  ignore (run p hello);
  Alcotest.(check (pair int int)) "cold session" (0, 3) (Measurement.cache_stats ());
  ignore (run p hello);
  Alcotest.(check (pair int int)) "warm session" (3, 3) (Measurement.cache_stats ());
  Measurement.clear_cache ();
  ignore (run p hello);
  Alcotest.(check (pair int int)) "cold again" (0, 3) (Measurement.cache_stats ())

let test_cleanup_zeroizes () =
  let secret = "PAL-SECRET-0123456789" in
  let leaky =
    Pal.define ~name:"session-leaky" (fun env ->
        (* write a secret into the SLB scratch space and 'forget' it *)
        Pal_env.write_phys env
          ~addr:(env.Pal_env.inputs_addr - Layout.stack_size)
          secret;
        Pal_env.set_output env "done")
  in
  let p = make_platform () in
  ignore (run p leaky);
  Alcotest.(check (option int)) "secret erased by cleanup" None
    (Memory.find_pattern p.Platform.machine.Machine.memory secret)

let test_inputs_visible_to_pal () =
  let echo =
    Pal.define ~name:"session-echo-mem" (fun env ->
        (* read the inputs back out of the input page in memory *)
        let from_mem =
          Pal_env.read_phys env ~addr:env.Pal_env.inputs_addr
            ~len:(String.length env.Pal_env.inputs)
        in
        Pal_env.set_output env from_mem)
  in
  let p = make_platform () in
  let outcome = run ~inputs:"via-memory" p echo in
  Alcotest.(check string) "inputs via memory page" "via-memory" outcome.Session.outputs

let probe_platform = make_platform ~seed:"probe" ()

let probe =
  Pal.define ~name:"session-probe" (fun env ->
      let scheduler_suspended =
        Flicker_os.Scheduler.is_suspended probe_platform.Platform.scheduler
      in
      let bsp = Cpu.bsp probe_platform.Platform.machine.Machine.cpus in
      Pal_env.set_output env
        (Printf.sprintf "%b %b %b" scheduler_suspended bsp.Cpu.interrupts_enabled
           (Cpu.all_aps_parked probe_platform.Platform.machine.Machine.cpus)))

let test_os_suspended_during_pal () =
  let outcome = run probe_platform probe in
  Alcotest.(check string) "suspended, no interrupts, APs parked" "true false true"
    outcome.Session.outputs;
  (* and everything is back afterwards *)
  let bsp = Cpu.bsp probe_platform.Platform.machine.Machine.cpus in
  Alcotest.(check bool) "resumed" false
    (Flicker_os.Scheduler.is_suspended probe_platform.Platform.scheduler);
  Alcotest.(check bool) "interrupts back" true bsp.Cpu.interrupts_enabled;
  Alcotest.(check bool) "aps running" false
    (Cpu.all_aps_parked probe_platform.Platform.machine.Machine.cpus);
  Alcotest.(check bool) "paging back" true bsp.Cpu.paging_enabled

let dev_platform = make_platform ~seed:"dev-probe" ()

let dev_probe =
  Pal.define ~name:"session-dev-probe" (fun env ->
      Pal_env.set_output env
        (string_of_bool
           (Flicker_hw.Dev.allows dev_platform.Platform.machine.Machine.dev
              ~addr:dev_platform.Platform.slb_base ~len:65536)))

let test_dev_protection_window () =
  let outcome = run dev_platform dev_probe in
  Alcotest.(check string) "DMA blocked during session" "false" outcome.Session.outputs;
  Alcotest.(check bool) "DMA allowed after" true
    (Flicker_hw.Dev.allows dev_platform.Platform.machine.Machine.dev
       ~addr:dev_platform.Platform.slb_base ~len:65536)

let test_os_protection_fault () =
  let rogue =
    Pal.define ~name:"session-rogue" ~modules:[ Pal.Os_protection ] (fun env ->
        Pal_env.set_output env "before fault";
        (* OS memory far below the SLB; this must trap *)
        ignore (Pal_env.read_phys env ~addr:0x1000 ~len:16))
  in
  let p = make_platform () in
  let outcome = run p rogue in
  Alcotest.(check bool) "fault recorded" true (outcome.Session.pal_fault <> None);
  (* ring transition happened and was undone *)
  Alcotest.(check int) "back in ring 0" 0
    (Cpu.bsp p.Platform.machine.Machine.cpus).Cpu.ring

let test_unprotected_pal_reads_os_memory () =
  (* without the OS-protection module, a PAL really can read OS memory —
     the control condition for the previous test *)
  let p = make_platform () in
  Memory.write p.Platform.machine.Machine.memory ~addr:0x1000 "oskernel";
  let snoop =
    Pal.define ~name:"session-snoop" (fun env ->
        Pal_env.set_output env (Pal_env.read_phys env ~addr:0x1000 ~len:8))
  in
  let outcome = run p snoop in
  Alcotest.(check string) "read OS memory" "oskernel" outcome.Session.outputs;
  Alcotest.(check bool) "no fault" true (outcome.Session.pal_fault = None)

let test_corrupt_slb_changes_measurement () =
  let p = make_platform () in
  let good = run p hello in
  Session.corrupt_slb_in_memory p;
  match Session.execute p ~pal:hello () with
  | Error Session.Unknown_pal ->
      (* nothing ran; the OS recovered; a fresh session works again *)
      let again = run p hello in
      Alcotest.(check string) "recovered" good.Session.slb_measurement
        again.Session.slb_measurement
  | Error e -> Alcotest.failf "unexpected error: %a" Session.pp_error e
  | Ok outcome ->
      Alcotest.(check bool) "measurement differs" true
        (outcome.Session.slb_measurement <> good.Session.slb_measurement)

let test_input_validation () =
  let p = make_platform () in
  Alcotest.(check bool) "oversized inputs" true
    (match Session.execute p ~pal:hello ~inputs:(String.make 5000 'x') () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad nonce" true
    (match Session.execute p ~pal:hello ~nonce:"short" () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_output_page_limit () =
  let big_mouth =
    Pal.define ~name:"session-bigmouth" (fun env ->
        Pal_env.set_output env (String.make (Layout.io_page_size + 1) 'x'))
  in
  let p = make_platform () in
  Alcotest.(check bool) "oversized output raises in PAL" true
    (match run p big_mouth with
    | exception Invalid_argument _ -> true
    | _outcome -> false)

let test_execute_from_sysfs () =
  (* the paper's application flow: write slb + inputs, poke control *)
  let p = make_platform () in
  let fs = p.Platform.sysfs in
  (* nothing written yet *)
  (match Session.execute_from_sysfs p () with
  | Error (Session.Os_busy _) -> ()
  | _ -> Alcotest.fail "missing slb accepted");
  let image = Builder.build ~flavor:Builder.Optimized hello in
  Flicker_os.Sysfs.write fs ~path:"slb" image.Builder.bytes;
  Flicker_os.Sysfs.write fs ~path:"inputs" "sysfs-world";
  Flicker_os.Sysfs.write fs ~path:"control" "1";
  (match Session.execute_from_sysfs p () with
  | Error e -> Alcotest.failf "sysfs session: %a" Session.pp_error e
  | Ok outcome ->
      Alcotest.(check string) "outputs" "Hello, sysfs-world" outcome.Session.outputs;
      Alcotest.(check (option string)) "outputs entry" (Some "Hello, sysfs-world")
        (Flicker_os.Sysfs.read fs ~path:"outputs"));
  (* standard-flavor blobs are recognized from the header too *)
  let std = Builder.build ~flavor:Builder.Standard hello in
  Flicker_os.Sysfs.write fs ~path:"slb" std.Builder.bytes;
  (match Session.execute_from_sysfs p () with
  | Error e -> Alcotest.failf "std sysfs session: %a" Session.pp_error e
  | Ok outcome ->
      Alcotest.(check string) "std measured length matches"
        (Measurement.after_skinit std ~slb_base:p.Platform.slb_base)
        outcome.Session.pcr17_during);
  (* a corrupt blob is rejected before any launch *)
  Flicker_os.Sysfs.write fs ~path:"slb" (String.make Flicker_slb.Layout.slb_size '\xff');
  match Session.execute_from_sysfs p () with
  | Error (Session.Os_busy _) | Error Session.Unknown_pal -> ()
  | _ -> Alcotest.fail "corrupt sysfs blob accepted"

let test_sessions_increment () =
  let p = make_platform () in
  ignore (run p hello);
  ignore (run p hello);
  Alcotest.(check int) "two sessions" 2 p.Platform.sessions_run

let test_measurement_module () =
  let image = Builder.build ~flavor:Builder.Standard hello in
  let base = 0x200000 in
  (* standard: V = extend(0, H(image)) *)
  Alcotest.(check string) "standard after_skinit"
    (Measurement.extend (String.make 20 '\000') (Measurement.of_image image ~slb_base:base))
    (Measurement.after_skinit image ~slb_base:base);
  (* different base gives different measurement (patched GDT) *)
  Alcotest.(check bool) "base-sensitive" true
    (Measurement.of_image image ~slb_base:base
    <> Measurement.of_image image ~slb_base:0x300000);
  (* io extends: nonce present adds one link *)
  Alcotest.(check int) "io extends without nonce" 2
    (List.length (Measurement.io_extends ~inputs:"" ~outputs:"" ~nonce:None));
  Alcotest.(check int) "io extends with nonce" 3
    (List.length
       (Measurement.io_extends ~inputs:"" ~outputs:"" ~nonce:(Some (String.make 20 'n'))));
  (* final differs when outputs differ *)
  Alcotest.(check bool) "output-sensitive" true
    (Measurement.final image ~slb_base:base ~inputs:"" ~outputs:"a" ~nonce:None
    <> Measurement.final image ~slb_base:base ~inputs:"" ~outputs:"b" ~nonce:None)

let () =
  Alcotest.run "session"
    [
      ( "execution",
        [
          Alcotest.test_case "basic outputs" `Quick test_basic_outputs;
          Alcotest.test_case "phases present" `Quick test_phases_present;
          Alcotest.test_case "skinit by flavor" `Quick test_skinit_time_by_flavor;
          Alcotest.test_case "inputs via memory" `Quick test_inputs_visible_to_pal;
          Alcotest.test_case "session count" `Quick test_sessions_increment;
          Alcotest.test_case "sysfs entry point" `Quick test_execute_from_sysfs;
          Alcotest.test_case "input validation" `Quick test_input_validation;
          Alcotest.test_case "output page limit" `Quick test_output_page_limit;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "pcr17 chain" `Quick test_pcr17_value;
          Alcotest.test_case "differs by pal" `Quick test_measurement_differs_by_pal;
          Alcotest.test_case "stable across sessions" `Quick
            test_measurement_stable_across_sessions;
          Alcotest.test_case "measurement functions" `Quick test_measurement_module;
          Alcotest.test_case "corrupt slb" `Quick test_corrupt_slb_changes_measurement;
          Alcotest.test_case "corrupt slb re-hashes" `Quick test_corrupt_slb_rehashes;
          Alcotest.test_case "warm session hash budget" `Quick test_warm_session_hash_budget;
          Alcotest.test_case "memo stats cover launch" `Quick test_memo_stats_cover_launch;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "cleanup zeroizes" `Quick test_cleanup_zeroizes;
          Alcotest.test_case "os suspended during pal" `Quick test_os_suspended_during_pal;
          Alcotest.test_case "dev window" `Quick test_dev_protection_window;
          Alcotest.test_case "os-protection fault" `Quick test_os_protection_fault;
          Alcotest.test_case "unprotected pal reads os" `Quick
            test_unprotected_pal_reads_os_memory;
        ] );
    ]
