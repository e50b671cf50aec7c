open Flicker_hw

let timing = Timing.default
let make_machine () = Machine.create ~memory_size:(1024 * 1024) ~cores:2 timing

let test_clock () =
  let c = Clock.create () in
  Alcotest.(check (float 0.0)) "starts at zero" 0.0 (Clock.now c);
  Clock.advance c 12.5;
  Clock.advance c 0.5;
  Alcotest.(check (float 1e-9)) "accumulates" 13.0 (Clock.now c);
  Alcotest.check_raises "negative" (Invalid_argument "Clock.advance: negative")
    (fun () -> Clock.advance c (-1.0));
  let (), span = Clock.time c (fun () -> Clock.advance c 5.0) in
  Alcotest.(check (float 1e-9)) "span" 5.0 (Clock.duration span)

let test_memory_rw () =
  let m = Memory.create ~size:8192 in
  Memory.write m ~addr:100 "hello";
  Alcotest.(check string) "read back" "hello" (Memory.read m ~addr:100 ~len:5);
  Memory.write_byte m 0 0xAB;
  Alcotest.(check int) "byte" 0xAB (Memory.read_byte m 0);
  Memory.write_u16_le m 10 0x1234;
  Alcotest.(check int) "u16le" 0x1234 (Memory.read_u16_le m 10);
  Alcotest.(check int) "u16 byte order" 0x34 (Memory.read_byte m 10);
  Memory.zero m ~addr:100 ~len:5;
  Alcotest.(check string) "zeroed" "\000\000\000\000\000" (Memory.read m ~addr:100 ~len:5)

let test_memory_bounds () =
  let m = Memory.create ~size:4096 in
  Alcotest.(check bool) "oob read" true
    (match Memory.read m ~addr:4090 ~len:10 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative addr" true
    (match Memory.read m ~addr:(-1) ~len:1 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "bad size" true
    (match Memory.create ~size:1000 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_memory_pages () =
  Alcotest.(check int) "page of 0" 0 (Memory.page_of_addr 0);
  Alcotest.(check int) "page of 4096" 1 (Memory.page_of_addr 4096);
  Alcotest.(check (pair int int)) "range" (0, 1)
    (Memory.pages_of_range ~addr:4000 ~len:200);
  Alcotest.(check (pair int int)) "single page" (2, 2)
    (Memory.pages_of_range ~addr:8192 ~len:4096)

let test_find_pattern () =
  let m = Memory.create ~size:8192 in
  Memory.write m ~addr:5000 "NEEDLE";
  Alcotest.(check (option int)) "found" (Some 5000) (Memory.find_pattern m "NEEDLE");
  Alcotest.(check (option int)) "absent" None (Memory.find_pattern m "MISSING");
  Memory.zero m ~addr:5000 ~len:6;
  Alcotest.(check (option int)) "erased" None (Memory.find_pattern m "NEEDLE")

let test_dev () =
  let dev = Dev.create ~pages:16 in
  Alcotest.(check bool) "initially open" true (Dev.allows dev ~addr:0 ~len:65536);
  Dev.protect_range dev ~addr:4096 ~len:8192;
  Alcotest.(check (list int)) "protected pages" [ 1; 2 ] (Dev.protected_pages dev);
  Alcotest.(check bool) "blocked" false (Dev.allows dev ~addr:5000 ~len:10);
  Alcotest.(check bool) "straddling blocked" false (Dev.allows dev ~addr:4000 ~len:200);
  Alcotest.(check bool) "outside allowed" true (Dev.allows dev ~addr:0 ~len:4096);
  Alcotest.(check bool) "after allowed" true (Dev.allows dev ~addr:12288 ~len:100);
  Dev.unprotect_range dev ~addr:4096 ~len:4096;
  Alcotest.(check (list int)) "partially cleared" [ 2 ] (Dev.protected_pages dev);
  Dev.clear dev;
  Alcotest.(check (list int)) "cleared" [] (Dev.protected_pages dev);
  Alcotest.(check bool) "empty access ok" true (Dev.allows dev ~addr:0 ~len:0)

let test_dma_blocked_by_dev () =
  let m = make_machine () in
  let nic = Dma.create m ~name:"evil-nic" in
  Flicker_hw.Memory.write m.Machine.memory ~addr:0x1000 "secret";
  (match Dma.read nic ~addr:0x1000 ~len:6 with
  | Ok data -> Alcotest.(check string) "dma read works when open" "secret" data
  | Error e -> Alcotest.fail e);
  Dev.protect_range m.Machine.dev ~addr:0x1000 ~len:4096;
  Alcotest.(check bool) "read blocked" true (Result.is_error (Dma.read nic ~addr:0x1000 ~len:6));
  Alcotest.(check bool) "write blocked" true
    (Result.is_error (Dma.write nic ~addr:0x1000 ~data:"evil"));
  Alcotest.(check string) "memory untouched" "secret"
    (Flicker_hw.Memory.read m.Machine.memory ~addr:0x1000 ~len:6);
  let attempts = Dma.attempts nic in
  Alcotest.(check int) "attempts logged" 3 (List.length attempts);
  Alcotest.(check bool) "blocked flagged" true
    (List.exists (fun a -> a.Dma.blocked) attempts)

let test_cpu () =
  let cpus = Cpu.create ~cores:4 in
  Alcotest.(check bool) "bsp is core 0" true ((Cpu.bsp cpus).Cpu.id = 0);
  Alcotest.(check int) "three aps" 3 (List.length (Cpu.aps cpus));
  Alcotest.(check bool) "not parked initially" false (Cpu.all_aps_parked cpus);
  List.iter (fun (c : Cpu.core) -> c.Cpu.run_state <- Cpu.Wait_for_sipi) (Cpu.aps cpus);
  Alcotest.(check bool) "parked" true (Cpu.all_aps_parked cpus);
  let seg = { Cpu.base = 100; limit = 49 } in
  Alcotest.(check bool) "segment contains" true (Cpu.segment_contains seg ~addr:0 ~len:50);
  Alcotest.(check bool) "segment overflow" false (Cpu.segment_contains seg ~addr:0 ~len:51)

let test_apic () =
  let m = make_machine () in
  let ap = List.hd (Cpu.aps m.Machine.cpus) in
  Alcotest.(check bool) "ap running" true (ap.Cpu.run_state = Cpu.Running);
  (* INIT IPI to a busy AP must fail *)
  Alcotest.(check bool) "init to busy fails" true
    (match Apic.send_init_ipi m with exception Failure _ -> true | () -> false);
  Apic.deschedule_aps m;
  Alcotest.(check bool) "descheduled" true (ap.Cpu.run_state = Cpu.Descheduled);
  Apic.send_init_ipi m;
  Alcotest.(check bool) "parked" true (Cpu.all_aps_parked m.Machine.cpus);
  Apic.release_aps m;
  Alcotest.(check bool) "released" true (ap.Cpu.run_state = Cpu.Running)

(* Table 2 calibration: the timing model must reproduce the measured
   SKINIT latencies for each SLB size. *)
let test_timing_table2 () =
  let check_ms name expected ~slb_kb =
    Alcotest.(check (float 0.5)) name expected
      (Timing.skinit_ms timing ~slb_bytes:(slb_kb * 1024))
  in
  check_ms "0 KB" 0.9 ~slb_kb:0;
  check_ms "4 KB" 11.9 ~slb_kb:4;
  check_ms "16 KB" 45.0 ~slb_kb:16;
  check_ms "32 KB" 89.2 ~slb_kb:32;
  check_ms "64 KB" 177.5 ~slb_kb:64

let test_timing_calibration () =
  (* Table 1: hashing the 5.06 MB kernel takes ~22 ms *)
  Alcotest.(check (float 0.5)) "kernel hash" 22.0
    (Timing.sha1_ms timing ~bytes:(5_306_000));
  (* Figure 9a/9b CPU costs *)
  Alcotest.(check (float 0.01)) "keygen 1024" 185.7 (Timing.rsa_keygen_ms timing ~bits:1024);
  Alcotest.(check (float 0.01)) "decrypt 1024" 4.6 (Timing.rsa_private_ms timing ~bits:1024);
  (* scaling shape: 2048-bit keygen is ~8x slower *)
  Alcotest.(check (float 1.0)) "keygen 2048" (185.7 *. 8.0)
    (Timing.rsa_keygen_ms timing ~bits:2048);
  Alcotest.(check (float 0.01)) "getrandom 128B" 1.3 (Timing.get_random_ms timing ~bytes:128);
  Alcotest.(check (float 0.01)) "getrandom 129B" 2.6 (Timing.get_random_ms timing ~bytes:129);
  (* network: one-way ~ half the 9.45 ms RTT *)
  Alcotest.(check (float 0.2)) "network" 4.7 (Timing.network_ms timing ~bytes:64)

let test_timing_profiles () =
  Alcotest.(check bool) "infineon quote faster" true
    (Timing.infineon.Timing.quote_ms < Timing.broadcom.Timing.quote_ms);
  Alcotest.(check bool) "infineon unseal faster" true
    (Timing.infineon.Timing.unseal_ms < Timing.broadcom.Timing.unseal_ms);
  let t = Timing.with_tpm Timing.infineon timing in
  Alcotest.(check string) "with_tpm swaps" "Infineon v1.2" t.Timing.tpm.Timing.tpm_name

(* --- SKINIT semantics --- *)

let machine_with_tpm () =
  let m = make_machine () in
  let measured = ref None in
  let resets = ref 0 in
  Machine.set_tpm_hooks m
    {
      Machine.dynamic_pcr_reset = (fun () -> incr resets);
      measure_into_pcr17 =
        (fun contents ->
          measured := Some contents;
          Flicker_crypto.Sha1.digest contents);
    };
  (m, measured, resets)

let write_slb m ~addr ~len ~entry =
  Memory.write_u16_le m.Machine.memory addr len;
  Memory.write_u16_le m.Machine.memory (addr + 2) entry;
  Memory.write m.Machine.memory ~addr:(addr + 4) (String.make (len - 4) 'P')

let park m =
  Apic.deschedule_aps m;
  Apic.send_init_ipi m

let test_skinit_happy_path () =
  let m, measured, resets = machine_with_tpm () in
  write_slb m ~addr:0x10000 ~len:1000 ~entry:4;
  park m;
  let launch = Skinit.execute m ~slb_base:0x10000 in
  Alcotest.(check int) "length" 1000 launch.Skinit.slb_length;
  Alcotest.(check int) "entry" 0x10004 launch.Skinit.entry_point;
  Alcotest.(check int) "window" 65536 launch.Skinit.protected_len;
  Alcotest.(check int) "dynamic reset" 1 !resets;
  (match !measured with
  | Some contents ->
      Alcotest.(check int) "measured bytes" 1000 (String.length contents);
      (* the launch carries the hook's digest instead of re-hashing *)
      Alcotest.(check string) "launch measurement" (Flicker_crypto.Sha1.digest contents)
        launch.Skinit.measurement
  | None -> Alcotest.fail "nothing measured");
  let bsp = Cpu.bsp m.Machine.cpus in
  Alcotest.(check bool) "interrupts off" false bsp.Cpu.interrupts_enabled;
  Alcotest.(check bool) "debug off" false bsp.Cpu.debug_enabled;
  Alcotest.(check bool) "paging off" false bsp.Cpu.paging_enabled;
  Alcotest.(check bool) "flat protected" true (bsp.Cpu.mode = Cpu.Flat_protected);
  (* DEV covers the whole window *)
  Alcotest.(check bool) "dev blocks window" false
    (Dev.allows m.Machine.dev ~addr:0x10000 ~len:65536);
  Skinit.teardown_dev m launch;
  Alcotest.(check bool) "dev dropped" true (Dev.allows m.Machine.dev ~addr:0x10000 ~len:65536)

let test_skinit_charges_time () =
  let m, _, _ = machine_with_tpm () in
  write_slb m ~addr:0x10000 ~len:(16 * 1024) ~entry:4;
  park m;
  let before = Clock.now m.Machine.clock in
  ignore (Skinit.execute m ~slb_base:0x10000);
  Alcotest.(check (float 0.5)) "16 KB SKINIT time" 45.0 (Clock.now m.Machine.clock -. before)

let test_skinit_preconditions () =
  (* busy APs *)
  let m, _, _ = machine_with_tpm () in
  write_slb m ~addr:0x10000 ~len:1000 ~entry:4;
  (match Skinit.execute m ~slb_base:0x10000 with
  | _ -> Alcotest.fail "should fail with busy APs"
  | exception Skinit.Skinit_error _ -> ());
  (* ring 3 caller *)
  let m2, _, _ = machine_with_tpm () in
  write_slb m2 ~addr:0x10000 ~len:1000 ~entry:4;
  park m2;
  (Cpu.bsp m2.Machine.cpus).Cpu.ring <- 3;
  (match Skinit.execute m2 ~slb_base:0x10000 with
  | _ -> Alcotest.fail "should fail from ring 3"
  | exception Skinit.Skinit_error _ -> ());
  (* no TPM *)
  let m3 = make_machine () in
  write_slb m3 ~addr:0x10000 ~len:1000 ~entry:4;
  park m3;
  (match Skinit.execute m3 ~slb_base:0x10000 with
  | _ -> Alcotest.fail "should fail without TPM"
  | exception Skinit.Skinit_error _ -> ());
  (* bad header: entry beyond length *)
  let m4, _, _ = machine_with_tpm () in
  write_slb m4 ~addr:0x10000 ~len:100 ~entry:200;
  park m4;
  (match Skinit.execute m4 ~slb_base:0x10000 with
  | _ -> Alcotest.fail "should fail with bad entry"
  | exception Skinit.Skinit_error _ -> ());
  (* unaligned base *)
  let m5, _, _ = machine_with_tpm () in
  park m5;
  (match Skinit.execute m5 ~slb_base:0x10001 with
  | _ -> Alcotest.fail "should fail unaligned"
  | exception Skinit.Skinit_error _ -> ());
  (* window past end of memory *)
  let m6, _, _ = machine_with_tpm () in
  park m6;
  match Skinit.execute m6 ~slb_base:(1024 * 1024 - 4096) with
  | _ -> Alcotest.fail "should fail out of range"
  | exception Skinit.Skinit_error _ -> ()

let test_machine_events () =
  let m = make_machine () in
  Machine.log_event m "first";
  Clock.advance m.Machine.clock 10.0;
  Machine.log_event m "second";
  let all = Machine.events_between m ~since:0.0 in
  Alcotest.(check int) "two events" 2 (List.length all);
  let late = Machine.events_between m ~since:5.0 in
  Alcotest.(check int) "one late event" 1 (List.length late);
  Alcotest.(check string) "ordering" "second" (List.hd late).Machine.detail

(* property: the DEV blocks an access iff the access overlaps a
   protected page *)
let prop_dev_soundness =
  QCheck.Test.make ~name:"DEV allows iff no protected page overlaps" ~count:200
    QCheck.(
      triple (int_range 0 (16 * 4096 - 1)) (int_range 1 8192)
        (pair (int_range 0 15) (int_range 1 4)))
    (fun (addr, len, (first_page, page_count)) ->
      let dev = Dev.create ~pages:16 in
      Dev.protect_range dev ~addr:(first_page * 4096)
        ~len:(min page_count (16 - first_page) * 4096);
      let len = min len ((16 * 4096) - addr) in
      let lo = addr / 4096 and hi = (addr + len - 1) / 4096 in
      let overlaps =
        List.exists
          (fun p -> p >= lo && p <= hi)
          (Dev.protected_pages dev)
      in
      Dev.allows dev ~addr ~len = not overlaps)

let prop_memory_rw =
  QCheck.Test.make ~name:"memory read-after-write" ~count:200
    QCheck.(pair (int_range 0 4000) (string_of_size Gen.(int_range 0 96)))
    (fun (addr, data) ->
      let m = Memory.create ~size:8192 in
      Memory.write m ~addr data;
      Memory.read m ~addr ~len:(String.length data) = data)

let () =
  Alcotest.run "hw"
    [
      ( "clock+memory",
        [
          Alcotest.test_case "clock" `Quick test_clock;
          Alcotest.test_case "memory rw" `Quick test_memory_rw;
          Alcotest.test_case "memory bounds" `Quick test_memory_bounds;
          Alcotest.test_case "pages" `Quick test_memory_pages;
          Alcotest.test_case "find pattern" `Quick test_find_pattern;
        ] );
      ( "dev+dma",
        [
          Alcotest.test_case "dev bitmap" `Quick test_dev;
          Alcotest.test_case "dma vs dev" `Quick test_dma_blocked_by_dev;
        ] );
      ( "cpu+apic",
        [
          Alcotest.test_case "cpu" `Quick test_cpu;
          Alcotest.test_case "apic" `Quick test_apic;
        ] );
      ( "timing",
        [
          Alcotest.test_case "table 2 calibration" `Quick test_timing_table2;
          Alcotest.test_case "cpu calibration" `Quick test_timing_calibration;
          Alcotest.test_case "profiles" `Quick test_timing_profiles;
        ] );
      ( "skinit",
        [
          Alcotest.test_case "happy path" `Quick test_skinit_happy_path;
          Alcotest.test_case "charges time" `Quick test_skinit_charges_time;
          Alcotest.test_case "preconditions" `Quick test_skinit_preconditions;
          Alcotest.test_case "event log" `Quick test_machine_events;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_dev_soundness; prop_memory_rw ] );
    ]
