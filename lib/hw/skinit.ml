exception Skinit_error of string

type launch = {
  slb_base : int;
  slb_length : int;
  entry_point : int;
  protected_base : int;
  protected_len : int;
  measurement : string;
}

let slb_window = 64 * 1024

let fail fmt = Printf.ksprintf (fun s -> raise (Skinit_error s)) fmt

let execute (m : Machine.t) ~slb_base =
  let bsp = Cpu.bsp m.cpus in
  if bsp.ring <> 0 then fail "SKINIT is privileged: caller in ring %d" bsp.ring;
  if not (Cpu.all_aps_parked m.cpus) then
    fail "SKINIT on multi-core requires all APs parked via INIT IPI";
  let hooks =
    match m.tpm_hooks with
    | Some h -> h
    | None -> fail "no TPM attached to the platform"
  in
  if slb_base < 0 || slb_base + slb_window > Memory.size m.memory then
    fail "SLB window [%#x, %#x) outside physical memory" slb_base (slb_base + slb_window);
  if slb_base mod Memory.page_size <> 0 then fail "SLB base must be page-aligned";
  let slb_length = Memory.read_u16_le m.memory slb_base in
  let entry_offset = Memory.read_u16_le m.memory (slb_base + 2) in
  if slb_length < 4 then fail "SLB header: length %d too small" slb_length;
  if entry_offset >= slb_length then
    fail "SLB header: entry point %#x beyond length %#x" entry_offset slb_length;
  (* Hardware protections, in architectural order: DMA exclusion first so
     no device can race the measurement, then interrupts and debug. All
     validation is done, so from here the launch always completes. *)
  Machine.protocol_event m "skinit.begin"
    ~args:[ ("tech", Flicker_obs.Tracer.Str "svm") ];
  Dev.protect_range m.dev ~addr:slb_base ~len:slb_window;
  bsp.interrupts_enabled <- false;
  bsp.debug_enabled <- false;
  (* The CPU transmits the SLB contents to the TPM, which resets the
     dynamic PCRs and extends PCR 17 with the measurement. *)
  let contents = Memory.read m.memory ~addr:slb_base ~len:slb_length in
  hooks.dynamic_pcr_reset ();
  let measurement = hooks.measure_into_pcr17 contents in
  Machine.charge m (Timing.skinit_ms m.timing ~slb_bytes:slb_length);
  (* Enter flat 32-bit protected mode at the entry point. *)
  bsp.mode <- Cpu.Flat_protected;
  bsp.paging_enabled <- false;
  bsp.ring <- 0;
  let flat = Cpu.flat_segment (Memory.size m.memory) in
  bsp.cs <- flat;
  bsp.ds <- flat;
  bsp.ss <- flat;
  Machine.log_event m
    (Printf.sprintf "skinit: launched SLB at %#x (len=%d, entry=+%#x)" slb_base
       slb_length entry_offset);
  Machine.protocol_event m "skinit.end";
  {
    slb_base;
    slb_length;
    entry_point = slb_base + entry_offset;
    protected_base = slb_base;
    protected_len = slb_window;
    measurement;
  }

let teardown_dev (m : Machine.t) launch =
  Dev.unprotect_range m.dev ~addr:launch.protected_base ~len:launch.protected_len;
  Machine.log_event m "skinit: DEV protection dropped"
