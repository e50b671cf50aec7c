module Tracer = Flicker_obs.Tracer
module Metrics = Flicker_obs.Metrics
module Machine = Flicker_hw.Machine
module Memory = Flicker_hw.Memory
module Clock = Flicker_hw.Clock
module Cpu = Flicker_hw.Cpu
module Apic = Flicker_hw.Apic
module Dma = Flicker_hw.Dma
module Skinit = Flicker_hw.Skinit
module Tpm = Flicker_tpm.Tpm
module Scheduler = Flicker_os.Scheduler
module Sysfs = Flicker_os.Sysfs
module Os_state = Flicker_os.Os_state
module Builder = Flicker_slb.Builder
module Layout = Flicker_slb.Layout
module Slb_core = Flicker_slb.Slb_core
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Mod_os_protection = Flicker_slb.Mod_os_protection
module Mod_memory = Flicker_slb.Mod_memory

type phase =
  | Load_slb
  | Suspend_os
  | Skinit
  | Slb_init
  | Pal_execution
  | Cleanup
  | Pcr_extends
  | Resume_os

let phase_name = function
  | Load_slb -> "Load SLB"
  | Suspend_os -> "Suspend OS"
  | Skinit -> "SKINIT"
  | Slb_init -> "SLB Core init"
  | Pal_execution -> "Execute PAL"
  | Cleanup -> "Cleanup"
  | Pcr_extends -> "Extend PCR"
  | Resume_os -> "Resume OS"

type outcome = {
  outputs : string;
  slb_measurement : string;
  pcr17_during : string;
  pcr17_final : string;
  breakdown : (phase * float) list;
  total_ms : float;
  pal_fault : string option;
}

let phase_ms outcome phase =
  match List.assoc_opt phase outcome.breakdown with Some ms -> ms | None -> 0.0

type error =
  | Skinit_failed of string
  | Unknown_pal
  | Os_busy of { transient : bool; msg : string }

let os_busy_transient msg = Os_busy { transient = true; msg }
let os_busy_permanent msg = Os_busy { transient = false; msg }

let pp_error fmt = function
  | Skinit_failed msg -> Format.fprintf fmt "SKINIT failed: %s" msg
  | Unknown_pal -> Format.fprintf fmt "measured SLB matches no registered PAL"
  | Os_busy { msg; _ } -> Format.fprintf fmt "OS not ready for a session: %s" msg

(* Transience is declared where the error is raised, not guessed from the
   message text: mid-session busyness clears once the running session
   resumes the OS; a missing/short SLB image will not fix itself however
   long we wait *)
let busy_is_transient = function
  | Os_busy { transient; _ } -> transient
  | Skinit_failed _ | Unknown_pal -> false

(* PCR 17 read for bookkeeping, bypassing the command path so it charges
   nothing (the session code already knows the value; this is the
   simulator peeking, not the TPM serving a command). *)
let pcr17_of platform =
  match Tpm.pcr_composite platform.Platform.tpm [ 17 ] with
  | [ (17, v) ] -> v
  | _ -> assert false

let extend_pcr17 ?kind platform value =
  match Tpm.pcr_extend ?kind platform.Platform.tpm 17 value with
  | Ok _ -> ()
  | Error e ->
      failwith ("session: PCR 17 extend rejected: " ^ Flicker_tpm.Tpm_types.error_to_string e)

(* --- trace conformance -------------------------------------------------

   With checking on, every session replays the protocol events it
   recorded through the temporal automata on exit and raises if any
   invariant was broken — turning each run into a self-checking test of
   the Section 4 discipline. Off by default: the automata cost a pass
   over the trace slice per session, and long-running services generate
   unbounded sessions. *)

exception
  Protocol_violation of {
    pal : string;
    violations : Flicker_verify.Checker.violation list;
  }

let () =
  Printexc.register_printer (function
    | Protocol_violation { pal; violations } ->
        Some
          (Printf.sprintf "Session.Protocol_violation(%s): %s" pal
             (String.concat "; "
                (List.map Flicker_verify.Checker.violation_to_string violations)))
    | _ -> None)

let conformance_enabled =
  ref
    (match Sys.getenv_opt "FLICKER_VERIFY" with
    | Some ("" | "0" | "false" | "off") | None -> false
    | Some _ -> true)

let set_conformance_checking on = conformance_enabled := on
let conformance_checking () = !conformance_enabled

(* Absolute index of the next tracer event: immune to ring eviction. *)
let tracer_mark tracer = Tracer.length tracer + Tracer.dropped tracer

let check_conformance ~pal tracer mark =
  if !conformance_enabled then begin
    let start = mark - Tracer.dropped tracer in
    (* if the ring evicted events from inside this session, the slice
       would start mid-protocol and the automata would report nonsense;
       skip rather than cry wolf *)
    if start >= 0 then begin
      let events = Tracer.events tracer in
      let slice = List.filteri (fun i _ -> i >= start) events in
      let report = Flicker_verify.Checker.check_trace slice in
      if report.Flicker_verify.Checker.violations <> [] then
        raise
          (Protocol_violation
             { pal; violations = report.Flicker_verify.Checker.violations })
    end
  end

type launch_tech = Svm | Txt of { acm : string }

let execute (platform : Platform.t) ~pal ?(flavor = Builder.Optimized) ?(tech = Svm)
    ?(inputs = "") ?nonce ?time_limit_ms () =
  if String.length inputs > Layout.io_page_size then
    invalid_arg "Session.execute: inputs exceed the 4 KB input page";
  (match nonce with
  | Some n when String.length n <> 20 ->
      invalid_arg "Session.execute: nonce must be 20 bytes"
  | _ -> ());
  (match time_limit_ms with
  | Some limit when limit <= 0.0 ->
      invalid_arg "Session.execute: time limit must be positive"
  | _ -> ());
  let machine = platform.Platform.machine in
  let clock = machine.Machine.clock in
  let memory = machine.Machine.memory in
  let slb_base = platform.Platform.slb_base in
  if Scheduler.is_suspended platform.Platform.scheduler then
    Error (os_busy_transient "mid-session: another Flicker session owns the machine")
  else begin
    platform.Platform.sessions_run <- platform.Platform.sessions_run + 1;
    let tracer = machine.Machine.tracer in
    let metrics = machine.Machine.metrics in
    Metrics.incr metrics "session.runs";
    (* one args list, shared by the span and the protocol instant (the
       tracer stores the list pointer, it never copies) *)
    let pal_args = [ ("pal", Tracer.Str pal.Flicker_slb.Pal.name) ] in
    let session_span =
      Tracer.begin_span tracer ~cat:"session" ~args:pal_args "Flicker session"
    in
    let mark = tracer_mark tracer in
    Machine.protocol_event machine "session.begin" ~args:pal_args;
    let session_rng =
      Platform.fork_rng platform
        ~label:(Printf.sprintf "session-%d" platform.Platform.sessions_run)
    in
    let image = Builder.build ~flavor pal in
    let started = Clock.now clock in
    let breakdown = ref [] in
    let timed phase f =
      Tracer.with_span tracer ~cat:"session.phase" (phase_name phase) (fun () ->
          let result, span = Clock.time clock f in
          breakdown := (phase, Clock.duration span) :: !breakdown;
          result)
    in
    (* close the session span and roll the outcome into the counters at
       every exit *)
    let finish result =
      Machine.protocol_event machine "session.end";
      Tracer.end_span tracer session_span;
      (match result with
      | Error (Skinit_failed _) -> Metrics.incr metrics "session.skinit_failures"
      | Error Unknown_pal -> Metrics.incr metrics "session.unknown_pal"
      | Error (Os_busy _) -> ()
      | Ok o -> if o.pal_fault <> None then Metrics.incr metrics "session.pal_faults");
      check_conformance ~pal:pal.Flicker_slb.Pal.name tracer mark;
      result
    in

    (* --- Load SLB: the application's sysfs writes and the
       flicker-module's allocation + patching --- *)
    timed Load_slb (fun () ->
        Sysfs.write platform.Platform.sysfs ~path:"slb" image.Builder.bytes;
        Sysfs.write platform.Platform.sysfs ~path:"inputs" inputs;
        Sysfs.write platform.Platform.sysfs ~path:"control" "1";
        Memory.zero memory ~addr:slb_base ~len:Layout.total_footprint;
        (* memoized: repeated sessions of the same PAL reuse one patched
           window instead of re-patching a fresh 64 KB copy *)
        let initialized = Measurement.initialized image ~slb_base in
        Memory.write memory ~addr:slb_base initialized;
        if platform.Platform.corrupt_next_slb then begin
          platform.Platform.corrupt_next_slb <- false;
          (* flip a byte inside the PAL region *)
          let addr = slb_base + image.Builder.pal_region_off in
          let original = Memory.read_byte memory addr in
          Memory.write_byte memory addr (original lxor 0xff);
          Machine.log_event machine "ATTACK: SLB corrupted in memory before SKINIT"
        end;
        Memory.write memory ~addr:(slb_base + Layout.inputs_page_offset) inputs;
        Machine.charge machine machine.Machine.timing.Flicker_hw.Timing.cpu.Flicker_hw.Timing.misc_op_ms);

    (* --- Suspend OS --- *)
    let saved_state =
      timed Suspend_os (fun () ->
          Scheduler.suspend platform.Platform.scheduler;
          Apic.deschedule_aps machine;
          Apic.send_init_ipi machine;
          Os_state.save machine platform.Platform.kernel)
    in

    (* --- late launch: SKINIT or GETSEC[SENTER] --- *)
    let launch_result =
      timed Skinit (fun () ->
          match tech with
          | Svm -> (
              match Skinit.execute machine ~slb_base with
              | launch -> Ok launch
              | exception Skinit.Skinit_error msg -> Error msg)
          | Txt { acm } -> (
              (* map the SENTER launch onto the common record: the MLE
                 occupies the same window and the session logic above the
                 launch instruction is identical *)
              match Flicker_hw.Senter.execute machine ~slb_base ~acm with
              | senter ->
                  Ok
                    {
                      Skinit.slb_base = senter.Flicker_hw.Senter.mle_base;
                      slb_length = senter.Flicker_hw.Senter.mle_length;
                      entry_point = senter.Flicker_hw.Senter.entry_point;
                      protected_base = senter.Flicker_hw.Senter.protected_base;
                      protected_len = senter.Flicker_hw.Senter.protected_len;
                      measurement = senter.Flicker_hw.Senter.mle_measurement;
                    }
              | exception Flicker_hw.Senter.Senter_error msg -> Error msg))
    in
    match launch_result with
    | Error msg ->
        (* hardware refused the launch: the OS resumes untouched *)
        Os_state.restore machine platform.Platform.kernel saved_state;
        Apic.release_aps machine;
        Scheduler.resume platform.Platform.scheduler;
        finish (Error (Skinit_failed msg))
    | Ok launch ->
        (* the digest the TPM extended: the hardware already hashed
           exactly these bytes *)
        let slb_measurement = launch.Skinit.measurement in
        (* nothing writes the window between here and dispatch, so one
           read serves the stub's extend and the dispatcher *)
        let window = Memory.read memory ~addr:slb_base ~len:Layout.slb_size in

        (* --- SLB Core init (plus the optimized stub's hash+extend) --- *)
        timed Slb_init (fun () ->
            Machine.charge machine Slb_core.init_overhead_ms;
            match flavor with
            | Builder.Standard -> ()
            | Builder.Optimized ->
                (* the measured stub hashes the full window on the main
                   CPU and extends PCR 17 before running any of it *)
                Machine.charge_sha1 machine ~bytes:Layout.slb_size;
                (* the simulated cost above is charged in full; only the
                   host-side hash is memoized (by window content, so a
                   corrupted window still misses and re-hashes) *)
                extend_pcr17 ~kind:"stub" platform (Measurement.window_digest window));

        (* --- Execute PAL: dispatch on the measured bytes --- *)
        let dispatch =
          match Builder.pal_code_of_window window with
          | Error _ -> None
          | Ok code -> Pal.find_by_code code
        in
        let pcr17_during = pcr17_of platform in
        let pal_entered = Clock.now clock in
        let env_outputs, pal_fault, known_pal =
          timed Pal_execution (fun () ->
              (* chaos hook: a rogue device picks the worst moment — the
                 PAL is running, so the DEV window is armed and must deny
                 every write aimed at it *)
              Dma.fire_storm machine
                ~focus:(slb_base, Layout.total_footprint) ();
              match dispatch with
              | None -> ("", None, false)
              | Some running_pal ->
                  let protection =
                    if Pal.wants running_pal Pal.Os_protection then
                      Some
                        (Mod_os_protection.policy_for_launch ~slb_base
                           ~footprint:Layout.total_footprint)
                    else None
                  in
                  let heap =
                    if Pal.wants running_pal Pal.Memory_management then
                      Some (Mod_memory.create ~size:(16 * 1024))
                    else None
                  in
                  let env =
                    Pal_env.create ~machine ~tpm:platform.Platform.tpm ~rng:session_rng
                      ~inputs ~inputs_addr:(slb_base + Layout.inputs_page_offset)
                      ~outputs_addr:(slb_base + Layout.outputs_page_offset) ~protection
                      ~heap
                  in
                  (match protection with
                  | Some policy -> Mod_os_protection.enter_ring3 machine policy
                  | None -> ());
                  let fault =
                    match running_pal.Pal.behavior env with
                    | () -> None
                    | exception Mod_os_protection.Pal_fault msg ->
                        Machine.log_event machine ("PAL FAULT: " ^ msg);
                        Some msg
                  in
                  (match protection with
                  | Some _ -> Mod_os_protection.exit_ring3 machine
                  | None -> ());
                  (* SLB Core watchdog: a PAL that overran its allotted
                     time has its outputs dropped (the timer interrupt
                     fires before it can publish them) *)
                  let elapsed = Clock.now clock -. pal_entered in
                  (match (time_limit_ms, fault) with
                  | Some limit, None when elapsed > limit ->
                      Machine.log_event machine
                        (Printf.sprintf
                           "PAL WATCHDOG: exceeded %.1f ms limit (%.1f ms)" limit
                           elapsed);
                      (* the unpublished output page is wiped with the rest *)
                      Memory.zero memory ~addr:(slb_base + Layout.outputs_page_offset)
                        ~len:Layout.io_page_size;
                      ( "",
                        Some
                          (Printf.sprintf "watchdog: PAL exceeded %.1f ms time limit"
                             limit),
                        true )
                  | _ -> (Pal_env.output env, fault, true)))
        in

        (* --- Cleanup: erase everything the PAL touched inside the
           window and the input page (the output page goes back to the
           OS) --- *)
        timed Cleanup (fun () ->
            let wipe addr len =
              Memory.zero memory ~addr ~len;
              Machine.protocol_event machine "zeroize"
                ~args:[ ("addr", Tracer.Count addr); ("len", Tracer.Count len) ]
            in
            wipe slb_base Layout.slb_size;
            wipe (slb_base + Layout.inputs_page_offset) Layout.io_page_size;
            Machine.charge machine Slb_core.cleanup_overhead_ms);

        (* --- Extend PCR 17 with the I/O measurements and the cap --- *)
        timed Pcr_extends (fun () ->
            List.iter
              (fun (kind, v) -> extend_pcr17 ~kind platform v)
              (Measurement.labeled_io_extends ~inputs ~outputs:env_outputs ~nonce);
            extend_pcr17 ~kind:"cap" platform Slb_core.cap_value);
        let pcr17_final = pcr17_of platform in

        (* --- Resume OS --- *)
        timed Resume_os (fun () ->
            Skinit.teardown_dev machine launch;
            Os_state.restore machine platform.Platform.kernel saved_state;
            Apic.release_aps machine;
            Scheduler.resume platform.Platform.scheduler;
            Sysfs.write platform.Platform.sysfs ~path:"outputs" env_outputs;
            Machine.charge machine Slb_core.cleanup_overhead_ms);

        finish
          (if not known_pal then Error Unknown_pal
           else
             Ok
               {
                 outputs = env_outputs;
                 slb_measurement;
                 pcr17_during;
                 pcr17_final;
                 breakdown = List.rev !breakdown;
                 total_ms = Clock.now clock -. started;
                 pal_fault;
               })
  end

let execute_from_sysfs (platform : Platform.t) ?nonce ?time_limit_ms () =
  (* check for a running session before inspecting sysfs: mid-session the
     slb entry may well be absent, and the caller needs to distinguish
     "retry later" from "you never wrote an SLB" *)
  if Scheduler.is_suspended platform.Platform.scheduler then
    Error (os_busy_transient "mid-session: another Flicker session owns the machine")
  else
  match Sysfs.read platform.Platform.sysfs ~path:"slb" with
  | None -> Error (os_busy_permanent "no SLB written to the sysfs slb entry")
  | Some window ->
      if String.length window <> Layout.slb_size then
        Error (os_busy_permanent "slb entry is not a full 64 KB window image")
      else begin
        match Builder.pal_code_of_window window with
        | Error msg -> Error (os_busy_permanent ("corrupt SLB image: " ^ msg))
        | Ok code -> (
            match Pal.find_by_code code with
            | None -> Error Unknown_pal
            | Some pal ->
                (* the header length field distinguishes the optimized
                   stub from a standard image *)
                let measured =
                  Char.code window.[0] lor (Char.code window.[1] lsl 8)
                in
                let flavor =
                  if measured = Slb_core.stub_size then Builder.Optimized
                  else Builder.Standard
                in
                let inputs =
                  Option.value
                    (Sysfs.read platform.Platform.sysfs ~path:"inputs")
                    ~default:""
                in
                execute platform ~pal ~flavor ~inputs ?nonce ?time_limit_ms ())
      end

let corrupt_slb_in_memory (platform : Platform.t) =
  platform.Platform.corrupt_next_slb <- true

let retry_busy (platform : Platform.t) ?(attempts = 3) ?(backoff_ms = 10.0) f =
  if attempts < 1 then invalid_arg "Session.retry_busy: attempts must be >= 1";
  if backoff_ms < 0.0 then invalid_arg "Session.retry_busy: negative backoff";
  let machine = platform.Platform.machine in
  let rec go attempt backoff =
    match f () with
    | Error e when busy_is_transient e && attempt < attempts ->
        Metrics.incr machine.Machine.metrics "session.busy_retries";
        Machine.log_event machine
          (Printf.sprintf "session: OS busy, retrying in %.1f ms (attempt %d/%d)"
             backoff attempt attempts);
        Clock.advance machine.Machine.clock backoff;
        go (attempt + 1) (backoff *. 2.0)
    | result -> result
  in
  go 1 backoff_ms
