(* Command-line front-end for the Flicker simulator.

     flicker hello                      run the quickstart PAL + attestation
     flicker scan [--rootkit KIND]      remote rootkit detection
     flicker ssh --password PW          SSH password-auth protocol
     flicker ca --subjects a.x,b.x      certificate authority service
     flicker factor --number N          distributed factoring
     flicker tcb [--modules m1,m2]      TCB accounting for a PAL
     flicker check [WORKLOAD..] [--mc]  temporal protocol verification
     flicker trace WORKLOAD [-o FILE]   Chrome trace JSON of a workload
     flicker stats WORKLOAD [--json]    counters + latency histograms
     flicker fleet [--platforms N] [--shards S] [--domains D]
                                        multi-machine fleet serving PAL requests
     flicker chaos [--rate R]           fleet under seeded fault injection
     flicker info                       platform + timing-profile summary *)

open Cmdliner
open Flicker_core
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Timing = Flicker_hw.Timing
module Privacy_ca = Flicker_tpm.Privacy_ca
module Prng = Flicker_crypto.Prng
module Rsa = Flicker_crypto.Rsa

(* --- common options --- *)

let seed_arg =
  let doc = "Deterministic seed for the simulated platform." in
  Arg.(value & opt string "flicker-cli" & info [ "seed" ] ~docv:"SEED" ~doc)

let tpm_arg =
  let doc = "TPM latency profile: $(b,broadcom), $(b,infineon) or $(b,future)." in
  Arg.(value & opt (enum [ ("broadcom", Timing.broadcom); ("infineon", Timing.infineon); ("future", Timing.future_tpm) ]) Timing.broadcom
       & info [ "tpm" ] ~docv:"PROFILE" ~doc)

let key_bits_arg =
  let doc = "RSA modulus size for application keys (larger is slower for real)." in
  Arg.(value & opt int 1024 & info [ "key-bits" ] ~docv:"BITS" ~doc)

let verbose_arg =
  let doc = "Log simulator events (SKINIT, DEV, APIC, suspensions)." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let setup_logging verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let make_platform ~seed ~tpm ?(kernel_text_size = 256 * 1024) () =
  let ca = Privacy_ca.create (Prng.create ~seed:(seed ^ "/ca")) ~name:"CliCA" ~key_bits:1024 in
  let timing = Timing.with_tpm tpm Timing.default in
  let p = Platform.create ~seed ~timing ~key_bits:1024 ~kernel_text_size ~ca () in
  (p, Privacy_ca.public_key ca)

(* --- hello --- *)

let hello seed tpm verbose =
  setup_logging verbose;
  let p, ca_key = make_platform ~seed ~tpm () in
  let pal = Pal.define ~name:"cli-hello" (fun env -> Pal_env.set_output env "Hello, world") in
  let nonce = Platform.fresh_nonce p in
  match Session.execute p ~pal ~nonce () with
  | Error e -> Format.printf "session failed: %a@." Session.pp_error e; 1
  | Ok outcome ->
      Printf.printf "output: %s\n" outcome.Session.outputs;
      List.iter
        (fun (phase, phase_ms) ->
          Printf.printf "  %-14s %8.3f ms\n" (Session.phase_name phase) phase_ms)
        outcome.Session.breakdown;
      let evidence =
        Attestation.generate p ~nonce ~inputs:"" ~outputs:outcome.Session.outputs
      in
      let expectation = Verifier.expect ~pal ~slb_base:p.Platform.slb_base ~nonce () in
      (match Verifier.verify ~ca_key expectation evidence with
      | Ok () -> print_endline "attestation: verified"; 0
      | Error f -> Printf.printf "attestation: %s\n" (Verifier.failure_to_string f); 1)

let hello_cmd =
  Cmd.v (Cmd.info "hello" ~doc:"Run the quickstart PAL and verify its attestation")
    Term.(const hello $ seed_arg $ tpm_arg $ verbose_arg)

(* --- scan --- *)

let scan seed tpm rootkit verbose =
  setup_logging verbose;
  let p, ca_key = make_platform ~seed ~tpm () in
  let d = Flicker_apps.Rootkit_detector.deploy_on p in
  (match rootkit with
  | None -> ()
  | Some kind ->
      (match kind with
      | `Text -> Flicker_os.Kernel.install_text_rootkit p.Platform.kernel
      | `Syscall -> Flicker_os.Kernel.install_syscall_rootkit p.Platform.kernel
      | `Module -> Flicker_os.Kernel.install_module_rootkit p.Platform.kernel);
      Flicker_apps.Rootkit_detector.sync d);
  match Flicker_apps.Rootkit_detector.remote_query d ~ca_key with
  | Error e -> Printf.printf "query error: %s\n" e; 1
  | Ok (verdict, total) ->
      (match verdict with
      | Flicker_apps.Rootkit_detector.Clean ->
          Printf.printf "verdict: CLEAN (%.0f ms end-to-end)\n" total; 0
      | Flicker_apps.Rootkit_detector.Rootkit_detected _ ->
          Printf.printf "verdict: ROOTKIT DETECTED (%.0f ms end-to-end)\n" total; 2
      | Flicker_apps.Rootkit_detector.Attestation_rejected f ->
          Printf.printf "verdict: attestation rejected: %s\n" (Verifier.failure_to_string f); 3)

let rootkit_arg =
  let doc = "Install a rootkit first: $(b,text), $(b,syscall) or $(b,module)." in
  Arg.(value
       & opt (some (enum [ ("text", `Text); ("syscall", `Syscall); ("module", `Module) ])) None
       & info [ "rootkit" ] ~docv:"KIND" ~doc)

let scan_cmd =
  Cmd.v (Cmd.info "scan" ~doc:"Run the remote rootkit-detection query")
    Term.(const scan $ seed_arg $ tpm_arg $ rootkit_arg $ verbose_arg)

(* --- ssh --- *)

let ssh seed tpm key_bits password attempt verbose =
  setup_logging verbose;
  let p, ca_key = make_platform ~seed ~tpm () in
  let server = Flicker_apps.Ssh_auth.create_server p ~key_bits ~users:[ ("user", password) ] () in
  let client =
    Flicker_apps.Ssh_auth.Client.create ~rng:(Prng.create ~seed:(seed ^ "/client"))
      ~ca_key ~server_slb_base:p.Platform.slb_base ~key_bits ()
  in
  let attempt = Option.value attempt ~default:password in
  match Flicker_apps.Ssh_auth.authenticate server client ~user:"user" ~password:attempt with
  | Ok (true, ms) -> Printf.printf "login ACCEPTED (%.0f ms)\n" ms; 0
  | Ok (false, ms) -> Printf.printf "login rejected (%.0f ms)\n" ms; 1
  | Error e -> Printf.printf "protocol error: %s\n" e; 1

let password_arg =
  Arg.(value & opt string "hunter2"
       & info [ "password" ] ~docv:"PW" ~doc:"The account's real password.")

let attempt_arg =
  Arg.(value & opt (some string) None
       & info [ "attempt" ] ~docv:"PW" ~doc:"Password to try (defaults to the real one).")

let ssh_cmd =
  Cmd.v (Cmd.info "ssh" ~doc:"Run the Flicker SSH password-authentication protocol")
    Term.(const ssh $ seed_arg $ tpm_arg $ key_bits_arg $ password_arg $ attempt_arg $ verbose_arg)

(* --- ca --- *)

let ca_run seed tpm key_bits subjects suffixes verbose =
  setup_logging verbose;
  let p, _ = make_platform ~seed ~tpm () in
  let module CA = Flicker_apps.Cert_authority in
  let policy =
    { CA.allowed_suffixes = suffixes; denied_subjects = []; max_certificates = 1000 }
  in
  let ca = CA.create p ~key_bits policy in
  match CA.init_ca ca with
  | Error e -> Printf.printf "init failed: %s\n" e; 1
  | Ok pub ->
      let keyrng = Prng.create ~seed:(seed ^ "/subjects") in
      List.iter
        (fun subject ->
          let csr = { CA.subject; subject_key = (Rsa.generate keyrng ~bits:512).Rsa.pub } in
          match CA.sign_csr ca csr with
          | Ok cert ->
              Printf.printf "signed #%d %-30s verifies: %b\n" cert.CA.serial subject
                (CA.verify_certificate ~ca_key:pub cert)
          | Error e -> Printf.printf "denied %-30s %s\n" subject e)
        subjects;
      0

let subjects_arg =
  Arg.(value & opt (list string) [ "www.example.com"; "evil.net" ]
       & info [ "subjects" ] ~docv:"NAMES" ~doc:"Comma-separated CSR subjects.")

let suffixes_arg =
  Arg.(value & opt (list string) [ ".example.com" ]
       & info [ "allow" ] ~docv:"SUFFIXES" ~doc:"Allowed subject suffixes (policy).")

let ca_cmd =
  Cmd.v (Cmd.info "ca" ~doc:"Run the Flicker-protected certificate authority")
    Term.(const ca_run $ seed_arg $ tpm_arg $ key_bits_arg $ subjects_arg $ suffixes_arg $ verbose_arg)

(* --- factor --- *)

let factor seed tpm number slice verbose =
  setup_logging verbose;
  let p, _ = make_platform ~seed ~tpm () in
  let module D = Flicker_apps.Distcomp in
  let client = D.create_client p in
  let unit_ = { D.unit_id = 1; number; lo = 2; hi = number - 1 } in
  match D.run_to_completion client unit_ ~slice_ms:slice with
  | Error e -> Printf.printf "failed: %s\n" e; 1
  | Ok (final, sessions) ->
      Printf.printf "divisors of %d: %s  (%d Flicker sessions)\n" number
        (String.concat ", " (List.map string_of_int (List.sort compare final.D.divisors_found)))
        sessions;
      0

let number_arg =
  Arg.(value & opt int 351_649 & info [ "number" ] ~docv:"N" ~doc:"Number to factor.")

let slice_arg =
  Arg.(value & opt float 500.0
       & info [ "slice" ] ~docv:"MS" ~doc:"Milliseconds of work per Flicker session.")

let factor_cmd =
  Cmd.v (Cmd.info "factor" ~doc:"Run the distributed-computing PAL on one work unit")
    Term.(const factor $ seed_arg $ tpm_arg $ number_arg $ slice_arg $ verbose_arg)

(* --- tcb --- *)

let module_of_string = function
  | "os-protection" -> Ok Pal.Os_protection
  | "tpm-driver" -> Ok Pal.Tpm_driver
  | "tpm-utilities" -> Ok Pal.Tpm_utilities
  | "crypto" -> Ok Pal.Crypto
  | "memory" -> Ok Pal.Memory_management
  | "secure-channel" -> Ok Pal.Secure_channel
  | s -> Error (`Msg ("unknown module " ^ s))

let tcb modules =
  let module Tcb = Flicker_slb.Tcb in
  match
    List.fold_left
      (fun acc name ->
        match (acc, module_of_string name) with
        | Ok acc, Ok m -> Ok (m :: acc)
        | (Error _ as e), _ -> e
        | _, Error (`Msg m) -> Error m)
      (Ok []) modules
  with
  | Error m -> prerr_endline m; 1
  | Ok mods ->
      let pal = Pal.define ~name:(String.concat "+" ("tcb" :: modules)) ~modules:mods (fun _ -> ()) in
      Format.printf "%a" Tcb.pp_rows (Tcb.pal_tcb pal);
      print_endline "\ncomparison:";
      List.iter (fun (n, loc) -> Printf.printf "  %-55s %10d LOC\n" n loc) Tcb.comparison;
      0

let modules_arg =
  Arg.(value & opt (list string) []
       & info [ "modules" ] ~docv:"MODS"
           ~doc:"PAL modules to link: os-protection, tpm-driver, tpm-utilities, crypto, memory, secure-channel.")

let tcb_cmd =
  Cmd.v (Cmd.info "tcb" ~doc:"Show the TCB a PAL configuration carries")
    Term.(const tcb $ modules_arg)

(* --- extract --- *)

(* a built-in sample program (an sshd-like server) so the Section 5.2
   extraction tool can be demonstrated without a C parser *)
let sample_program =
  let f fname calls uses_types loc =
    Flicker_extract.Extract.fn fname ~calls ~uses_types ~loc
  in
  {
    Flicker_extract.Extract.functions =
      [
        f "main" [ "socket"; "accept_loop" ] [ "server_config" ] 30;
        f "accept_loop" [ "recv"; "handle_auth"; "printf" ] [ "connection" ] 60;
        f "handle_auth" [ "check_password"; "log_attempt" ] [ "connection"; "auth_ctxt" ] 40;
        f "check_password" [ "md5crypt"; "constant_time_eq"; "malloc" ]
          [ "auth_ctxt"; "passwd_entry" ] 25;
        f "md5crypt" [ "md5_init"; "md5_update"; "memcpy" ] [ "md5_ctx" ] 120;
        f "md5_init" [] [ "md5_ctx" ] 10;
        f "md5_update" [ "memcpy" ] [ "md5_ctx" ] 35;
        f "constant_time_eq" [] [] 8;
        f "log_attempt" [ "fprintf" ] [] 12;
        f "rsa_keygen" [ "rsa_generate_prime"; "malloc" ] [ "rsa_key" ] 80;
        f "rsa_generate_prime" [ "rand" ] [] 55;
      ];
    types =
      [
        { Flicker_extract.Extract.tname = "server_config"; type_depends = []; definition = "struct server_config {...};" };
        { tname = "connection"; type_depends = [ "server_config" ]; definition = "struct connection {...};" };
        { tname = "auth_ctxt"; type_depends = [ "passwd_entry" ]; definition = "struct auth_ctxt {...};" };
        { tname = "passwd_entry"; type_depends = []; definition = "struct passwd_entry {...};" };
        { tname = "md5_ctx"; type_depends = []; definition = "struct md5_ctx {...};" };
        { tname = "rsa_key"; type_depends = []; definition = "struct rsa_key {...};" };
      ];
  }

let extract_run target render =
  match Flicker_extract.Extract.extract sample_program ~target with
  | Error msg -> prerr_endline msg; 1
  | Ok e ->
      Format.printf "%a" Flicker_extract.Extract.report e;
      if Flicker_extract.Extract.has_blockers e then
        print_endline "NOTE: blockers present; restructure before building a PAL.";
      if render then begin
        print_endline "\n--- standalone program ---";
        print_string (Flicker_extract.Extract.render_standalone e)
      end;
      0

let target_arg =
  Arg.(value & opt string "check_password"
       & info [ "target" ] ~docv:"FUNC"
           ~doc:"Function to extract from the built-in sshd-like sample \
                 (try check_password, rsa_keygen, accept_loop).")

let render_arg =
  Arg.(value & flag & info [ "render" ] ~doc:"Print the extracted standalone program.")

let extract_cmd =
  Cmd.v
    (Cmd.info "extract"
       ~doc:"Run the Section 5.2 PAL-extraction tool on a sample program")
    Term.(const extract_run $ target_arg $ render_arg)

(* --- trace / stats --- *)

(* the workloads the observability subcommands can drive *)
let workload_arg =
  let doc =
    "Workload to run: $(b,hello) (quickstart PAL), $(b,rootkit) (detector \
     scan), $(b,ssh) (password-auth protocol) or $(b,ca) (keygen + one \
     certificate)."
  in
  Arg.(value & pos 0 (enum [ ("hello", `Hello); ("rootkit", `Rootkit); ("ssh", `Ssh); ("ca", `Ca) ]) `Hello
       & info [] ~docv:"WORKLOAD" ~doc)

let run_workload p ca_key ~seed = function
  | `Hello -> (
      let pal =
        Pal.define ~name:"cli-hello" (fun env -> Pal_env.set_output env "Hello, world")
      in
      match Session.execute p ~pal () with
      | Ok o -> Ok (Some o)
      | Error e -> Error (Format.asprintf "%a" Session.pp_error e))
  | `Rootkit -> (
      let d = Flicker_apps.Rootkit_detector.deploy_on p in
      match Flicker_apps.Rootkit_detector.scan d ~nonce:(Platform.fresh_nonce p) with
      | Ok r -> Ok (Some r.Flicker_apps.Rootkit_detector.outcome)
      | Error e -> Error e)
  | `Ssh -> (
      let server =
        Flicker_apps.Ssh_auth.create_server p ~users:[ ("user", "hunter2") ] ()
      in
      let client =
        Flicker_apps.Ssh_auth.Client.create ~rng:(Prng.create ~seed:(seed ^ "/client"))
          ~ca_key ~server_slb_base:p.Platform.slb_base ()
      in
      match
        Flicker_apps.Ssh_auth.authenticate server client ~user:"user" ~password:"hunter2"
      with
      | Ok _ -> Ok None
      | Error e -> Error e)
  | `Ca -> (
      let module CA = Flicker_apps.Cert_authority in
      let policy =
        { CA.allowed_suffixes = [ ".example.com" ]; denied_subjects = [];
          max_certificates = 10 }
      in
      let ca = CA.create p policy in
      match CA.init_ca ca with
      | Error e -> Error e
      | Ok _ -> (
          let csr =
            { CA.subject = "www.example.com";
              subject_key =
                (Rsa.generate (Prng.create ~seed:(seed ^ "/csr")) ~bits:512).Rsa.pub }
          in
          match CA.sign_csr ca csr with
          | Ok _ -> Ok None
          | Error e -> Error e))

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Write the output there instead of stdout.")

(* --- analyze --- *)

let analyze_run pals as_json strict out =
  let module Rules = Flicker_analysis.Rules in
  let module Models = Flicker_analysis.Models in
  let module Report = Flicker_analysis.Report in
  let selected =
    match pals with
    | [] -> Ok (Models.all ())
    | keys ->
        List.fold_left
          (fun acc key ->
            match (acc, Models.find key) with
            | Error _, _ -> acc
            | Ok sel, Some t -> Ok (sel @ [ (key, t) ])
            | Ok _, None ->
                Error
                  (Printf.sprintf "unknown PAL %s; known: %s" key
                     (String.concat ", " (Models.keys ()))))
          (Ok []) keys
  in
  match selected with
  | Error msg -> prerr_endline msg; 1
  | Ok targets -> (
      (* canonical merged order: by PAL key, then (rule, function,
         location) within each report *)
      let targets =
        List.sort (fun (a, _) (b, _) -> compare a b) targets
      in
      (* one extraction index per PAL, shared by the rule run and the
         text report instead of each re-indexing the program *)
      let results =
        List.map
          (fun (key, target) ->
            let index = Flicker_extract.Extract.index target.Rules.program in
            match Rules.run ~index target with
            | Ok findings -> (key, target, index, findings)
            | Error msg ->
                ( key,
                  target,
                  index,
                  [
                    {
                      Rules.rule = "driver";
                      severity = Rules.Error;
                      subject = target.Rules.entry;
                      location = "";
                      message = msg;
                    };
                  ] ))
          targets
      in
      let sarif_rows = List.map (fun (key, t, _, fs) -> (key, t, fs)) results in
      let text =
        if as_json then
          Flicker_obs.Json.to_string (Report.sarif sarif_rows) ^ "\n"
        else
          String.concat "\n"
            (List.map
               (fun (key, t, index, fs) -> Report.to_text ~index ~key t fs)
               results)
      in
      (match out with
      | None -> print_string text
      | Some path ->
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          Printf.printf "analysis written to %s\n" path);
      let errors =
        List.fold_left (fun acc (_, _, _, fs) -> acc + Rules.errors fs) 0 results
      in
      let warnings =
        List.fold_left (fun acc (_, _, _, fs) -> acc + Rules.warnings fs) 0 results
      in
      let failing =
        List.exists (fun (_, _, _, fs) -> Rules.should_fail ~strict fs) results
      in
      if failing then begin
        if strict && errors = 0 then
          Printf.eprintf "%d warning(s) with --strict\n" warnings
        else Printf.eprintf "%d error-severity finding(s)\n" errors;
        1
      end
      else 0)

let analyze_pals_arg =
  Arg.(value & pos_all string []
       & info [] ~docv:"PAL"
           ~doc:"PALs to analyze: $(b,hello), $(b,rootkit), $(b,boinc), $(b,ssh), \
                 $(b,ca). All five when omitted. Two planted-defect targets, \
                 $(b,stack-hog) and $(b,secret-branch), can be named explicitly \
                 to see the abstract interpreter catch them.")

let analyze_json_arg =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Emit a SARIF-style JSON document (one run per PAL; the property \
                 bag carries the Figure 6 TCB accounting plus the proved \
                 worst-case stack and constant-time finding counts).")

let analyze_strict_arg =
  Arg.(value & flag
       & info [ "strict" ]
           ~doc:"Exit non-zero on warning-severity findings too, not just \
                 errors. Use in CI to keep the shipped PALs warning-clean.")

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Statically verify PALs: call-graph, secret-flow, TCB-budget, \
             stack-bound and constant-time rules")
    Term.(const analyze_run $ analyze_pals_arg $ analyze_json_arg
          $ analyze_strict_arg $ out_arg)

(* --- check: temporal protocol verification --- *)

exception Usage of string

let parse_adversary = function
  | "all" -> Flicker_verify.Adversary.(of_kinds all_kinds)
  | "none" -> Flicker_verify.Adversary.none
  | s ->
      let kinds =
        List.map
          (fun n ->
            match Flicker_verify.Adversary.kind_of_name n with
            | Some k -> k
            | None ->
                raise
                  (Usage
                     (Printf.sprintf
                        "unknown adversary %S; valid: %s, all, none" n
                        (String.concat ", "
                           (List.map Flicker_verify.Adversary.kind_name
                              Flicker_verify.Adversary.all_kinds)))))
          (String.split_on_char '+' s)
      in
      Flicker_verify.Adversary.of_kinds kinds

let check_run seed tpm workloads with_mc adversary no_por only_variant as_json
    out verbose =
  setup_logging verbose;
  let module V = Flicker_verify in
  let wname = function
    | `Hello -> "hello" | `Rootkit -> "rootkit" | `Ssh -> "ssh" | `Ca -> "ca"
  in
  let workloads =
    match workloads with [] -> [ `Hello; `Rootkit; `Ssh; `Ca ] | ws -> ws
  in
  try
  let por = not no_por in
  let adversary = Option.map parse_adversary adversary in
  let variants =
    match only_variant with
    | None -> V.Model.all_variants
    | Some n -> (
        match V.Model.variant_of_name n with
        | Some v -> [ v ]
        | None ->
            raise
              (Usage
                 (Printf.sprintf "unknown variant %S; valid: %s" n
                    (String.concat ", "
                       (List.map V.Model.variant_name V.Model.all_variants)))))
  in
  (* conformance: run each workload on a fresh platform and replay its
     recorded protocol events through the automata *)
  let failed_workloads = ref [] in
  let conformance =
    List.filter_map
      (fun w ->
        let name = wname w in
        let p, ca_key = make_platform ~seed:(seed ^ "/" ^ name) ~tpm () in
        match run_workload p ca_key ~seed w with
        | Error e ->
            failed_workloads := (name, e) :: !failed_workloads;
            None
        | Ok _ ->
            let tracer = p.Platform.machine.Flicker_hw.Machine.tracer in
            Some (name, V.Checker.check_tracer tracer))
      workloads
  in
  (* model checking: the good variant must verify; every planted bug
     must be caught with a counterexample. Without --adversary each
     variant runs under its intended adversary model; with it, every
     variant runs under the given configuration and a planted bug is
     only expected to be caught when the adversary it requires is
     active. *)
  let mc_results =
    if with_mc then
      List.map
        (fun variant ->
          let cfg, sessions =
            match adversary with
            | None -> V.Model.intended_adversary variant
            | Some cfg ->
                ( cfg,
                  if V.Adversary.active cfg V.Adversary.Replay then 2
                  else V.Model.default_sessions variant )
          in
          let expected =
            variant <> V.Model.Good
            &&
            match V.Model.requires variant with
            | None -> true
            | Some k -> V.Adversary.active cfg k
          in
          ( variant,
            cfg,
            sessions,
            expected,
            V.Mc.run ~adversary:cfg ~sessions ~por variant ))
        variants
    else []
  in
  let conf_violations =
    List.fold_left
      (fun acc (_, r) -> acc + List.length r.V.Checker.violations)
      0 conformance
  in
  let mc_missed =
    List.filter
      (fun (_, _, _, expected, r) ->
        V.Vreport.mc_missed_violation r ~expected_violation:expected)
      mc_results
  in
  let text =
    if as_json then
      let runs =
        List.map (fun (name, r) -> V.Vreport.conformance_run ~subject:name r) conformance
        @ List.map
            (fun (v, cfg, sessions, expected, r) ->
              V.Vreport.mc_run ~adversary:cfg ~sessions v
                ~expected_violation:expected r)
            mc_results
      in
      Flicker_obs.Json.to_string (V.Vreport.document runs) ^ "\n"
    else begin
      let buf = Buffer.create 1024 in
      let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      add "trace conformance:\n";
      List.iter
        (fun (name, r) ->
          add "  %-8s %4d protocol events   %d violation(s)\n" name
            r.V.Checker.events_checked
            (List.length r.V.Checker.violations);
          List.iter
            (fun v -> add "    %s\n" (V.Checker.violation_to_string v))
            r.V.Checker.violations)
        conformance;
      if with_mc then begin
        add "model checking%s (states explored / transitions / depth):\n"
          (if por then "" else " [POR disabled]");
        List.iter
          (fun (variant, cfg, sessions, expected, r) ->
            let s = r.V.Mc.stats in
            let tag =
              Printf.sprintf "%s x%d" (V.Adversary.name cfg) sessions
            in
            match r.V.Mc.outcome with
            | V.Mc.Verified ->
                add
                  "  %-28s [%-22s] %s  (%d states, %d transitions, depth %d, \
                   %d reduced%s)\n"
                  (V.Model.variant_name variant)
                  tag
                  (if expected then "MISSED PLANTED BUG" else "verified")
                  s.V.Mc.states s.V.Mc.transitions s.V.Mc.depth s.V.Mc.ample
                  (if s.V.Mc.truncated then ", TRUNCATED" else "")
            | V.Mc.Violation cex ->
                add "  %-28s [%-22s] %s %s in %d steps  (%d states)\n"
                  (V.Model.variant_name variant)
                  tag
                  (if expected then "caught" else "FALSE ALARM:")
                  cex.V.Mc.automaton
                  (List.length cex.V.Mc.steps)
                  s.V.Mc.states;
                if verbose || not expected then
                  add "%s\n"
                    (Format.asprintf "    %a" V.Mc.pp_counterexample cex))
          mc_results
      end;
      Buffer.contents buf
    end
  in
  (match out with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "verification report written to %s\n" path);
  List.iter
    (fun (name, e) -> Printf.eprintf "workload %s failed: %s\n" name e)
    (List.rev !failed_workloads);
  if conf_violations > 0 then
    Printf.eprintf "%d trace-conformance violation(s)\n" conf_violations;
  List.iter
    (fun (v, _, _, expected, _) ->
      Printf.eprintf
        (if expected then "model checker missed the planted bug in %s\n"
         else "model checker flagged the correct session %s\n")
        (V.Model.variant_name v))
    mc_missed;
  if conf_violations > 0 || mc_missed <> [] || !failed_workloads <> [] then 1
  else 0
  with Usage msg ->
    Printf.eprintf "%s\n" msg;
    2

let check_workloads_arg =
  Arg.(value
       & pos_all (enum [ ("hello", `Hello); ("rootkit", `Rootkit); ("ssh", `Ssh); ("ca", `Ca) ]) []
       & info [] ~docv:"WORKLOAD"
           ~doc:"Workloads whose traces to check: $(b,hello), $(b,rootkit), \
                 $(b,ssh), $(b,ca). All four when omitted.")

let check_mc_arg =
  Arg.(value & flag
       & info [ "mc" ]
           ~doc:"Also model-check the session protocol: exhaustively explore \
                 OS/adversary interleavings of the good session (must verify) \
                 and of deliberately broken variants (each planted bug must \
                 be caught with a counterexample).")

let check_adversary_arg =
  Arg.(value
       & opt (some string) None
       & info [ "adversary" ] ~docv:"MODEL"
           ~doc:"Adversary model(s) for --mc: $(b,dma), $(b,reset), \
                 $(b,replay), $(b,corrupt-os), composable with $(b,+) \
                 (e.g. $(b,dma+replay)), or $(b,all) / $(b,none). Without \
                 this flag each variant runs under its intended adversary.")

let check_no_por_arg =
  Arg.(value & flag
       & info [ "no-por" ]
           ~doc:"Disable the partial-order reduction and explore the full \
                 session/adversary interleaving product (escape hatch; \
                 verdicts must not change).")

let check_variant_arg =
  Arg.(value
       & opt (some string) None
       & info [ "variant" ] ~docv:"NAME"
           ~doc:"Model-check only this session variant (e.g. $(b,good), \
                 $(b,nv-rollback)). Exits 2 on unknown names, listing the \
                 valid ones.")

let check_json_arg =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Emit a SARIF-style JSON document (one run per workload \
                 conformance check and per model-checked variant).")

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Verify session traces against the temporal protocol automata")
    Term.(const check_run $ seed_arg $ tpm_arg $ check_workloads_arg
          $ check_mc_arg $ check_adversary_arg $ check_no_por_arg
          $ check_variant_arg $ check_json_arg $ out_arg $ verbose_arg)

let trace seed tpm workload out verbose =
  setup_logging verbose;
  let p, ca_key = make_platform ~seed ~tpm () in
  match run_workload p ca_key ~seed workload with
  | Error e -> Printf.printf "workload failed: %s\n" e; 1
  | Ok outcome ->
      (* human-readable summary on stderr so `trace W > file.json` stays
         valid JSON when no --out is given *)
      (match outcome with
      | None -> ()
      | Some o ->
          Printf.eprintf "phase breakdown (last session):\n";
          List.iter
            (fun (phase, phase_ms) ->
              Printf.eprintf "  %-14s %8.3f ms\n" (Session.phase_name phase) phase_ms)
            o.Session.breakdown);
      let tracer = p.Platform.machine.Flicker_hw.Machine.tracer in
      let json = Flicker_obs.Export.chrome_trace_string ~process_name:"flicker-sim" tracer in
      (match out with
      | None -> print_endline json
      | Some path ->
          let oc = open_out path in
          output_string oc json;
          output_char oc '\n';
          close_out oc;
          Printf.printf "wrote %d trace events to %s (open in chrome://tracing or Perfetto)\n"
            (Flicker_obs.Tracer.length tracer) path);
      0

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a workload and dump the simulated timeline as Chrome trace JSON")
    Term.(const trace $ seed_arg $ tpm_arg $ workload_arg $ out_arg $ verbose_arg)

let stats seed tpm workload as_json out verbose =
  setup_logging verbose;
  let p, ca_key = make_platform ~seed ~tpm () in
  match run_workload p ca_key ~seed workload with
  | Error e -> Printf.printf "workload failed: %s\n" e; 1
  | Ok _ ->
      let metrics = p.Platform.machine.Flicker_hw.Machine.metrics in
      let text =
        if as_json then
          Flicker_obs.Json.to_string (Flicker_obs.Export.stats_json metrics) ^ "\n"
        else Flicker_obs.Export.stats_summary metrics
      in
      (match out with
      | None -> print_string text
      | Some path ->
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          Printf.printf "stats written to %s\n" path);
      0

let stats_json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit JSON instead of the text table.")

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a workload and print the platform's counters and latency histograms")
    Term.(const stats $ seed_arg $ tpm_arg $ workload_arg $ stats_json_arg $ out_arg $ verbose_arg)

(* --- fleet --- *)

let fleet_run seed tpm platforms batch queue_depth policy workload clients
    per_client mean_gap deadline shards domains verbose =
  setup_logging verbose;
  let module Fleet = Flicker_service.Fleet in
  let module Workload = Flicker_service.Workload in
  let module CA = Flicker_apps.Cert_authority in
  let config =
    {
      Fleet.default_config with
      platforms;
      batch_size = batch;
      queue_depth;
      policy;
      seed;
      timing = Timing.with_tpm tpm Timing.default;
      shards;
      domains;
    }
  in
  let is_ca = workload = `Ca in
  let wl =
    if is_ca then
      Workload.ca
        { CA.allowed_suffixes = [ ".example.com" ]; denied_subjects = [];
          max_certificates = 10_000 }
    else Workload.echo ()
  in
  let fleet = Fleet.create ~config wl in
  let keys =
    (* the clients' own keypairs, only needed to build CSRs *)
    if is_ca then
      Array.init clients (fun c ->
          (Rsa.generate (Prng.create ~seed:(Printf.sprintf "%s/client-%d" seed c))
             ~bits:512)
            .Rsa.pub)
    else [||]
  in
  Fleet.submit_open_loop fleet ~clients ~per_client ~mean_gap_ms:mean_gap
    ?deadline_ms:deadline
    ~payload:(fun ~client ~seq ->
      if is_ca then
        Workload.ca_csr_payload
          ~subject:(Printf.sprintf "host-%d-%d.example.com" client seq)
          ~subject_key:keys.(client)
      else Printf.sprintf "ping-%d-%d" client seq)
    ();
  Fleet.run fleet;
  if is_ca then begin
    let verified = ref 0 and bad = ref 0 in
    List.iter
      (fun (_, disposition) ->
        match disposition with
        | Flicker_service.Request.Completed c -> (
            match Workload.decode_ca_output c.Flicker_service.Request.output with
            | Ok (cert, ca_pub) when CA.verify_certificate ~ca_key:ca_pub cert ->
                incr verified
            | Ok _ | Error _ -> incr bad)
        | _ -> ())
      (Fleet.dispositions fleet);
    Printf.printf "certificates verified: %d (bad: %d)\n" !verified !bad
  end;
  Format.printf "%a@." Fleet.pp_summary (Fleet.summary fleet);
  0

let platforms_arg =
  Arg.(value & opt int 2
       & info [ "platforms" ] ~docv:"N" ~doc:"Number of Flicker machines in the fleet.")

let batch_arg =
  Arg.(value & opt int 4
       & info [ "batch" ] ~docv:"K"
           ~doc:"Max requests served per Flicker session (amortizes SKINIT + TPM).")

let queue_depth_arg =
  Arg.(value & opt int 32
       & info [ "queue-depth" ] ~docv:"D"
           ~doc:"Per-platform admission bound; arrivals beyond it are rejected.")

let policy_arg =
  let doc =
    "Dispatch policy: $(b,round-robin), $(b,least-loaded) or $(b,sealed-affinity)."
  in
  Arg.(value
       & opt (enum Flicker_service.Dispatch.all_policies)
           Flicker_service.Dispatch.Least_loaded
       & info [ "policy" ] ~docv:"POLICY" ~doc)

let fleet_workload_arg =
  Arg.(value & opt (enum [ ("ca", `Ca); ("echo", `Echo) ]) `Ca
       & info [ "workload" ] ~docv:"W"
           ~doc:"What the fleet serves: $(b,ca) (certificate signing) or $(b,echo).")

let clients_arg =
  Arg.(value & opt int 6
       & info [ "clients" ] ~docv:"N" ~doc:"Number of concurrent clients.")

let per_client_arg =
  Arg.(value & opt int 4
       & info [ "per-client" ] ~docv:"N" ~doc:"Requests each client sends.")

let mean_gap_arg =
  Arg.(value & opt float 50.0
       & info [ "mean-gap" ] ~docv:"MS"
           ~doc:"Mean gap between a client's sends (exponential, simulated ms).")

let deadline_arg =
  Arg.(value & opt (some float) None
       & info [ "deadline" ] ~docv:"MS"
           ~doc:"Per-request deadline relative to its send time (simulated ms).")

let shards_arg =
  Arg.(value & opt int 1
       & info [ "shards" ] ~docv:"S"
           ~doc:"Contiguous platform windows the fleet is split into. Sharding \
                 changes the simulation (routing, epoch barriers, cross-shard \
                 forwarding) but deterministically: same seed, same results.")

let domains_arg =
  Arg.(value & opt int 1
       & info [ "domains" ] ~docv:"N"
           ~doc:"OCaml 5 domains that execute the shards (clamped to the shard \
                 count). Pure execution placement: any value yields identical \
                 simulated results.")

let fleet_cmd =
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Serve many clients' PAL requests from a multi-machine Flicker fleet")
    Term.(const fleet_run $ seed_arg $ tpm_arg $ platforms_arg $ batch_arg
          $ queue_depth_arg $ policy_arg $ fleet_workload_arg $ clients_arg
          $ per_client_arg $ mean_gap_arg $ deadline_arg $ shards_arg
          $ domains_arg $ verbose_arg)

(* --- chaos --- *)

let chaos_run seed tpm platforms batch queue_depth policy workload clients
    per_client mean_gap deadline rate retry_budget breaker_failures
    breaker_cooldown shards domains verbose =
  setup_logging verbose;
  let module Fleet = Flicker_service.Fleet in
  let module Workload = Flicker_service.Workload in
  let module Injector = Flicker_fault.Injector in
  let module CA = Flicker_apps.Cert_authority in
  if rate < 0.0 || rate > 1.0 then begin
    prerr_endline "--rate must be within [0, 1]";
    exit 2
  end;
  let config =
    {
      Fleet.platforms;
      batch_size = batch;
      queue_depth;
      policy;
      seed;
      timing = Timing.with_tpm tpm Timing.default;
      faults = Some (Injector.scaled rate);
      retry_budget;
      breaker_failures;
      breaker_cooldown_ms = breaker_cooldown;
      shards;
      domains;
    }
  in
  let is_ca = workload = `Ca in
  let wl =
    if is_ca then
      Workload.ca
        { CA.allowed_suffixes = [ ".example.com" ]; denied_subjects = [];
          max_certificates = 10_000 }
    else Workload.echo ()
  in
  let fleet = Fleet.create ~config wl in
  let keys =
    if is_ca then
      Array.init clients (fun c ->
          (Rsa.generate (Prng.create ~seed:(Printf.sprintf "%s/client-%d" seed c))
             ~bits:512)
            .Rsa.pub)
    else [||]
  in
  Fleet.submit_open_loop fleet ~clients ~per_client ~mean_gap_ms:mean_gap
    ?deadline_ms:deadline
    ~payload:(fun ~client ~seq ->
      if is_ca then
        Workload.ca_csr_payload
          ~subject:(Printf.sprintf "host-%d-%d.example.com" client seq)
          ~subject_key:keys.(client)
      else Printf.sprintf "chaos-%d-%d" client seq)
    ();
  Fleet.run fleet;
  Format.printf "%a@." Fleet.pp_summary (Fleet.summary fleet);
  0

let rate_arg =
  Arg.(value & opt float 0.2
       & info [ "rate" ] ~docv:"R"
           ~doc:"Base fault rate in [0,1]: scales the TPM-error, latency-spike, \
                 crash and DMA-storm probabilities of the deterministic injector.")

let retry_budget_arg =
  Arg.(value & opt int 2
       & info [ "retry-budget" ] ~docv:"N"
           ~doc:"Re-dispatches allowed per request before it is failed.")

let breaker_failures_arg =
  Arg.(value & opt int 3
       & info [ "breaker-failures" ] ~docv:"N"
           ~doc:"Consecutive all-failed batches that open a platform's circuit \
                 breaker (0 disables it).")

let breaker_cooldown_arg =
  Arg.(value & opt float 2000.0
       & info [ "breaker-cooldown" ] ~docv:"MS"
           ~doc:"How long an open breaker sheds load before the platform \
                 rejoins (simulated ms).")

let chaos_workload_arg =
  Arg.(value & opt (enum [ ("ca", `Ca); ("echo", `Echo) ]) `Echo
       & info [ "workload" ] ~docv:"W"
           ~doc:"What the fleet serves under fault injection: $(b,echo) or $(b,ca).")

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run the fleet under deterministic seeded fault injection")
    Term.(const chaos_run $ seed_arg $ tpm_arg $ platforms_arg $ batch_arg
          $ queue_depth_arg $ policy_arg $ chaos_workload_arg $ clients_arg
          $ per_client_arg $ mean_gap_arg $ deadline_arg $ rate_arg
          $ retry_budget_arg $ breaker_failures_arg $ breaker_cooldown_arg
          $ shards_arg $ domains_arg $ verbose_arg)

(* --- serve --- *)

let serve_run seed tpm platforms batch queue_depth clients interactive
    per_client mean_gap deadline hit_pct capacity ttl rate as_json out verbose =
  setup_logging verbose;
  let module Fleet = Flicker_service.Fleet in
  let module Request = Flicker_service.Request in
  let module Serve = Flicker_serve.Serve in
  let module Injector = Flicker_fault.Injector in
  if hit_pct < 0 || hit_pct > 100 then begin
    prerr_endline "--hit-pct must be within [0, 100]";
    exit 2
  end;
  if rate < 0.0 || rate > 1.0 then begin
    prerr_endline "--rate must be within [0, 1]";
    exit 2
  end;
  let fleet_cfg =
    {
      Fleet.default_config with
      platforms;
      batch_size = batch;
      queue_depth;
      seed;
      timing = Timing.with_tpm tpm Timing.default;
      faults = (if rate > 0.0 then Some (Injector.scaled rate) else None);
      retry_budget = (if rate > 0.0 then 2 else 0);
      breaker_failures = (if rate > 0.0 then 3 else 0);
    }
  in
  let config =
    { Serve.fleet = fleet_cfg; cache_capacity = capacity; cache_ttl_ms = ttl }
  in
  let pool = 10 in
  let warm =
    if hit_pct = 0 then []
    else List.init pool (fun i -> Printf.sprintf "hot-%d" i)
  in
  let t = Serve.create ~config ~warm () in
  let fleet = Serve.fleet t in
  (* spread hot indices evenly (Bresenham): request k is hot exactly
     when floor((k+1)*pct/100) > floor(k*pct/100), so the offered hit
     fraction is exact for any load size *)
  let payload_for k =
    if ((k + 1) * hit_pct / 100) - (k * hit_pct / 100) > 0 then
      Printf.sprintf "hot-%d" (k mod pool)
    else Printf.sprintf "cold-%d" k
  in
  if interactive > 0 then
    Fleet.submit_open_loop fleet ~clients:interactive ~per_client
      ~mean_gap_ms:mean_gap ~tier:Request.Interactive ?deadline_ms:deadline
      ~payload:(fun ~client ~seq -> payload_for ((client * per_client) + seq))
      ();
  Fleet.submit_open_loop fleet ~clients ~per_client ~mean_gap_ms:mean_gap
    ~tier:Request.Batch
    ~payload:(fun ~client ~seq ->
      payload_for (((client + interactive) * per_client) + seq))
    ();
  Fleet.run fleet;
  (* every cache-served result must still carry a verifiable bundle *)
  let ok = ref 0 and stale = ref 0 and bad = ref 0 in
  List.iter
    (fun ((req : Flicker_service.Request.t), disposition) ->
      match disposition with
      | Request.Completed c when c.Request.batch = 0 -> (
          match Serve.bundle_for t req.Request.id with
          | None -> incr bad
          | Some b -> (
              match Serve.verify_bundle t b with
              | Ok () -> incr ok
              | Error (Serve.Stale _) -> incr stale
              | Error _ -> incr bad))
      | _ -> ())
    (Fleet.dispositions fleet);
  Format.printf "%a@." Fleet.pp_summary (Fleet.summary fleet);
  Printf.printf "cache-hit bundles appraised: %d ok, %d stale, %d bad\n" !ok
    !stale !bad;
  let metrics = Serve.metrics t in
  let text =
    if as_json then
      Flicker_obs.Json.to_string (Flicker_obs.Export.stats_json metrics) ^ "\n"
    else Flicker_obs.Export.stats_summary metrics
  in
  (match out with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "serve stats written to %s\n" path);
  if !bad > 0 then 1 else 0

let hit_pct_arg =
  Arg.(value & opt int 50
       & info [ "hit-pct" ] ~docv:"PCT"
           ~doc:"Percentage of requests drawn from the pre-warmed payload \
                 pool (exact by construction).")

let interactive_arg =
  Arg.(value & opt int 2
       & info [ "interactive" ] ~docv:"N"
           ~doc:"Interactive-tier clients admitted ahead of the batch tier \
                 (0 disables the tier).")

let capacity_arg =
  Arg.(value & opt int 1024
       & info [ "cache-capacity" ] ~docv:"N"
           ~doc:"Result-cache capacity; least-recently-used entries are \
                 evicted beyond it.")

let ttl_arg =
  Arg.(value & opt (some float) None
       & info [ "cache-ttl" ] ~docv:"MS"
           ~doc:"Result-cache entry lifetime on the simulated clock \
                 (absent: entries never expire).")

let serve_rate_arg =
  Arg.(value & opt float 0.0
       & info [ "rate" ] ~docv:"R"
           ~doc:"Base fault rate in [0,1]; nonzero also enables retries \
                 (budget 2) and the circuit breaker (3 failures).")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve a two-tier load through the attested result cache and \
             appraise every cache hit")
    Term.(const serve_run $ seed_arg $ tpm_arg $ platforms_arg $ batch_arg
          $ queue_depth_arg $ clients_arg $ interactive_arg $ per_client_arg
          $ mean_gap_arg $ deadline_arg $ hit_pct_arg $ capacity_arg $ ttl_arg
          $ serve_rate_arg $ stats_json_arg $ out_arg $ verbose_arg)

(* --- info --- *)

let info_run tpm =
  let timing = Timing.with_tpm tpm Timing.default in
  Printf.printf "Flicker simulator — paper testbed model\n";
  Printf.printf "CPU:       %s\n" timing.Timing.cpu.Timing.cpu_name;
  Printf.printf "TPM:       %s\n" timing.Timing.tpm.Timing.tpm_name;
  Printf.printf "  quote    %8.1f ms\n" timing.Timing.tpm.Timing.quote_ms;
  Printf.printf "  seal     %8.1f ms\n" timing.Timing.tpm.Timing.seal_ms;
  Printf.printf "  unseal   %8.1f ms\n" timing.Timing.tpm.Timing.unseal_ms;
  Printf.printf "  extend   %8.1f ms\n" timing.Timing.tpm.Timing.pcr_extend_ms;
  Printf.printf "SKINIT:    %.1f ms base + %.2f ms/KB of measured SLB\n"
    timing.Timing.tpm.Timing.skinit_base_ms timing.Timing.tpm.Timing.skinit_ms_per_kb;
  Printf.printf "network:   %.2f ms RTT (12 hops, Section 7.1)\n"
    timing.Timing.network.Timing.rtt_ms;
  0

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"Show the simulated platform's timing profile")
    Term.(const info_run $ tpm_arg)

let () =
  let doc = "Flicker: an execution infrastructure for TCB minimization (simulated)" in
  let main = Cmd.group (Cmd.info "flicker" ~version:"1.0.0" ~doc)
      [ hello_cmd; scan_cmd; ssh_cmd; ca_cmd; factor_cmd; tcb_cmd; extract_cmd;
        analyze_cmd; check_cmd;
        trace_cmd; stats_cmd; fleet_cmd; chaos_cmd; serve_cmd; info_cmd ]
  in
  exit (Cmd.eval' main)
