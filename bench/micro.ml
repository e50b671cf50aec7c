(* Bechamel microbenchmarks: the real wall-clock cost of the simulator
   itself (not the simulated latencies). One Test.make per paper table or
   figure, exercising the code path that regenerates it, plus the hot
   crypto primitives underneath. *)

open Bechamel
open Toolkit
open Flicker_core
module Prng = Flicker_crypto.Prng
module Sha1 = Flicker_crypto.Sha1
module Aes = Flicker_crypto.Aes
module Rsa = Flicker_crypto.Rsa
module Bignum = Flicker_crypto.Bignum
module Pal = Flicker_slb.Pal
module Pal_env = Flicker_slb.Pal_env
module Machine = Flicker_hw.Machine
module Memory = Flicker_hw.Memory
module Skinit = Flicker_hw.Skinit
module Apic = Flicker_hw.Apic
module Tpm = Flicker_tpm.Tpm
module Scheduler = Flicker_os.Scheduler
module Tcb = Flicker_slb.Tcb
module Distcomp = Flicker_apps.Distcomp
module Ssh_auth = Flicker_apps.Ssh_auth
module CA = Flicker_apps.Cert_authority

(* staged state, built once *)
let platform = lazy (Platform.create ~seed:"micro" ~key_bits:512 ())

let hello_pal =
  lazy (Pal.define ~name:"micro-hello" (fun env -> Pal_env.set_output env "hi"))

let skinit_machine =
  lazy
    (let m = Machine.create ~memory_size:(1024 * 1024) Flicker_hw.Timing.default in
     let tpm = Tpm.create m (Prng.create ~seed:"micro-skinit") ~key_bits:512 in
     Machine.set_tpm_hooks m (Tpm.skinit_hooks tpm);
     Memory.write_u16_le m.Machine.memory 0x10000 65532;
     Memory.write_u16_le m.Machine.memory 0x10002 4;
     m)

let ssh_login = lazy begin
  let p = Lazy.force platform in
  let server = Ssh_auth.create_server p ~key_bits:512 ~users:[ ("u", "p") ] () in
  let nonce = Platform.fresh_nonce p in
  let setup =
    match Ssh_auth.server_setup server ~nonce with Ok s -> s | Error e -> failwith e
  in
  let ca_key =
    (* the bench does not verify; grab the channel key straight from the
       attested outputs *)
    setup.Ssh_auth.evidence.Attestation.claimed_outputs
  in
  let out =
    match Flicker_slb.Mod_secure_channel.decode_setup_output ca_key with
    | Ok out -> out
    | Error e -> failwith e
  in
  let rng = Prng.create ~seed:"micro-ssh-client" in
  let login_nonce = Platform.fresh_nonce p in
  let ct =
    Flicker_crypto.Pkcs1.encrypt rng out.Flicker_slb.Mod_secure_channel.public_key
      (Flicker_crypto.Util.encode_fields [ "p"; login_nonce ])
  in
  (server, ct, login_nonce)
  end

let ca_server = lazy begin
  let p = Lazy.force platform in
  let ca =
    CA.create p ~key_bits:512
      { CA.allowed_suffixes = [ ".x" ]; denied_subjects = []; max_certificates = max_int }
  in
  (match CA.init_ca ca with Ok _ -> () | Error e -> failwith e);
  let csr =
    { CA.subject = "a.x"; subject_key = (Rsa.generate (Prng.create ~seed:"mc") ~bits:256).Rsa.pub }
  in
  (ca, csr)
  end

let distcomp_client = lazy (Distcomp.create_client (Lazy.force platform))

let keygen_name = "crypto:rsa-512 keygen"

(* The deterministic work behind the keygen row: the counters across
   the first keygen the row's generator makes. *)
let keygen_work () =
  let calls = Bignum.mod_pow_calls () and products = Bignum.limb_products () in
  ignore (Rsa.generate (Prng.create ~seed:"micro-keygen") ~bits:512);
  Printf.sprintf "  (%d mod_pow calls, %d limb products)"
    (Bignum.mod_pow_calls () - calls)
    (Bignum.limb_products () - products)

(* What a CA batch seals: a 512-bit CA's state (private key, issuer,
   count) is about this long, 25 AES blocks once the PCR 17 release and
   padding are added. Sealed to the current PCR 17 the way the CA PAL
   seals to itself, so the unseal succeeds. *)
let ca_state = String.make 360 's'
let seal_name = "tpm:seal+unseal (CA state)"

let seal_unseal rng =
  let module U = Flicker_slb.Mod_tpm_utils in
  let tpm = (Lazy.force platform).Platform.tpm in
  let pcr17 = Result.get_ok (U.pcr_read tpm 17) in
  let blob = Result.get_ok (U.seal_to_pcr17 tpm ~rng ~pcr17 ca_state) in
  ignore (Result.get_ok (U.unseal tpm ~rng blob))

let seal_work () =
  let before = Aes.blocks () in
  seal_unseal (Prng.create ~seed:"micro-seal-work");
  Printf.sprintf "  (%d AES blocks)" (Aes.blocks () - before)

let row_work = [ (keygen_name, keygen_work); (seal_name, seal_work) ]

let tests =
  [
    Test.make ~name:"table1:rootkit-style session (64KB hash PAL)"
      (Staged.stage (fun () ->
           let p = Lazy.force platform in
           match Session.execute p ~pal:(Lazy.force hello_pal) () with
           | Ok _ -> ()
           | Error e -> Format.kasprintf failwith "%a" Session.pp_error e));
    Test.make ~name:"table2:skinit instruction"
      (Staged.stage (fun () ->
           let m = Lazy.force skinit_machine in
           Apic.deschedule_aps m;
           Apic.send_init_ipi m;
           let launch = Skinit.execute m ~slb_base:0x10000 in
           Skinit.teardown_dev m launch;
           Apic.release_aps m));
    Test.make ~name:"table3:scheduler 1s slice"
      (Staged.stage (fun () ->
           let p = Lazy.force platform in
           ignore (Scheduler.spawn p.Platform.scheduler ~name:"slice" ~work_ms:10.0);
           Scheduler.run_for p.Platform.scheduler 1000.0));
    Test.make ~name:"table4:distcomp start session"
      (Staged.stage (fun () ->
           let client = Lazy.force distcomp_client in
           let unit_ = { Distcomp.unit_id = 1; number = 1234577; lo = 2; hi = 100000 } in
           match Distcomp.start client unit_ ~slice_ms:1.0 with
           | Ok _ -> ()
           | Error e -> failwith e));
    Test.make ~name:"figure8:efficiency sweep"
      (Staged.stage (fun () ->
           for s = 1 to 10 do
             ignore
               (Distcomp.efficiency Flicker_hw.Timing.default
                  ~work_ms:(float_of_int s *. 1000.0))
           done));
    Test.make ~name:"figure9:ssh login session"
      (Staged.stage (fun () ->
           let server, ct, nonce = Lazy.force ssh_login in
           match Ssh_auth.server_login server ~user:"u" ~ciphertext:ct ~nonce with
           | Ok _ -> ()
           | Error e -> failwith e));
    Test.make ~name:"figure6:tcb accounting"
      (Staged.stage (fun () -> ignore (Tcb.totals (Tcb.figure6 ()))));
    Test.make ~name:"ca:certificate signing session"
      (Staged.stage (fun () ->
           let ca, csr = Lazy.force ca_server in
           match CA.sign_csr ca csr with Ok _ -> () | Error e -> failwith e));
    Test.make ~name:"crypto:sha1 64KB"
      (let buf = String.make (64 * 1024) 'x' in
       Staged.stage (fun () -> ignore (Sha1.digest buf)));
    Test.make ~name:"crypto:aes-cbc 4KB enc"
      (let key = Aes.expand_key (String.make 16 'k') and iv = String.make 16 'i' in
       let buf = String.make 4096 'x' in
       Staged.stage (fun () -> ignore (Aes.encrypt_cbc key ~iv buf)));
    Test.make ~name:"crypto:aes-cbc 4KB dec"
      (let key = Aes.expand_key (String.make 16 'k') and iv = String.make 16 'i' in
       let ct = Aes.encrypt_cbc key ~iv (String.make 4096 'x') in
       Staged.stage (fun () -> ignore (Aes.decrypt_cbc key ~iv ct)));
    Test.make ~name:keygen_name
      (let rng = Prng.create ~seed:"micro-keygen" in
       Staged.stage (fun () -> ignore (Rsa.generate rng ~bits:512)));
    Test.make ~name:seal_name
      (let rng = Prng.create ~seed:"micro-seal" in
       Staged.stage (fun () -> seal_unseal rng));
    Test.make ~name:"tpm:quote"
      (let p = Lazy.force platform in
       Staged.stage (fun () ->
           ignore (Tpm.quote p.Platform.tpm ~nonce:(String.make 20 'n') ~selection:[ 17 ])));
  ]

(* Host SHA-1 bytes per Optimized session — the measurement-memoization
   number. "cold" clears the measurement caches before every session
   (the pre-memoization behavior, every window re-patched and re-hashed);
   "warm" keeps them, the shipping configuration. Simulated TPM costs are
   charged identically either way; only the simulator's own hashing
   changes. *)
let measurement_cache_report () =
  let p = Platform.create ~seed:"micro-memo" ~key_bits:512 () in
  let pal = Pal.define ~name:"micro-memo" (fun env -> Pal_env.set_output env "hi") in
  let session () =
    match
      Session.execute p ~pal ~flavor:Flicker_slb.Builder.Optimized ()
    with
    | Ok _ -> ()
    | Error e -> Format.kasprintf failwith "%a" Session.pp_error e
  in
  let n = 20 in
  let bytes_per_session ~cold =
    Measurement.clear_cache ();
    if not cold then session () (* prime the caches once, uncounted *);
    let start = Sha1.bytes_hashed () in
    for _ = 1 to n do
      if cold then Measurement.clear_cache ();
      session ()
    done;
    (Sha1.bytes_hashed () - start) / n
  in
  let cold = bytes_per_session ~cold:true in
  let warm = bytes_per_session ~cold:false in
  let hits, misses = Measurement.cache_stats () in
  print_endline "\n=== measurement cache (host SHA-1 bytes per Optimized session) ===";
  Printf.printf "cold (cache cleared each session): %7d bytes/session\n" cold;
  Printf.printf "warm (shipping configuration):     %7d bytes/session  (%.1fx fewer)\n"
    warm
    (float_of_int cold /. float_of_int (max 1 warm));
  Printf.printf "cache stats over the warm run: %d hits, %d misses\n" hits misses

let run () =
  print_endline "\n=== Bechamel microbenchmarks (real wall-clock of the simulator) ===";
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.4) ~stabilize:false () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      List.iter
        (fun tst ->
          let raw = Benchmark.run cfg [ instance ] tst in
          let result = Analyze.one ols instance raw in
          let estimate =
            match Analyze.OLS.estimates result with
            | Some [ v ] -> v
            | Some (v :: _) -> v
            | _ -> nan
          in
          let name = Test.Elt.name tst in
          Printf.printf "%-46s %12.1f us/run%s\n" name (estimate /. 1000.0)
            (match List.assoc_opt name row_work with Some work -> work () | None -> ""))
        (Test.elements test))
    tests;
  measurement_cache_report ()
