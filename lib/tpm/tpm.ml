open Flicker_crypto
module Machine = Flicker_hw.Machine
module Timing = Flicker_hw.Timing

type t = {
  machine : Machine.t;
  rng : Prng.t;
  pcrs : Pcr.t;
  keys : Keys.t;
  nvram : Nvram.t;
  counters : Counter.t;
  mutable auth_sessions : Auth.t;
  owner_auth : string;
  seal_enc_key : Aes.key;
  seal_mac_key : string;
}

type authorization = { session : int; nonce_odd : string; mac : string }

type quote = {
  quoted_composite : Tpm_types.pcr_composite;
  quote_nonce : string;
  signature : string;
}

let profile t = t.machine.Machine.timing.Timing.tpm

(* One fault decision per command invocation, drawn from the machine's
   injector (if any) at the current virtual time. *)
let injected_fault t op =
  match Machine.injector t.machine with
  | None -> Flicker_fault.Injector.No_fault
  | Some inj ->
      Flicker_fault.Injector.tpm_fault inj ~op
        ~now_ms:(Flicker_hw.Clock.now t.machine.Machine.clock)

(* Every TPM command advances the simulated clock and records one count
   plus the charged latency under tpm.<command>.{count,ms}. An injected
   latency spike stretches the charge; the recorded ms is what was
   actually charged, so chaos runs show up in the histograms. *)
let charge_op ?(fault = Flicker_fault.Injector.No_fault) t op ms =
  let ms =
    match fault with
    | Flicker_fault.Injector.Slow factor ->
        Machine.fault_event t.machine "fault.tpm.slow"
          ~args:[ ("op", Flicker_obs.Tracer.Str op) ];
        Flicker_obs.Metrics.incr t.machine.Machine.metrics "fault.tpm.slow";
        ms *. factor
    | _ -> ms
  in
  Machine.charge t.machine ms;
  let metrics = t.machine.Machine.metrics in
  Flicker_obs.Metrics.incr metrics ("tpm." ^ op ^ ".count");
  Flicker_obs.Metrics.observe metrics ("tpm." ^ op ^ ".ms") ms

(* Charge a result-returning command and decide whether it instead dies
   with a transient TPM_RETRY. Commands whose callers treat errors as
   fatal protocol violations (pcr_extend inside a session) charge through
   [charge_op] directly and only ever see latency faults. *)
let charged t op ms =
  let fault = injected_fault t op in
  charge_op ~fault t op ms;
  match fault with
  | Flicker_fault.Injector.Busy ->
      Machine.fault_event t.machine "fault.tpm.busy"
        ~args:[ ("op", Flicker_obs.Tracer.Str op) ];
      Flicker_obs.Metrics.incr t.machine.Machine.metrics "fault.tpm.busy";
      Error Tpm_types.Tpm_busy
  | _ -> Ok ()

(* Sealed-storage wrapping keys, derived from the SRK private key so that
   unsealing is possible only on this TPM. *)
let derive_seal_keys srk =
  let secret = Rsa.private_to_string srk in
  let enc = String.sub (Sha256.digest ("tpm-seal-enc" ^ secret)) 0 16 in
  let mac = Sha256.digest ("tpm-seal-mac" ^ secret) in
  (Aes.expand_key enc, mac)

let create ?owner_auth ?srk_auth machine rng ~key_bits =
  let owner_auth =
    match owner_auth with Some a -> a | None -> Keys.well_known_auth
  in
  if String.length owner_auth <> Tpm_types.owner_auth_size then
    invalid_arg "Tpm.create: owner auth must be 20 bytes";
  let keys = Keys.generate ?srk_auth rng ~key_bits in
  let seal_enc_key, seal_mac_key = derive_seal_keys keys.Keys.srk in
  let pcrs = Pcr.create () in
  (* PCR mutations were previously silent state changes; surface them as
     protocol instants so the temporal verifier can check extend order *)
  Pcr.set_notify pcrs (fun change ->
      match change with
      | Pcr.Extended { index; kind; value } ->
          Machine.protocol_event machine "pcr.extend"
            ~args:
              [
                ("index", Flicker_obs.Tracer.Count index);
                ("kind", Flicker_obs.Tracer.Str kind);
                ("value", Flicker_obs.Tracer.Str (Flicker_crypto.Util.to_hex (String.sub value 0 4)));
              ]
      | Pcr.Dynamic_reset -> Machine.protocol_event machine "pcr.reset"
      | Pcr.Rebooted -> Machine.protocol_event machine "pcr.reboot");
  {
    machine;
    rng;
    pcrs;
    keys;
    nvram = Nvram.create ();
    counters = Counter.create ();
    auth_sessions = Auth.create (Prng.fork rng ~label:"tpm-auth");
    owner_auth;
    seal_enc_key;
    seal_mac_key;
  }

(* Every session of a PAL transmits the same stub (or ACM): its digest
   is memoized by content, so a warm launch costs a fingerprint and a
   memcmp, and any changed byte still misses and re-hashes. *)
let launch_measurements : string Memo.t = Memo.create ()

let skinit_hooks t =
  {
    Machine.dynamic_pcr_reset = (fun () -> Pcr.dynamic_reset t.pcrs);
    measure_into_pcr17 =
      (fun slb_contents ->
        let measurement =
          Memo.find_or_add launch_measurements slb_contents (fun () ->
              Sha1.digest slb_contents)
        in
        match Pcr.extend ~kind:"measure" t.pcrs 17 measurement with
        | Ok _ -> measurement
        | Error e -> failwith ("TPM: PCR 17 extend failed: " ^ Tpm_types.error_to_string e));
  }

let reboot t =
  Pcr.reboot t.pcrs;
  t.auth_sessions <- Auth.create (Prng.fork t.rng ~label:"tpm-auth-reboot")

let aik_public t = Keys.aik_public t.keys
let ek_public t = Keys.ek_public t.keys
let owner_auth t = t.owner_auth
let srk_auth t = t.keys.Keys.srk_auth

let pcr_read t i =
  match charged t "pcr_read" (profile t).Timing.pcr_read_ms with
  | Error e -> Error e
  | Ok () -> Pcr.read t.pcrs i

let pcr_extend ?kind t i m =
  (* latency faults only: session code treats an extend error as a fatal
     protocol violation, so a transient here could never be retried *)
  charge_op ~fault:(injected_fault t "pcr_extend") t "pcr_extend"
    (profile t).Timing.pcr_extend_ms;
  Pcr.extend ?kind t.pcrs i m

let pcr_composite t sel = Pcr.composite t.pcrs sel

let get_random t n =
  charge_op ~fault:(injected_fault t "get_random") t "get_random"
    (Timing.get_random_ms t.machine.Machine.timing ~bytes:n);
  Prng.bytes t.rng n

let quote t ~nonce ~selection =
  if String.length nonce <> Tpm_types.digest_size then
    invalid_arg "Tpm.quote: nonce must be 20 bytes";
  charge_op ~fault:(injected_fault t "quote") t "quote" (profile t).Timing.quote_ms;
  let composite = Pcr.composite t.pcrs selection in
  let payload = "QUOT" ^ Tpm_types.composite_hash composite ^ nonce in
  let signature = Pkcs1.sign t.keys.Keys.aik Hash.SHA1 payload in
  { quoted_composite = composite; quote_nonce = nonce; signature }

let oiap t = Auth.start_oiap t.auth_sessions

let osap t ~entity ~no_osap =
  match entity with
  | "SRK" ->
      Ok (Auth.start_osap t.auth_sessions ~entity ~usage_auth:t.keys.Keys.srk_auth ~no_osap)
  | _ -> Error (Tpm_types.Bad_parameter ("unknown OSAP entity " ^ entity))

let close_session t handle = Auth.close t.auth_sessions handle

(* --- sealed storage --- *)

let field s = Util.be32_of_int (String.length s) ^ s

let fields_exn s =
  let rec go off acc =
    if off = String.length s then List.rev acc
    else begin
      let len = Util.int_of_be32 s off in
      go (off + 4 + len) (String.sub s (off + 4) len :: acc)
    end
  in
  go 0 []

let serialize_composite composite =
  String.concat ""
    (List.map (fun (i, v) -> Util.be32_of_int i ^ field v) composite)

let deserialize_composite s =
  let rec go off acc =
    if off = String.length s then List.rev acc
    else begin
      let idx = Util.int_of_be32 s off in
      let len = Util.int_of_be32 s (off + 4) in
      let v = String.sub s (off + 8) len in
      go (off + 8 + len) ((idx, v) :: acc)
    end
  in
  go 0 []

let seal_command_digest ~release ~data =
  Sha1.digest ("TPM_Seal" ^ serialize_composite release ^ data)

let unseal_command_digest ~blob = Sha1.digest ("TPM_Unseal" ^ blob)

let check_auth t ~auth ~entity_auth ~command_digest =
  Auth.verify t.auth_sessions ~handle:auth.session ~entity_auth ~command_digest
    ~nonce_odd:auth.nonce_odd ~mac:auth.mac

let seal t ~auth ~release data =
  match charged t "seal" (profile t).Timing.seal_ms with
  | Error e -> Error e
  | Ok () -> (
  let command_digest = seal_command_digest ~release ~data in
  match check_auth t ~auth ~entity_auth:t.keys.Keys.srk_auth ~command_digest with
  | Error e -> Error e
  | Ok () ->
      let payload = field (serialize_composite release) ^ field data in
      let iv = Prng.bytes t.rng 16 in
      let ct = Aes.encrypt_cbc t.seal_enc_key ~iv payload in
      let body = iv ^ ct in
      let tag = Hmac.mac Hash.SHA256 ~key:t.seal_mac_key body in
      Ok (tag ^ body))

let unseal t ~auth blob =
  match charged t "unseal" (profile t).Timing.unseal_ms with
  | Error e -> Error e
  | Ok () -> (
  let command_digest = unseal_command_digest ~blob in
  match check_auth t ~auth ~entity_auth:t.keys.Keys.srk_auth ~command_digest with
  | Error e -> Error e
  | Ok () ->
      if String.length blob < 32 + 16 + 16 then Error Tpm_types.Decrypt_error
      else begin
        let tag = String.sub blob 0 32 in
        let body = String.sub blob 32 (String.length blob - 32) in
        if not (Hmac.verify Hash.SHA256 ~key:t.seal_mac_key ~msg:body ~tag) then
          Error Tpm_types.Decrypt_error
        else begin
          let iv = String.sub body 0 16 in
          let ct = String.sub body 16 (String.length body - 16) in
          match Aes.decrypt_cbc t.seal_enc_key ~iv ct with
          | exception Invalid_argument _ -> Error Tpm_types.Decrypt_error
          | payload -> (
              match fields_exn payload with
              | [ release_raw; data ] ->
                  let release = deserialize_composite release_raw in
                  let current = Pcr.composite t.pcrs (List.map fst release) in
                  if
                    Tpm_types.composite_hash current
                    = Tpm_types.composite_hash release
                  then Ok data
                  else Error Tpm_types.Wrong_pcr_value
              | _ | (exception _) -> Error Tpm_types.Decrypt_error)
        end
      end)

(* --- NV storage --- *)

let nv_define_command_digest ~index (attrs : Nvram.space_attributes) =
  Sha1.digest
    ("TPM_NV_DefineSpace" ^ Util.be32_of_int index
    ^ Util.be32_of_int attrs.Nvram.size
    ^ serialize_composite attrs.Nvram.read_pcrs
    ^ serialize_composite attrs.Nvram.write_pcrs)

let nv_define_space t ~auth ~index attrs =
  match charged t "nv_define_space" (profile t).Timing.nv_write_ms with
  | Error e -> Error e
  | Ok () -> (
      let command_digest = nv_define_command_digest ~index attrs in
      match check_auth t ~auth ~entity_auth:t.owner_auth ~command_digest with
      | Error e -> Error e
      | Ok () -> Nvram.define_space t.nvram ~index attrs)

let current_pcrs t sel = Pcr.composite t.pcrs sel

let nv_read t ~index =
  match charged t "nv_read" (profile t).Timing.nv_read_ms with
  | Error e -> Error e
  | Ok () ->
  let r = Nvram.read t.nvram ~index ~current_pcrs:(current_pcrs t) in
  if Result.is_ok r then
    Machine.protocol_event t.machine "nv.read"
      ~args:[ ("index", Flicker_obs.Tracer.Count index) ];
  r

let nv_write t ~index data =
  match charged t "nv_write" (profile t).Timing.nv_write_ms with
  | Error e -> Error e
  | Ok () ->
  let r = Nvram.write t.nvram ~index ~current_pcrs:(current_pcrs t) data in
  if Result.is_ok r then begin
    (* 4-byte spaces are the replay-counter convention; carry the decoded
       value so the NV-monotonicity automaton can watch it advance *)
    let args = [ ("index", Flicker_obs.Tracer.Count index) ] in
    let args =
      if String.length data = 4 then
        args @ [ ("counter", Flicker_obs.Tracer.Count (Flicker_crypto.Util.int_of_be32 data 0)) ]
      else args
    in
    Machine.protocol_event t.machine "nv.write" ~args
  end;
  r

(* --- monotonic counters --- *)

let counter_command_digest ~label = Sha1.digest ("TPM_CreateCounter" ^ label)

let create_counter t ~auth ~label =
  match charged t "counter_create" (profile t).Timing.counter_increment_ms with
  | Error e -> Error e
  | Ok () -> (
      let command_digest = counter_command_digest ~label in
      match check_auth t ~auth ~entity_auth:t.owner_auth ~command_digest with
      | Error e -> Error e
      | Ok () -> Ok (Counter.create_counter t.counters ~label))

let increment_counter t ~handle =
  match charged t "counter_increment" (profile t).Timing.counter_increment_ms with
  | Error e -> Error e
  | Ok () ->
  let r = Counter.increment t.counters ~handle in
  (match r with
  | Ok value ->
      Machine.protocol_event t.machine "counter.increment"
        ~args:
          [
            ("handle", Flicker_obs.Tracer.Count handle);
            ("value", Flicker_obs.Tracer.Count value);
          ]
  | Error _ -> ());
  r

let read_counter t ~handle =
  match charged t "counter_read" (profile t).Timing.nv_read_ms with
  | Error e -> Error e
  | Ok () -> Counter.read t.counters ~handle

let get_capability_version t =
  charge_op ~fault:(injected_fault t "get_capability") t "get_capability"
    (profile t).Timing.pcr_read_ms;
  "TPM 1.2 rev 103 (simulated, " ^ (profile t).Timing.tpm_name ^ ")"

let get_capability_pcr_count t =
  charge_op ~fault:(injected_fault t "get_capability") t "get_capability"
    (profile t).Timing.pcr_read_ms;
  Pcr.count
