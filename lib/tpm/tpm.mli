(** The TPM v1.2 device: command-level facade over the PCR bank, key
    hierarchy, NV storage, counters, and authorization sessions.

    Every command charges its calibrated latency (from the machine's
    {!Flicker_hw.Timing} profile) against the simulated clock, so the
    paper's TPM-dominated measurements fall out of the model. All
    cryptography is real: quotes verify under the AIK public key, sealed
    blobs are AES+HMAC wrapped under keys derived from the SRK private
    key (the v1.2 spec uses RSA-OAEP under the SRK for small payloads;
    the symmetric wrapping preserves the trust property — only this TPM
    can unseal — without the size limit). *)

type t

type authorization = { session : int; nonce_odd : string; mac : string }
(** Client proof of knowledge of an entity secret, computed with
    {!Auth.auth_mac}. *)

type quote = {
  quoted_composite : Tpm_types.pcr_composite;
  quote_nonce : string;
  signature : string;  (** AIK signature over ["QUOT" || composite_hash || nonce] *)
}

val create :
  ?owner_auth:string ->
  ?srk_auth:string ->
  Flicker_hw.Machine.t ->
  Flicker_crypto.Prng.t ->
  key_bits:int ->
  t
(** Manufacture a TPM attached to [machine] (for its clock and timing
    profile). Generates the EK/SRK/AIK hierarchy. [owner_auth] defaults to
    the well-known secret. *)

val skinit_hooks : t -> Flicker_hw.Machine.tpm_hooks
(** The chipset-facing interface SKINIT drives; pass to
    [Machine.set_tpm_hooks]. Not reachable from the software command set.
    The measurement hook memoizes its SHA-1 by content
    ({!Flicker_crypto.Memo}; cleared and counted by
    [Measurement.clear_cache]/[cache_stats]) and returns the digest it
    extended. *)

val reboot : t -> unit
(** Platform reset: static PCRs to zero, dynamic PCRs to -1, sessions
    dropped. NV storage, counters, and keys persist. *)

val aik_public : t -> Flicker_crypto.Rsa.public
val ek_public : t -> Flicker_crypto.Rsa.public
val owner_auth : t -> string
val srk_auth : t -> string

(** {1 PCR commands} *)

val pcr_read : t -> int -> (Tpm_types.digest, Tpm_types.error) result

val pcr_extend :
  ?kind:string -> t -> int -> Tpm_types.digest -> (Tpm_types.digest, Tpm_types.error) result
(** [kind] (default ["software"]) labels the protocol trace event; the
    session layer passes "stub"/"input"/"output"/"nonce"/"cap" so the
    extend-order automaton can check the Section 4–5 discipline. *)

val pcr_composite : t -> Tpm_types.pcr_selection -> Tpm_types.pcr_composite

(** {1 Random numbers} *)

val get_random : t -> int -> string

(** {1 Attestation} *)

val quote : t -> nonce:string -> selection:Tpm_types.pcr_selection -> quote
(** TPM_Quote with the AIK. The nonce must be 20 bytes.
    @raise Invalid_argument on a bad nonce. *)

(** {1 Authorization sessions} *)

val oiap : t -> Auth.session
val osap : t -> entity:string -> no_osap:string -> (Auth.session * string, Tpm_types.error) result
(** Only entity ["SRK"] is defined in this simulator. Returns the session
    and [ne_osap]. *)

val close_session : t -> int -> unit

(** {1 Sealed storage}

    [seal] binds data to a future PCR state: the blob unseals only when
    the selected PCRs hold the digest-at-release values. Both commands
    require an authorization for the SRK (OSAP recommended). The command
    digests are [seal_command_digest]/[unseal_command_digest]. *)

val seal :
  t ->
  auth:authorization ->
  release:Tpm_types.pcr_composite ->
  string ->
  (string, Tpm_types.error) result

val unseal : t -> auth:authorization -> string -> (string, Tpm_types.error) result

val seal_command_digest : release:Tpm_types.pcr_composite -> data:string -> string
val unseal_command_digest : blob:string -> string

(** {1 NV storage (owner-authorized definition)} *)

val nv_define_space :
  t ->
  auth:authorization ->
  index:int ->
  Nvram.space_attributes ->
  (unit, Tpm_types.error) result

val nv_read : t -> index:int -> (string, Tpm_types.error) result
val nv_write : t -> index:int -> string -> (unit, Tpm_types.error) result
val nv_define_command_digest : index:int -> Nvram.space_attributes -> string

(** {1 Monotonic counters} *)

val create_counter :
  t -> auth:authorization -> label:string -> (int, Tpm_types.error) result

val increment_counter : t -> handle:int -> (int, Tpm_types.error) result
val read_counter : t -> handle:int -> (int, Tpm_types.error) result
val counter_command_digest : label:string -> string

(** {1 Capabilities} *)

val get_capability_version : t -> string
val get_capability_pcr_count : t -> int
