(** Expected PCR 17 values — the verifier's side of the measurement chain
    (Section 4.4.1).

    After SKINIT, PCR 17 holds [H(0x00^20 || H(SLB))] where [SLB] is the
    initialized (patched) measured region. For an optimized image the
    chain has one more link: the measured stub extends the hash of the
    full 64 KB window. After the PAL runs, the SLB Core extends
    measurements of the inputs, the outputs, the verifier's nonce (when
    present), and finally the well-known cap value, in that order. *)

type digest = Flicker_tpm.Tpm_types.digest

val extend : digest -> digest -> digest
(** [extend current value] = SHA-1(current || value). *)

val extend_chain : digest -> digest list -> digest

val initialized : Flicker_slb.Builder.image -> slb_base:int -> string
(** The image patched for [slb_base] — [Builder.initialize], memoized by
    content (image bytes, slb_base) so repeated sessions of the same PAL
    stop re-patching a fresh 64 KB copy. The returned string is shared:
    treat it as immutable. *)

val of_image : Flicker_slb.Builder.image -> slb_base:int -> digest
(** H(measured bytes) of the initialized image — what the TPM receives.
    Memoized alongside {!initialized}. *)

val window_hash : Flicker_slb.Builder.image -> slb_base:int -> digest
(** Hash of the full 64 KB window (what the optimized stub extends).
    Memoized alongside {!initialized}. *)

val window_digest : string -> digest
(** SHA-1 of a raw window read back from memory, memoized by the window
    content itself — the session's optimized-stub extend goes through
    here, so re-measuring an unchanged window costs a sampled fingerprint
    and a memcmp instead of a 64 KB hash, while any in-memory corruption
    still changes the key (and therefore misses and re-hashes). *)

val cache_stats : unit -> int * int
(** (hits, misses) summed over every content memo
    ({!Flicker_crypto.Memo.stats_all}) on the calling domain since its
    last {!clear_cache}: the image and window memos above and the TPM's
    SKINIT-measurement memo — instrumentation for [bench micro] and the
    host-cost benchmark. The memos live in [Domain.DLS], one instance per
    domain: a sharded fleet hashes on several domains without sharing (or
    tearing) a table, and because every memo is content-keyed the split
    is identity-preserving — only the hit/miss counts depend on the
    domain layout, never a digest. *)

val clear_cache : unit -> unit
(** Drop every content memo on the calling domain (and zero its
    {!cache_stats}), so the next session hashes everything cold. Results
    are unaffected: the memos are keyed by content, so this only costs
    re-derivation. At capacity a memo evicts its single oldest entry
    instead of flushing wholesale, so a working set one larger than the
    bound degrades by one re-derivation per wrap rather than to a 0%
    hit rate. *)

val after_launch : ?acm:string -> Flicker_slb.Builder.image -> slb_base:int -> digest
(** PCR 17 immediately after a late launch (including the stub's extend
    for optimized images) — the value sealed storage should bind to.
    With [acm] the chain models an Intel TXT launch: GETSEC[SENTER]
    measures the SINIT ACM before the ACM measures the MLE, adding one
    link in front. *)

val after_skinit : Flicker_slb.Builder.image -> slb_base:int -> digest
(** [after_launch] without an ACM: the AMD SVM chain. *)

val io_extends :
  inputs:string -> outputs:string -> nonce:string option -> digest list
(** The values the SLB Core extends after the PAL exits. *)

val labeled_io_extends :
  inputs:string -> outputs:string -> nonce:string option -> (string * digest) list
(** {!io_extends} with each value's protocol-event kind label
    (["input"]/["output"]/["nonce"]) so the session can tag the extends
    for the temporal verifier's extend-order automaton. *)

val final :
  ?acm:string ->
  ?pal_extends:digest list ->
  Flicker_slb.Builder.image ->
  slb_base:int ->
  inputs:string ->
  outputs:string ->
  nonce:string option ->
  digest
(** The capped PCR 17 value a correct session must leave behind — what a
    quote over PCR 17 is checked against. [pal_extends] lists any values
    the PAL itself extended during execution (e.g., the rootkit detector
    extends its result hash before exiting); they sit between the launch
    measurement and the SLB Core's I/O extends. *)
