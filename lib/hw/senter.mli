(** Intel TXT late launch: GETSEC[SENTER] (Section 2.4).

    The paper implements Flicker on AMD SVM but notes that "Intel's TXT
    technology functions analogously". The architectural difference this
    simulator models is the two-stage measurement: SENTER first loads and
    measures a chipset-specific Authenticated Code Module (the SINIT
    ACM), which then measures and launches the Measured Launch
    Environment (Flicker's SLB). Both measurements land in the dynamic
    PCR chain, so a verifier expecting a TXT launch must account for the
    extra ACM link. (Real TXT splits the two across PCRs 17 and 18; the
    simulator keeps the single-register chain of its SVM model and
    documents the simplification in DESIGN.md.)

    Everything else — DEV-equivalent DMA protection (TXT's NoDMA/PMR),
    interrupt and debug lockout, the flat-mode entry — matches SKINIT. *)

exception Senter_error of string

type launch = {
  mle_base : int;
  mle_length : int;
  entry_point : int;
  acm_measurement : string;  (** SHA-1 of the SINIT ACM *)
  mle_measurement : string;  (** SHA-1 of the measured MLE bytes *)
  protected_base : int;
  protected_len : int;
}

val default_acm : string
(** A stand-in SINIT ACM image (vendor-supplied binary on real hardware);
    deterministic so measurements are reproducible. *)

val execute : Machine.t -> slb_base:int -> acm:string -> launch
(** Run the SENTER sequence on the MLE at [slb_base].
    @raise Senter_error under the same preconditions as SKINIT, plus an
    empty ACM. *)

val teardown_protection : Machine.t -> launch -> unit
