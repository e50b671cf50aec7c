(** The SKINIT instruction (AMD SVM late launch, Section 2.4).

    SKINIT atomically: verifies it runs in ring 0 on the BSP with all APs
    parked, reads the SLB header (16-bit length and entry point), enables
    the DEV over the 64 KB SLB region, disables interrupts and debug
    access, has the TPM reset the dynamic PCRs and measure the SLB into
    PCR 17, and finally enters flat 32-bit protected mode at the SLB entry
    point. Nothing that ran before SKINIT can influence the launched code,
    which is precisely the property Flicker builds on. *)

exception Skinit_error of string

type launch = {
  slb_base : int;  (** physical address passed to SKINIT *)
  slb_length : int;  (** measured length from the header *)
  entry_point : int;  (** absolute physical address of the first instruction *)
  protected_base : int;
  protected_len : int;  (** always the full 64 KB DEV window *)
  measurement : string;
      (** SHA-1 of the measured SLB bytes: the digest the TPM extended
          into PCR 17 *)
}

val slb_window : int
(** 65536: the architectural SLB protection window. *)

val execute : Machine.t -> slb_base:int -> launch
(** Perform the launch sequence on [slb_base].
    @raise Skinit_error when an architectural precondition fails: caller
    not in ring 0, caller not the BSP, APs not parked, missing TPM, bad
    header, or the SLB exceeding its window. *)

val teardown_dev : Machine.t -> launch -> unit
(** Drop the DEV protection after the session's cleanup phase (done by the
    SLB Core just before resuming the OS). *)
