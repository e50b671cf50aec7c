(** The simulated platform: memory, DEV, CPU cores, clock, and the hooks
    through which SKINIT drives the TPM.

    The TPM itself lives in [flicker_tpm] (which depends on this library
    for the clock and timing model); the platform assembly in
    [flicker_core.Platform] wires a TPM instance into [tpm_hooks].

    Observability: every machine carries a {!Flicker_obs.Tracer} (span
    and instant events over the simulated clock, in a bounded ring
    buffer) and a {!Flicker_obs.Metrics} registry (counters and latency
    histograms) that the TPM, session, and OS layers feed. *)

type tpm_hooks = {
  dynamic_pcr_reset : unit -> unit;
      (** Reset PCRs 17–23 to zero, as the chipset does on SKINIT. *)
  measure_into_pcr17 : string -> string;
      (** Hash the transmitted SLB bytes, extend PCR 17 with the digest,
          and return it: the launch carries the measurement, so nothing
          above the hardware re-hashes the same bytes. *)
}

type event = { at : float; detail : string }

type t = {
  memory : Memory.t;
  dev : Dev.t;
  cpus : Cpu.t;
  clock : Clock.t;
  timing : Timing.t;
  tracer : Flicker_obs.Tracer.t;  (** bounded audit trail + spans *)
  metrics : Flicker_obs.Metrics.t;
  mutable tpm_hooks : tpm_hooks option;
  mutable injector : Flicker_fault.Injector.t option;
      (** fault injector consulted by the charge path, the TPM command
          layer, and DMA storms; [None] (the default) injects nothing *)
}

val create : ?memory_size:int -> ?cores:int -> ?trace_capacity:int -> Timing.t -> t
(** Defaults: 16 MB of memory, 2 cores (the dual-core dc5750), and a
    4096-event trace ring buffer. *)

val set_tpm_hooks : t -> tpm_hooks -> unit

val set_injector : t -> Flicker_fault.Injector.t -> unit
val injector : t -> Flicker_fault.Injector.t option

val fault_cat : string
(** Tracer category ("fault") for injected-fault instants. *)

val fault_event : t -> ?args:(string * Flicker_obs.Tracer.arg) list -> string -> unit
(** Record an instant under {!fault_cat}: hook sites emit one per
    injected fault so a chaos run's trace shows exactly what fired. *)

val log_event : t -> string -> unit
(** Record an instant event on the tracer (and the debug log). *)

val protocol_cat : string
(** Tracer category ("protocol") for the session-lifecycle instants the
    temporal verifier consumes. *)

val protocol_event : t -> ?args:(string * Flicker_obs.Tracer.arg) list -> string -> unit
(** Record an instant under {!protocol_cat}. Hardware and OS layers emit
    these at protocol-relevant state changes (SKINIT begin/end, DEV
    range changes, suspend/resume, PCR extends, DMA attempts) so every
    execution's trace can be checked against the protocol automata. *)

val events_between : t -> since:float -> event list
(** Instant events at or after [since] still retained in the ring
    buffer, oldest first. The buffer is bounded: a long-running platform
    keeps only the most recent [trace_capacity] events. *)

val event_count : t -> int
(** Events currently retained (never exceeds the trace capacity). *)

val events_dropped : t -> int
(** Events evicted from the ring buffer so far. *)

val charge : t -> float -> unit
(** Advance the simulated clock by [ms], scaled by the injector's clock
    skew factor when one is installed. *)

val power_cycle : t -> unit
(** Crash-and-reboot: zero all memory, clear the DEV, return every core
    to ring-0 long-mode [Running]. Volatile state is gone; the TPM's
    non-volatile state survives but its PCRs must be rebooted by the
    caller ({!Flicker_tpm.Tpm.reboot} via [Platform.power_cycle]). *)

val charge_sha1 : t -> bytes:int -> unit
(** Charge CPU time for hashing [bytes] on the main processor. *)
