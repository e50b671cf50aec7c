(** A multi-machine Flicker fleet serving PAL requests from many clients.

    The paper's applications are services whose every request monopolizes
    a whole machine for hundreds of milliseconds (a CA signature costs
    ~900 ms, dominated by TPM operations — Section 7). One platform
    therefore saturates at a handful of requests per second, and scale
    has to come from the layer the paper left implicit: a fleet.

    This module is that layer, as a discrete-event simulation on virtual
    time: [N] independent {!Flicker_core.Platform} instances — each with
    its own clock, TPM, and untrusted OS — coordinated by one event loop
    that interleaves client arrivals, network transit, queueing, batched
    session execution, and completions. Each platform's clock is advanced
    to the global virtual time before it runs work, so the [N] timelines
    stay coherent while still only ever moving forward.

    Requests are admitted into bounded per-platform queues (full queue:
    reject — admission control), routed by a pluggable {!Dispatch.policy}
    (with sealed-state homes always honored), optionally carry deadlines
    (enforced at dispatch: an expired request never wastes a session),
    and are served in batches of up to [batch_size] so the per-session
    SKINIT + TPM overhead is amortized. Everything is exported through a
    {!Flicker_obs.Metrics} registry and an exact {!summary}.

    {2 Sharding and domains}

    The platforms are split into [shards] contiguous windows, each owned
    by a {!Shard} with its own event queue, metrics registry, and
    round-robin cursor. There is one run loop for every shard count.
    Shards synchronize only at virtual-time {e epoch barriers}, 250 ms
    of virtual time apart: each drains its own timeline up to the epoch
    boundary, then the coordinator replays deferred crash hooks in
    (time, platform) order and delivers cross-shard forwarded requests
    in (emission time, id) order to the next shard around the ring,
    landing exactly at the boundary.

    A one-shard fleet (the default) is simply a fleet with one shard:
    it has nowhere to forward to and runs its crash hooks inline, so
    both barrier merges are empty and its windows pop the same events in
    the same order as one unbounded drain.

    The shard structure — and therefore the entire simulation — is a
    pure function of the config. [domains] only chooses how many OCaml 5
    [Domain]s execute the fixed set of shards, so the same seed yields
    byte-identical results (dispositions, metrics, summaries) at any
    domain count. *)

type config = {
  platforms : int;
  queue_depth : int;  (** per-platform admission bound *)
  batch_size : int;  (** max requests per dispatched batch *)
  policy : Dispatch.policy;
  seed : string;
  timing : Flicker_hw.Timing.t;
  faults : Flicker_fault.Injector.config option;
      (** when present, each platform gets a deterministic fault injector
          seeded from [seed]/fault-<i>: TPM errors and latency spikes,
          mid-session crashes, DMA storms, clock skew. Injectors are
          installed after the workload's [prepare], so provisioning work
          is never faulted. *)
  retry_budget : int;
      (** max re-dispatches per request (crash victims, breaker sheds,
          failed executions). 0 — the default — fails them on first
          bounce, the pre-fault behavior. *)
  breaker_failures : int;
      (** consecutive all-failed batches that open a platform's circuit
          breaker; 0 disables the breaker *)
  breaker_cooldown_ms : float;
      (** how long an open breaker sheds load before the member is
          eligible again *)
  shards : int;
      (** how many contiguous platform windows the fleet is split into
          (within [1, platforms]). Determines the simulation: routing at
          submit, epoch barriers, cross-shard forwarding. 1 — the
          default — keeps every platform on one timeline. *)
  domains : int;
      (** how many OCaml 5 domains execute the shards (clamped to
          [shards] at run time). Pure execution placement: any value
          produces byte-identical simulated results. *)
}
(** Two sizes are fixed rather than configured: every platform's TPM
    key hierarchy and the fleet privacy CA use 512-bit RSA keys (the
    simulated latencies follow the calibrated model at any size), and
    epoch barriers are 250 ms of virtual time apart. *)

val default_config : config
(** 2 platforms, queue depth 32, batch size 4, least-loaded routing,
    seed ["fleet"], the paper's Broadcom timing profile; no fault
    injection, no retries, breaker disabled; 1 shard on 1 domain. *)

type t

val create : ?config:config -> Workload.t -> t
(** Build the platforms (deterministically from [config.seed], all AIKs
    certified by one fleet privacy CA) and run the workload's [prepare]
    on each. @raise Invalid_argument on a non-positive [platforms],
    [queue_depth], or [batch_size]. *)

val config : t -> config
val workload_name : t -> string
val platform : t -> int -> Flicker_core.Platform.t
val verifier_key : t -> Flicker_crypto.Rsa.public
(** Public key of the fleet's privacy CA, for verifying attestations
    produced on any platform. *)

val now_ms : t -> float
(** Global virtual time: the latest of the shards' clocks. Each starts
    at the fleet's creation time and moves to every event its shard
    processes. *)

val past_deadline : deadline_ms:float option -> at_ms:float -> bool
(** The fleet's one deadline-boundary convention, used for both queued
    expiry and completion misses: [true] iff [at_ms] is strictly after
    the deadline — an instant exactly at the deadline is on time. *)

val crash_platform : t -> int -> unit
(** Manually crash platform [i] right now (deterministic counterpart of
    the injector's crash draw): volatile state is lost
    ({!Flicker_core.Platform.power_cycle}), its queued requests are
    re-dispatched to survivors within their [retry_budget] — except
    requests homed to [i], which fail explicitly since their sealed state
    cannot be served elsewhere — and the member rejoins after the
    injector's [reboot_ms] (500 ms without an injector). No-op when
    already down. @raise Invalid_argument on an index outside the
    fleet. *)

val platform_up : t -> int -> bool
(** Whether member [i] is currently available (not crashed/rebooting,
    breaker closed). *)

val submit :
  t ->
  ?client:string ->
  ?home:int ->
  ?tier:Request.tier ->
  ?deadline_ms:float ->
  ?sent_ms:float ->
  string ->
  int
(** Queue a client send of [payload]; returns the request id. The request
    arrives at the dispatcher one network transit after [sent_ms]
    (default: now; a [sent_ms] in the virtual past is clamped to now).
    [deadline_ms] is relative to [sent_ms]. [home] pins the request to
    one platform (sealed-state affinity, all policies honor it);
    [client] feeds the {!Dispatch.Sealed_affinity} hash. [tier]
    (default {!Request.Batch}, the pre-tier behavior) picks the
    admission class: on each platform, queued [Interactive] requests are
    dispatched ahead of any queued [Batch] work.
    @raise Invalid_argument if [home] is outside the fleet. *)

val submit_open_loop :
  t ->
  clients:int ->
  per_client:int ->
  mean_gap_ms:float ->
  ?tier:Request.tier ->
  ?deadline_ms:float ->
  payload:(client:int -> seq:int -> string) ->
  unit ->
  unit
(** Open-loop load: [clients] independent clients each send [per_client]
    requests with exponentially distributed gaps of mean [mean_gap_ms],
    drawn from the fleet's seeded generator (fully deterministic).
    Client [c]'s identity is ["client-c"]. *)

val set_interceptor : t -> (Request.t -> string option) -> unit
(** Install a front end consulted once per admission (first and
    re-dispatch alike), before routing. Returning [Some output]
    completes the request immediately — the client still pays the
    return network transit, the completion records [platform = -1] and
    [batch = 0], and the [fleet.cache_served] counter is bumped —
    without touching any platform queue or session. Returning [None]
    falls through to normal dispatch. The serving tier's result cache
    ({!Flicker_serve}) is the intended interceptor. In a fleet running
    on [domains > 1], the closure is called concurrently from several
    domains and must be safe for that — the serving tier keeps its
    fleets on one shard. *)

val set_admission_gate : t -> (Request.t -> string option) -> unit
(** Install a static-analysis admission gate consulted once per
    {!submit}, before the request enters the network. Returning
    [Some reason] refuses the request outright: it is finalized as
    {!Request.Rejected} (platform [-1]), the [fleet.analysis_rejected]
    counter is bumped, and no arrival event is scheduled. Returning
    [None] admits it normally. {!Flicker_analysis}'s [Admission.install]
    wires a PAL's analysis verdict into this hook. *)

val add_crash_hook : t -> (int -> unit) -> unit
(** Register an observer called with the platform index on every crash
    (injected, drawn, or manual), after the platform's
    {!Flicker_core.Platform.power_cycle} but before its queued victims
    re-enter admission — so a result cache can invalidate the crashed
    platform's entries ahead of any re-dispatch. Hooks run in
    registration order. In a multi-shard fleet, hooks are deferred to
    the next epoch barrier and replayed from one domain in (crash time,
    platform) order — after the victims' re-dispatch within their own
    shard, but before any cross-shard delivery. *)

val run : ?until_ms:float -> t -> unit
(** Drive the epoch loop until every queue is drained (or the next event
    lies past [until_ms]). Re-entrant: more work can be submitted and run
    again, virtual time keeps accumulating. On a one-shard fleet a run
    sliced into [~until_ms] steps ends exactly where one uninterrupted
    run does (with more shards the slices move the epoch barriers). The
    shards are drained on up to [config.domains] domains (spun up per
    call, joined before returning); with one domain everything runs on
    the calling domain. *)

val dispositions : t -> (Request.t * Request.disposition) list
(** Every finalized request, in id order. Requests still queued or in
    flight (after a bounded [run ~until_ms]) are absent. *)

val disposition_of : t -> int -> Request.disposition option
val metrics : t -> Flicker_obs.Metrics.t
(** Snapshot of the fleet-level series merged with every shard's
    registry, in shard order: [fleet.admitted], [fleet.rejected],
    [fleet.expired], [fleet.completed], [fleet.failed],
    [fleet.deadline_misses], [fleet.batches], [fleet.forwarded] counters;
    [fleet.latency_ms], [fleet.service_ms], [fleet.batch_fill],
    [fleet.queue_depth] histograms. The merge is order-independent
    ({!Flicker_obs.Metrics.merge_into}), so the snapshot does not depend
    on the domain count. Per-machine series (TPM commands, sessions,
    busy retries) live on each platform's own registry. *)

type tier_summary = {
  tier : Request.tier;
  t_submitted : int;
  t_completed : int;
  t_rejected : int;
  t_expired : int;
  t_failed : int;
  t_deadline_misses : int;
  t_p50_ms : float;
  t_p95_ms : float;
}
(** Per-admission-class slice of the summary. Only finalized requests
    are counted (like the global summary), and percentiles are over that
    tier's completions alone. *)

type summary = {
  submitted : int;
  completed : int;
  rejected : int;
  expired : int;
  failed : int;
  deadline_misses : int;  (** completed, but late *)
  makespan_ms : float;  (** first send to last completion *)
  throughput_rps : float;  (** completed per wall second of makespan *)
  latency_mean_ms : float;
  latency_p50_ms : float;
  latency_p95_ms : float;
  latency_max_ms : float;
  sessions : int;  (** Flicker sessions actually run, fleet-wide *)
  busy_retries : int;
  per_platform : int array;  (** requests completed by each platform *)
  crashes : int;  (** injected + manual platform crashes *)
  redispatched : int;  (** requests re-admitted after a bounce *)
  forwarded : int;
      (** cross-shard hops: requests a shard could not place locally and
          handed to the next shard at an epoch barrier (always 0 with
          one shard) *)
  breaker_opens : int;
  tpm_faults : int;  (** injected TPM transient errors + latency spikes *)
  dma_storms : int;  (** injected DMA storm bursts *)
  cache_served : int;
      (** completions answered by the interceptor (result cache) without
          a platform session *)
  analysis_rejected : int;
      (** submissions refused by the static-analysis admission gate
          (counted inside [rejected] as well) *)
  by_tier : tier_summary list;  (** in {!Request.all_tiers} order *)
}

val percentile : float array -> float -> float
(** Nearest-rank percentile over an already-sorted array — the estimator
    [summary] uses for p50/p95. Total: 0.0 on an empty array (a run
    where every request was rejected or crashed has no latencies), the
    sole element for every [p] on a singleton, and the rank clamped into
    the array for degenerate [p]. Exposed for the regression tests. *)

val summary : t -> summary
(** Exact (not bucketed) percentiles over the completed requests'
    client-perceived latencies. *)

val pp_summary : Format.formatter -> summary -> unit
