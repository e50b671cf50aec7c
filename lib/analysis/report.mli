(** Finding exporters: the deterministic text report (the golden-test
    format, including the proved worst-case stack line) and a
    SARIF-style JSON document with one run per PAL whose property bag
    carries the Figure 6 TCB accounting plus the abstract-interpretation
    stack bound ([worst_stack_bytes], [-1] when unbounded) and
    constant-time finding count ([ct_findings]). *)

val to_text :
  key:string -> Rules.target -> (Rules.analysis, string) result -> string
(** The report of one {!Rules.run} outcome. The slice and stack lines
    read the run's own extraction and {!Absint} result; a failed run
    prints its [driver] finding (see {!Rules.findings_of}). *)

val sarif :
  (string * Rules.target * (Rules.analysis, string) result) list ->
  Flicker_obs.Json.t

val slb_limit : unit -> int
(** Bytes available to linked PAL code inside the 64 KB SLB region. *)
