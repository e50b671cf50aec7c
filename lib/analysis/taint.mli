(** Secret-flow (taint) analysis over the call graph.

    Flags every path on which a secret source's output can reach a sink
    with no sanitizer in between — the static form of the paper's rule
    that secrets must be sealed or encrypted before they leave the SLB.
    A body is read as its ordered call sequence
    ({!Flicker_extract.Extract.calls_of_stmts}), so "sanitize, then
    output" and "output, then sanitize" are distinguished.

    This pass stays separate from {!Absint}'s data-flow secrecy lattice
    because the two answer different questions. This one asks an
    ordering question about the session: has a sanitizer run between
    the last secret source and each sink? Absint asks a dependence
    question about values: could this branch, bound or index depend on
    a secret? A seal does not make its argument public, so they
    disagree on [x = TPM_Unseal(); TPM_Seal(x); pal_output_write(x)]:
    clean here by call order, while [x] is still secret by data flow.
    Each answer is the right one for the rule that uses it. *)

type leak = {
  in_function : string;  (** where the tainted sink call happens *)
  sink : string;  (** the sink (or leaking callee) reached *)
  source : string;  (** the source whose secret reaches it *)
}

val analyze : table:Effects.table -> Callgraph.t -> entry:string -> leak list
(** All source->sink-without-sanitizer flows reachable from [entry],
    deduplicated and deterministically ordered. *)

val has_secret_source : table:Effects.table -> Callgraph.t -> entry:string -> bool
(** Does the slice rooted at [entry] produce any secret at all? *)

val ends_with_zeroize : table:Effects.table -> Callgraph.t -> entry:string -> bool
(** True when [entry]'s last call is (transitively) a zeroizer — the
    teardown discipline of Section 5.1. *)
