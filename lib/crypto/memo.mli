(** Bounded, per-domain, content-keyed memo tables.

    The simulator re-identifies the same bytes over and over: every
    session of a PAL patches, measures and dispatches the same 64 KB
    window. A memo here maps a byte string (plus an optional integer
    [tag]) to a value derived from it. Lookups fingerprint the key with
    {!sampled_hash} — the length and a fixed stride of words, so its cost
    does not grow with the key — and confirm every candidate with a full
    [String.equal]. Equal content therefore always hits, content that
    differs in any byte (sampled or not) always misses, and a memo is
    identity-preserving: it can only return what [compute] would.

    Each memo holds at most {!capacity} entries per domain, evicting the
    oldest insertion first. Tables live in [Domain.DLS]: concurrent
    domains never share or tear one, and because the key is the content
    a per-domain split only changes hit counts, never a result. *)

val sampled_hash : string -> int
(** A non-negative fingerprint of the length and 64 words at a fixed
    stride (the whole string when it is shorter than 512 bytes). Equal
    strings hash equally; strings differing only at unsampled offsets
    may collide, so callers must compare content. *)

type 'a t

val capacity : int
(** 64: entries per memo per domain. The simulator's working sets are a
    handful of PALs x flavors, so at 64 KB windows a full memo retains
    ~4 MB. *)

val create : unit -> 'a t
(** An empty memo, registered for {!clear_all} and {!stats_all}. *)

val find_or_add : 'a t -> ?tag:int -> string -> (unit -> 'a) -> 'a
(** [find_or_add t ~tag key compute] is the value memoized for
    ([key], [tag]) (default tag 0) on the calling domain, or [compute ()]
    — recorded, evicting the oldest entry at capacity. [compute] must be
    a pure function of ([key], [tag]); the memo keeps [key] itself, so
    treat it as immutable. *)

val length : 'a t -> int
(** Entries held on the calling domain (never above the capacity). *)

val stats : 'a t -> int * int
(** (hits, misses) on the calling domain since its last {!clear}. *)

val clear : 'a t -> unit
(** Drop the calling domain's entries and zero its {!stats}. *)

val stats_all : unit -> int * int
(** {!stats} summed over every memo ever created. *)

val clear_all : unit -> unit
(** {!clear} every memo ever created, on the calling domain. *)
