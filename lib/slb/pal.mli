(** PAL definitions: the Figure 6 module catalog, deterministic "binary"
    code synthesis, and the registry that maps measured code back to
    behaviour.

    A real PAL is a binary blob linked against the SLB Core; the kernel
    module sees only bytes, and the hardware measures exactly those bytes.
    The simulator preserves that: a PAL's [code] is a deterministic byte
    string (synthesized from its name and declared size, mirroring the
    sizes in Figure 6), and execution after SKINIT looks the measured
    bytes up in a registry. Corrupt the bytes and you get a different
    measurement and no (or different) behaviour — exactly the hardware
    contract. *)

type module_kind =
  | Os_protection
  | Tpm_driver
  | Tpm_utilities
  | Crypto
  | Memory_management
  | Secure_channel

type module_info = {
  kind : module_kind;
  module_name : string;
  loc : int;  (** lines of code added to the TCB (Figure 6) *)
  size_bytes : int;  (** contribution to the SLB binary (Figure 6) *)
  description : string;
}

val catalog : module_info list
(** All optional modules, with the paper's LOC and size figures. *)

val info : module_kind -> module_info
val module_code : module_kind -> string
(** The module's deterministic code bytes ([size_bytes] long). *)

type t = {
  name : string;
  app_code : string;  (** application-specific code bytes *)
  modules : module_kind list;  (** sorted, duplicate-free *)
  behavior : Pal_env.t -> unit;
}

val define :
  name:string ->
  ?app_code_size:int ->
  ?modules:module_kind list ->
  (Pal_env.t -> unit) ->
  t
(** Create and register a PAL. The app code bytes are synthesized from
    [name] and [app_code_size] (default 512 bytes — a small C function).
    Registration keys the behaviour by the linked code bytes themselves
    (compared in full) so the session dispatcher can only run what was
    measured.
    @raise Invalid_argument if the linked code exceeds the PAL region. *)

val linked_code : t -> string
(** Module code (in catalog order) followed by app code: the PAL region
    of the SLB image. *)

val code_hash : t -> string

val find_by_code : string -> t option
(** Registry lookup by the exact linked-code bytes. *)

val wants : t -> module_kind -> bool
val total_loc : t -> int
(** TCB lines of code: SLB Core plus every linked module (app logic not
    included, as in the paper's per-module accounting). *)
