open Flicker_crypto

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
  loc : int;
  size_bytes : int;
  description : string;
}

(* Figure 6, with KB sizes converted to bytes. *)
let catalog =
  [
    {
      kind = Os_protection;
      module_name = "OS Protection";
      loc = 5;
      size_bytes = 47;
      description = "Memory protection, ring 3 PAL execution";
    };
    {
      kind = Tpm_driver;
      module_name = "TPM Driver";
      loc = 216;
      size_bytes = 845;
      description = "Communication with the TPM";
    };
    {
      kind = Tpm_utilities;
      module_name = "TPM Utilities";
      loc = 889;
      size_bytes = 9653;
      description = "TPM operations: Seal, Unseal, GetRand, PCR Extend";
    };
    {
      kind = Crypto;
      module_name = "Crypto";
      loc = 2262;
      size_bytes = 32133;
      description = "General-purpose crypto: RSA, SHA-1, SHA-512, ...";
    };
    {
      kind = Memory_management;
      module_name = "Memory Management";
      loc = 657;
      size_bytes = 12811;
      description = "Implementation of malloc/free/realloc";
    };
    {
      kind = Secure_channel;
      module_name = "Secure Channel";
      loc = 292;
      size_bytes = 2069;
      description = "Generates a keypair, seals private key, returns public key";
    };
  ]

let info kind = List.find (fun m -> m.kind = kind) catalog

(* Deterministic pseudo-binary: a readable header followed by a SHA-256
   stream keyed on the name, truncated to the declared size. *)
let synth_code ~name ~size =
  let header = Printf.sprintf "\x7fPAL%s\x00" name in
  let buf = Buffer.create size in
  Buffer.add_string buf header;
  let counter = ref 0 in
  while Buffer.length buf < size do
    Buffer.add_string buf (Sha256.digest (Printf.sprintf "code:%s:%d" name !counter));
    incr counter
  done;
  String.sub (Buffer.contents buf) 0 size

(* Synthesized once, eagerly (a shared [lazy] is unsafe to force from
   two domains): every session links its PAL, and re-synthesizing the
   modules cost a CA-sized PAL ~44 KB of SHA-256 per session. *)
let module_codes =
  List.map
    (fun m -> (m.kind, synth_code ~name:("module:" ^ m.module_name) ~size:m.size_bytes))
    catalog

let module_code kind = List.assoc kind module_codes

type t = {
  name : string;
  app_code : string;
  modules : module_kind list;
  behavior : Pal_env.t -> unit;
}

let module_order = function
  | Os_protection -> 0
  | Tpm_driver -> 1
  | Tpm_utilities -> 2
  | Crypto -> 3
  | Memory_management -> 4
  | Secure_channel -> 5

let linked_code t = String.concat "" (List.map module_code t.modules @ [ t.app_code ])

let code_hash t = Sha1.digest (linked_code t)

(* Keyed by the linked code itself: a lookup fingerprints the code
   ([Memo.sampled_hash], constant cost) and confirms by content, so
   dispatch never hashes the PAL. Written only by [define]. *)
module Code_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Memo.sampled_hash
end)

let registry : t Code_tbl.t = Code_tbl.create 16

let define ~name ?(app_code_size = 512) ?(modules = []) behavior =
  let modules =
    List.sort_uniq (fun a b -> Int.compare (module_order a) (module_order b)) modules
  in
  let app_code = synth_code ~name:("pal:" ^ name) ~size:app_code_size in
  let t = { name; app_code; modules; behavior } in
  let code = linked_code t in
  if String.length code > Layout.max_pal_code ~slb_core_size:Slb_core.core_size then
    invalid_arg
      (Printf.sprintf "Pal.define %s: linked code (%d bytes) exceeds the PAL region"
         name (String.length code));
  Code_tbl.replace registry code t;
  t

let find_by_code code = Code_tbl.find_opt registry code
let wants t kind = List.mem kind t.modules

let total_loc t =
  Slb_core.loc + List.fold_left (fun acc k -> acc + (info k).loc) 0 t.modules
