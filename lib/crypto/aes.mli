(** AES-128/192/256 (FIPS 197) with CBC and CTR modes.

    Part of the paper's PAL crypto module: PALs use a fast symmetric cipher
    on the main CPU and keep only the symmetric key in TPM sealed storage.
    The TPM simulator's Seal/Unseal use it too.

    The cipher is table-driven (four 256-entry word tables per direction),
    so its host timing is not constant-time: table indices depend on the
    key and data. That is no change from the byte-oriented code it
    replaced, which indexed the S-box by state and branched in [xtime].
    This module's host speed never shows in a simulated result: the
    simulated cost of sealing and of PAL symmetric crypto comes from
    {!Flicker_hw.Timing} ([seal_ms], [unseal_ms], [aes_mb_per_ms]). *)

type key

val expand_key : string -> key
(** @raise Invalid_argument unless the key is 16, 24 or 32 bytes. *)

val encrypt_block : key -> string -> string
(** One 16-byte block. @raise Invalid_argument on wrong block size. *)

val decrypt_block : key -> string -> string

val encrypt_cbc : key -> iv:string -> string -> string
(** CBC with PKCS#7 padding; always appends 1–16 bytes of padding.
    @raise Invalid_argument unless [iv] is 16 bytes. *)

val decrypt_cbc : key -> iv:string -> string -> string
(** @raise Invalid_argument on malformed ciphertext or bad padding. *)

val ctr : key -> nonce:string -> string -> string
(** Counter mode keystream XOR; encryption and decryption are the same
    operation. [nonce] must be 16 bytes (used as the initial counter
    block). *)

val blocks : unit -> int
(** 16-byte blocks through the cipher since process start (every mode;
    a CBC call counts its padded length). Host-side instrumentation, like
    {!Sha1.bytes_hashed}: deterministic for a given run, and never
    touches a simulated metric. *)
