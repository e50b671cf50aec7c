(* Table-driven AES (FIPS 197) in the layout of the reference
   rijndael-alg-fst code: each round is four column words, each built from
   four 256-entry tables that fold SubBytes, ShiftRows and MixColumns into
   one lookup per byte. Decryption runs the equivalent inverse cipher, so
   its round keys are pre-passed through InvMixColumns at key expansion.
   Host speed matters even though the simulator only ciphers kilobytes:
   every CA batch unseals and reseals its state, and a byte-oriented
   cipher here was 43% of a CA fleet's host time. *)

let sbox =
  [|
    0x63; 0x7c; 0x77; 0x7b; 0xf2; 0x6b; 0x6f; 0xc5; 0x30; 0x01; 0x67; 0x2b;
    0xfe; 0xd7; 0xab; 0x76; 0xca; 0x82; 0xc9; 0x7d; 0xfa; 0x59; 0x47; 0xf0;
    0xad; 0xd4; 0xa2; 0xaf; 0x9c; 0xa4; 0x72; 0xc0; 0xb7; 0xfd; 0x93; 0x26;
    0x36; 0x3f; 0xf7; 0xcc; 0x34; 0xa5; 0xe5; 0xf1; 0x71; 0xd8; 0x31; 0x15;
    0x04; 0xc7; 0x23; 0xc3; 0x18; 0x96; 0x05; 0x9a; 0x07; 0x12; 0x80; 0xe2;
    0xeb; 0x27; 0xb2; 0x75; 0x09; 0x83; 0x2c; 0x1a; 0x1b; 0x6e; 0x5a; 0xa0;
    0x52; 0x3b; 0xd6; 0xb3; 0x29; 0xe3; 0x2f; 0x84; 0x53; 0xd1; 0x00; 0xed;
    0x20; 0xfc; 0xb1; 0x5b; 0x6a; 0xcb; 0xbe; 0x39; 0x4a; 0x4c; 0x58; 0xcf;
    0xd0; 0xef; 0xaa; 0xfb; 0x43; 0x4d; 0x33; 0x85; 0x45; 0xf9; 0x02; 0x7f;
    0x50; 0x3c; 0x9f; 0xa8; 0x51; 0xa3; 0x40; 0x8f; 0x92; 0x9d; 0x38; 0xf5;
    0xbc; 0xb6; 0xda; 0x21; 0x10; 0xff; 0xf3; 0xd2; 0xcd; 0x0c; 0x13; 0xec;
    0x5f; 0x97; 0x44; 0x17; 0xc4; 0xa7; 0x7e; 0x3d; 0x64; 0x5d; 0x19; 0x73;
    0x60; 0x81; 0x4f; 0xdc; 0x22; 0x2a; 0x90; 0x88; 0x46; 0xee; 0xb8; 0x14;
    0xde; 0x5e; 0x0b; 0xdb; 0xe0; 0x32; 0x3a; 0x0a; 0x49; 0x06; 0x24; 0x5c;
    0xc2; 0xd3; 0xac; 0x62; 0x91; 0x95; 0xe4; 0x79; 0xe7; 0xc8; 0x37; 0x6d;
    0x8d; 0xd5; 0x4e; 0xa9; 0x6c; 0x56; 0xf4; 0xea; 0x65; 0x7a; 0xae; 0x08;
    0xba; 0x78; 0x25; 0x2e; 0x1c; 0xa6; 0xb4; 0xc6; 0xe8; 0xdd; 0x74; 0x1f;
    0x4b; 0xbd; 0x8b; 0x8a; 0x70; 0x3e; 0xb5; 0x66; 0x48; 0x03; 0xf6; 0x0e;
    0x61; 0x35; 0x57; 0xb9; 0x86; 0xc1; 0x1d; 0x9e; 0xe1; 0xf8; 0x98; 0x11;
    0x69; 0xd9; 0x8e; 0x94; 0x9b; 0x1e; 0x87; 0xe9; 0xce; 0x55; 0x28; 0xdf;
    0x8c; 0xa1; 0x89; 0x0d; 0xbf; 0xe6; 0x42; 0x68; 0x41; 0x99; 0x2d; 0x0f;
    0xb0; 0x54; 0xbb; 0x16;
  |]

let inv_sbox =
  let t = Array.make 256 0 in
  Array.iteri (fun i v -> t.(v) <- i) sbox;
  t

let mask32 = 0xFFFFFFFF
let ror8 w = (w lsr 8) lor ((w land 0xff) lsl 24)

let xtime b =
  let v = b lsl 1 in
  if v land 0x100 <> 0 then v lxor 0x11b else v

(* One direction of the cipher. [t0.(x)] is the column that a byte [x]
   in row 0 contributes after SubBytes and (Inv)MixColumns, row 0 in the
   top byte; [t1]-[t3] are its byte rotations, for rows 1-3. [sb] is the
   S-box the last round applies alone. The equivalent inverse cipher has
   the encryption round's shape once the state's columns 1 and 3 trade
   places, so each direction names where its columns 1 and 3 sit in the
   block ([o1], [o3]); the decryption schedule stores its round-key words
   in that order too. Built once at module init and never written again,
   so shard drains on several domains share them safely. *)
type direction = {
  t0 : int array;
  t1 : int array;
  t2 : int array;
  t3 : int array;
  sb : int array;
  o1 : int;
  o3 : int;
}

let direction sb column ~o1 ~o3 =
  let t0 = Array.map column sb in
  let t1 = Array.map ror8 t0 in
  let t2 = Array.map ror8 t1 in
  { t0; t1; t2; t3 = Array.map ror8 t2; sb; o1; o3 }

(* MixColumns of (s, 0, 0, 0): (2s, s, s, 3s) *)
let forward =
  direction sbox ~o1:4 ~o3:12 (fun s ->
      let s2 = xtime s in
      (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor (s2 lxor s))

(* InvMixColumns of (s, 0, 0, 0): (14s, 9s, 13s, 11s) *)
let inverse =
  direction inv_sbox ~o1:12 ~o3:4 (fun s ->
      let s2 = xtime s in
      let s4 = xtime s2 in
      let s9 = xtime s4 lxor s in
      ((s9 lxor s4 lxor s2 lxor s) lsl 24)
      lor (s9 lsl 16)
      lor ((s9 lxor s4) lsl 8)
      lor (s9 lxor s2))

type key = {
  rounds : int;
  ek : int array; (* 4*(rounds+1) encryption round-key words *)
  dk : int array; (* decryption order; see [expand_key] *)
}

(* Deterministic host-side work counter, like [Sha1.bytes_hashed]: 16-byte
   blocks through the cipher since process start. Atomic because shard
   drains on several domains seal and unseal at once. *)
let blocks_total = Atomic.make 0
let blocks () = Atomic.get blocks_total
let count n = ignore (Atomic.fetch_and_add blocks_total n)

let sub_word w =
  (sbox.((w lsr 24) land 0xff) lsl 24)
  lor (sbox.((w lsr 16) land 0xff) lsl 16)
  lor (sbox.((w lsr 8) land 0xff) lsl 8)
  lor sbox.(w land 0xff)

let rot_word w = ((w lsl 8) lor (w lsr 24)) land mask32

let rcon =
  [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36; 0x6c; 0xd8; 0xab; 0x4d |]

(* InvMixColumns of one word: the inverse tables undo the S-box first. *)
let inv_mix w =
  inverse.t0.(sbox.(w lsr 24))
  lxor inverse.t1.(sbox.((w lsr 16) land 0xff))
  lxor inverse.t2.(sbox.((w lsr 8) land 0xff))
  lxor inverse.t3.(sbox.(w land 0xff))

let expand_key key_str =
  let nk =
    match String.length key_str with
    | 16 -> 4
    | 24 -> 6
    | 32 -> 8
    | _ -> invalid_arg "Aes.expand_key: key must be 16, 24 or 32 bytes"
  in
  let rounds = nk + 6 in
  let nwords = 4 * (rounds + 1) in
  let w = Array.make nwords 0 in
  for i = 0 to nk - 1 do
    w.(i) <- Util.int_of_be32 key_str (4 * i)
  done;
  for i = nk to nwords - 1 do
    let temp = ref w.(i - 1) in
    if i mod nk = 0 then temp := sub_word (rot_word !temp) lxor (rcon.((i / nk) - 1) lsl 24)
    else if nk > 6 && i mod nk = 4 then temp := sub_word !temp;
    w.(i) <- w.(i - nk) lxor !temp
  done;
  (* The encryption rounds backwards, inner rounds through InvMixColumns,
     each round's words in [inverse]'s column order 0, 3, 2, 1. *)
  let dk =
    Array.init nwords (fun i ->
        let round = i / 4 and column = (4 - (i mod 4)) mod 4 in
        let e = w.((4 * (rounds - round)) + column) in
        if round = 0 || round = rounds then e else inv_mix e)
  in
  { rounds; ek = w; dk }

let get32 b off = Int32.to_int (Bytes.get_int32_be b off) land mask32
let set32 b off w = Bytes.set_int32_be b off (Int32.of_int w)

(* Table indices below are all masked to 0..255 (words stay 32-bit), so
   the lookups skip the bounds check. *)
external ( .%() ) : int array -> int -> int = "%array_unsafe_get"

(* The last round has no (Inv)MixColumns: S-box bytes, gathered from the
   columns in (Inv)ShiftRows order. *)
let sub_shift sb a b c d k =
  (sb.%(a lsr 24) lsl 24)
  lor (sb.%((b lsr 16) land 0xff) lsl 16)
  lor (sb.%((c lsr 8) land 0xff) lsl 8)
  lor sb.%(d land 0xff)
  lxor k

(* The cipher, in direction [dir] under round keys [rk], over the 16 bytes
   of [b] at [off], in place. *)
let cipher dir rk rounds b off =
  let o1 = off + dir.o1 and o2 = off + 8 and o3 = off + dir.o3 in
  let t0 = dir.t0 and t1 = dir.t1 and t2 = dir.t2 and t3 = dir.t3 in
  let s0 = ref (get32 b off lxor rk.(0))
  and s1 = ref (get32 b o1 lxor rk.(1))
  and s2 = ref (get32 b o2 lxor rk.(2))
  and s3 = ref (get32 b o3 lxor rk.(3)) in
  for round = 1 to rounds - 1 do
    let o = 4 * round and a = !s0 and b = !s1 and c = !s2 and d = !s3 in
    s0 :=
      t0.%(a lsr 24) lxor t1.%((b lsr 16) land 0xff) lxor t2.%((c lsr 8) land 0xff)
      lxor t3.%(d land 0xff) lxor rk.(o);
    s1 :=
      t0.%(b lsr 24) lxor t1.%((c lsr 16) land 0xff) lxor t2.%((d lsr 8) land 0xff)
      lxor t3.%(a land 0xff) lxor rk.(o + 1);
    s2 :=
      t0.%(c lsr 24) lxor t1.%((d lsr 16) land 0xff) lxor t2.%((a lsr 8) land 0xff)
      lxor t3.%(b land 0xff) lxor rk.(o + 2);
    s3 :=
      t0.%(d lsr 24) lxor t1.%((a lsr 16) land 0xff) lxor t2.%((b lsr 8) land 0xff)
      lxor t3.%(c land 0xff) lxor rk.(o + 3)
  done;
  let o = 4 * rounds and sb = dir.sb and a = !s0 and b' = !s1 and c = !s2 and d = !s3 in
  set32 b off (sub_shift sb a b' c d rk.(o));
  set32 b o1 (sub_shift sb b' c d a rk.(o + 1));
  set32 b o2 (sub_shift sb c d a b' rk.(o + 2));
  set32 b o3 (sub_shift sb d a b' c rk.(o + 3))

let encrypt_at key b off = cipher forward key.ek key.rounds b off
let decrypt_at key b off = cipher inverse key.dk key.rounds b off

(* dst[doff..doff+16) ^= src[soff..soff+16) *)
let xor16 dst doff src soff =
  for i = 0 to 1 do
    let d = doff + (8 * i) and s = soff + (8 * i) in
    Bytes.set_int64_ne dst d (Int64.logxor (Bytes.get_int64_ne dst d) (Bytes.get_int64_ne src s))
  done

let one_block name cipher key block =
  if String.length block <> 16 then invalid_arg (name ^ ": need 16 bytes");
  let b = Bytes.of_string block in
  cipher key b 0;
  count 1;
  Bytes.unsafe_to_string b

let encrypt_block key block = one_block "Aes.encrypt_block" encrypt_at key block
let decrypt_block key block = one_block "Aes.decrypt_block" decrypt_at key block

let encrypt_cbc key ~iv plaintext =
  if String.length iv <> 16 then invalid_arg "Aes.encrypt_cbc: iv must be 16 bytes";
  let len = String.length plaintext in
  let pad = 16 - (len mod 16) in
  let out = Bytes.create (len + pad) in
  Bytes.blit_string plaintext 0 out 0 len;
  Bytes.fill out len pad (Char.chr pad);
  let n = (len + pad) / 16 in
  for i = 0 to n - 1 do
    let off = 16 * i in
    if i = 0 then xor16 out 0 (Bytes.unsafe_of_string iv) 0 else xor16 out off out (off - 16);
    encrypt_at key out off
  done;
  count n;
  Bytes.unsafe_to_string out

let decrypt_cbc key ~iv ciphertext =
  if String.length iv <> 16 then invalid_arg "Aes.decrypt_cbc: iv must be 16 bytes";
  let len = String.length ciphertext in
  if len = 0 || len mod 16 <> 0 then invalid_arg "Aes.decrypt_cbc: malformed ciphertext";
  let out = Bytes.of_string ciphertext in
  let ct = Bytes.unsafe_of_string ciphertext in
  for i = 0 to (len / 16) - 1 do
    let off = 16 * i in
    decrypt_at key out off;
    if i = 0 then xor16 out 0 (Bytes.unsafe_of_string iv) 0 else xor16 out off ct (off - 16)
  done;
  count (len / 16);
  let pad = Char.code (Bytes.get out (len - 1)) in
  if pad < 1 || pad > 16 then invalid_arg "Aes.decrypt_cbc: bad padding";
  for i = len - pad to len - 1 do
    if Char.code (Bytes.get out i) <> pad then invalid_arg "Aes.decrypt_cbc: bad padding"
  done;
  Bytes.sub_string out 0 (len - pad)

let ctr key ~nonce data =
  if String.length nonce <> 16 then invalid_arg "Aes.ctr: nonce must be 16 bytes";
  let counter = Bytes.of_string nonce and ks = Bytes.create 16 in
  let len = String.length data in
  let out = Bytes.of_string data in
  (* big-endian increment of the whole 128-bit counter block *)
  let rec bump j =
    if j >= 0 then begin
      let v = (Char.code (Bytes.get counter j) + 1) land 0xff in
      Bytes.set counter j (Char.chr v);
      if v = 0 then bump (j - 1)
    end
  in
  let n = (len + 15) / 16 in
  for i = 0 to n - 1 do
    Bytes.blit counter 0 ks 0 16;
    encrypt_at key ks 0;
    let off = 16 * i in
    for j = 0 to min 16 (len - off) - 1 do
      Bytes.set out (off + j)
        (Char.unsafe_chr (Char.code (Bytes.get out (off + j)) lxor Char.code (Bytes.get ks j)))
    done;
    bump 15
  done;
  count n;
  Bytes.unsafe_to_string out
