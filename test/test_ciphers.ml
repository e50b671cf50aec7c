open Flicker_crypto

let check = Alcotest.(check string)
let hex = Util.to_hex

(* Reference model: the byte-oriented cipher the table-driven core
   replaced, rebuilt from FIPS 197's definitions (the S-box from GF(2^8)
   inverses and the affine map, MixColumns as a circulant of gmul), and
   kept here only to check the library against. State is column-major:
   byte i of a block is row i mod 4 of column i / 4. *)
module Ref = struct
  let xtime b =
    let v = b lsl 1 in
    if v land 0x100 <> 0 then v lxor 0x11b else v

  let rec gmul a b =
    if b = 0 then 0 else (if b land 1 = 1 then a else 0) lxor gmul (xtime a) (b lsr 1)

  let rotl8 b n = ((b lsl n) lor (b lsr (8 - n))) land 0xff

  let sbox =
    Array.init 256 (fun x ->
        let inv = ref (if x = 0 then 0 else 1) in
        if x <> 0 then for _ = 1 to 254 do inv := gmul !inv x done;
        let b = !inv in
        b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63)

  let inv_sbox =
    let t = Array.make 256 0 in
    Array.iteri (fun i v -> t.(v) <- i) sbox;
    t

  (* (rounds, round keys as 16 bytes per round) *)
  let expand key =
    let nk = String.length key / 4 in
    let rounds = nk + 6 in
    let w = Bytes.extend (Bytes.of_string key) 0 ((16 * (rounds + 1)) - String.length key) in
    let rcon = ref 1 in
    for i = nk to (4 * (rounds + 1)) - 1 do
      let t = Array.init 4 (fun j -> Char.code (Bytes.get w ((4 * (i - 1)) + j))) in
      let t =
        if i mod nk = 0 then begin
          let t = Array.init 4 (fun j -> sbox.(t.((j + 1) mod 4))) in
          t.(0) <- t.(0) lxor !rcon;
          rcon := xtime !rcon;
          t
        end
        else if nk > 6 && i mod nk = 4 then Array.map (fun b -> sbox.(b)) t
        else t
      in
      for j = 0 to 3 do
        Bytes.set w ((4 * i) + j)
          (Char.chr (Char.code (Bytes.get w ((4 * (i - nk)) + j)) lxor t.(j)))
      done
    done;
    (rounds, Bytes.to_string w)

  let add_round_key st rk round =
    for i = 0 to 15 do
      st.(i) <- st.(i) lxor Char.code rk.[(16 * round) + i]
    done

  let sub st box = Array.iteri (fun i v -> st.(i) <- box.(v)) st

  (* row r rotates left by r columns ([dir] = 1) or right ([dir] = -1) *)
  let shift st dir =
    let old = Array.copy st in
    for c = 0 to 3 do
      for r = 1 to 3 do
        st.((4 * c) + r) <- old.((4 * ((c + (dir * r) + 4) mod 4)) + r)
      done
    done

  let mix st m =
    for c = 0 to 3 do
      let col = Array.sub st (4 * c) 4 in
      for r = 0 to 3 do
        st.((4 * c) + r) <-
          List.fold_left (fun acc j -> acc lxor gmul col.(j) m.((j - r + 4) mod 4)) 0 [ 0; 1; 2; 3 ]
      done
    done

  let state_of s = Array.init 16 (fun i -> Char.code s.[i])
  let string_of st = String.init 16 (fun i -> Char.chr st.(i))

  let encrypt_block (rounds, rk) block =
    let st = state_of block in
    add_round_key st rk 0;
    for round = 1 to rounds do
      sub st sbox;
      shift st 1;
      if round < rounds then mix st [| 2; 3; 1; 1 |];
      add_round_key st rk round
    done;
    string_of st

  let decrypt_block (rounds, rk) block =
    let st = state_of block in
    add_round_key st rk rounds;
    for round = rounds - 1 downto 0 do
      shift st (-1);
      sub st inv_sbox;
      add_round_key st rk round;
      if round > 0 then mix st [| 14; 11; 13; 9 |]
    done;
    string_of st

  let encrypt_cbc k ~iv pt =
    let pad = 16 - (String.length pt mod 16) in
    let blocks = Util.chunks 16 (pt ^ String.make pad (Char.chr pad)) in
    let _, out =
      List.fold_left
        (fun (prev, acc) b ->
          let c = encrypt_block k (Util.xor b prev) in
          (c, c :: acc))
        (iv, []) blocks
    in
    String.concat "" (List.rev out)

  let decrypt_cbc k ~iv ct =
    let _, out =
      List.fold_left
        (fun (prev, acc) b -> (b, Util.xor (decrypt_block k b) prev :: acc))
        (iv, []) (Util.chunks 16 ct)
    in
    let padded = String.concat "" (List.rev out) in
    let len = String.length padded in
    String.sub padded 0 (len - Char.code padded.[len - 1])

  let ctr k ~nonce data =
    let counter = Bytes.of_string nonce in
    let rec bump i =
      if i >= 0 then begin
        let v = (Char.code (Bytes.get counter i) + 1) land 0xff in
        Bytes.set counter i (Char.chr v);
        if v = 0 then bump (i - 1)
      end
    in
    let out =
      List.fold_left
        (fun acc b ->
          let ks = encrypt_block k (Bytes.to_string counter) in
          bump 15;
          Util.xor b (String.sub ks 0 (String.length b)) :: acc)
        [] (Util.chunks 16 data)
    in
    String.concat "" (List.rev out)
end

(* FIPS-197 Appendix C *)
let test_aes_fips_vectors () =
  let pt = Util.of_hex "00112233445566778899aabbccddeeff" in
  let k128 = Aes.expand_key (Util.of_hex "000102030405060708090a0b0c0d0e0f") in
  check "aes-128 enc" "69c4e0d86a7b0430d8cdb78070b4c55a" (hex (Aes.encrypt_block k128 pt));
  check "aes-128 dec" (hex pt)
    (hex (Aes.decrypt_block k128 (Util.of_hex "69c4e0d86a7b0430d8cdb78070b4c55a")));
  let k192 =
    Aes.expand_key (Util.of_hex "000102030405060708090a0b0c0d0e0f1011121314151617")
  in
  check "aes-192 enc" "dda97ca4864cdfe06eaf70a0ec0d7191" (hex (Aes.encrypt_block k192 pt));
  check "aes-192 dec" (hex pt)
    (hex (Aes.decrypt_block k192 (Util.of_hex "dda97ca4864cdfe06eaf70a0ec0d7191")));
  let k256 =
    Aes.expand_key
      (Util.of_hex "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
  in
  check "aes-256 enc" "8ea2b7ca516745bfeafc49904b496089" (hex (Aes.encrypt_block k256 pt));
  check "aes-256 dec" (hex pt)
    (hex (Aes.decrypt_block k256 (Util.of_hex "8ea2b7ca516745bfeafc49904b496089")))

(* NIST SP 800-38A F.2.1: AES-128-CBC, all four blocks *)
let test_aes_cbc_nist () =
  let key = Aes.expand_key (Util.of_hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let iv = Util.of_hex "000102030405060708090a0b0c0d0e0f" in
  let pt =
    Util.of_hex
      ("6bc1bee22e409f96e93d7e117393172a" ^ "ae2d8a571e03ac9c9eb76fac45af8e51"
     ^ "30c81c46a35ce411e5fbc1191a0a52ef" ^ "f69f2445df4f9b17ad2b417be66c3710")
  in
  let ct = Aes.encrypt_cbc key ~iv pt in
  (* the first 64 bytes must match the NIST vector; the rest is our padding *)
  check "cbc blocks 1-4"
    ("7649abac8119b246cee98e9b12e9197d" ^ "5086cb9b507219ee95db113a917678b2"
   ^ "73bed6b8e3c1743b7116e69e22229516" ^ "3ff1caa1681fac09120eca307586e1a7")
    (hex (String.sub ct 0 64));
  Alcotest.(check int) "one padding block" 80 (String.length ct);
  check "cbc roundtrip" (hex pt) (hex (Aes.decrypt_cbc key ~iv ct))

let test_aes_cbc_errors () =
  let key = Aes.expand_key (String.make 16 'k') in
  Alcotest.check_raises "bad iv" (Invalid_argument "Aes.encrypt_cbc: iv must be 16 bytes")
    (fun () -> ignore (Aes.encrypt_cbc key ~iv:"short" "data"));
  Alcotest.check_raises "bad ct length"
    (Invalid_argument "Aes.decrypt_cbc: malformed ciphertext") (fun () ->
      ignore (Aes.decrypt_cbc key ~iv:(String.make 16 'i') "12345"));
  (* corrupting the last block must break the padding check (usually) *)
  let iv = String.make 16 'i' in
  let ct = Bytes.of_string (Aes.encrypt_cbc key ~iv "hello world") in
  Bytes.set ct (Bytes.length ct - 1) '\xff';
  Alcotest.(check bool) "tampered ct rejected or garbled" true
    (match Aes.decrypt_cbc key ~iv (Bytes.to_string ct) with
    | exception Invalid_argument _ -> true
    | recovered -> recovered <> "hello world")

let test_aes_key_errors () =
  Alcotest.check_raises "bad key size"
    (Invalid_argument "Aes.expand_key: key must be 16, 24 or 32 bytes") (fun () ->
      ignore (Aes.expand_key "tooshort"));
  let key = Aes.expand_key (String.make 16 'k') in
  Alcotest.check_raises "bad block" (Invalid_argument "Aes.encrypt_block: need 16 bytes")
    (fun () -> ignore (Aes.encrypt_block key "short"))

let test_aes_ctr () =
  (* NIST SP 800-38A F.5.1 *)
  let key = Aes.expand_key (Util.of_hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let nonce = Util.of_hex "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff" in
  let pt =
    Util.of_hex
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
  in
  let ct = Aes.ctr key ~nonce pt in
  check "ctr blocks 1-2"
    "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff" (hex ct);
  check "ctr roundtrip" (hex pt) (hex (Aes.ctr key ~nonce ct));
  (* partial final block *)
  let short = "not a multiple of sixteen!" in
  check "ctr partial" short (Aes.ctr key ~nonce (Aes.ctr key ~nonce short))

(* Pinned output, captured from the byte-oriented cipher before the
   table-driven core replaced it: AES-192, a counter that carries across
   its low 32 bits, 1000 bytes (a partial final block). *)
let test_aes_ctr_golden () =
  let key = Aes.expand_key (Util.of_hex "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b") in
  let nonce = Util.of_hex "000102030405060708090a0bfffffffe" in
  let data = String.init 1000 (fun i -> Char.chr (((i * 13) + 5) land 0xff)) in
  check "ctr sha1" "7146fb9c1e3506abcc97d0542aed33a7ed10fa80"
    (hex (Sha1.digest (Aes.ctr key ~nonce data)))

let test_aes_blocks_counter () =
  let key = Aes.expand_key (String.make 16 'c') and iv = String.make 16 'i' in
  let delta f =
    let before = Aes.blocks () in
    f ();
    Aes.blocks () - before
  in
  Alcotest.(check int) "block" 1 (delta (fun () -> ignore (Aes.encrypt_block key iv)));
  Alcotest.(check int) "cbc pads 32 B to 3 blocks" 3
    (delta (fun () -> ignore (Aes.encrypt_cbc key ~iv (String.make 32 'p'))));
  let ct = Aes.encrypt_cbc key ~iv (String.make 20 'p') in
  Alcotest.(check int) "cbc decrypt" 2 (delta (fun () -> ignore (Aes.decrypt_cbc key ~iv ct)));
  Alcotest.(check int) "ctr 17 B" 2 (delta (fun () -> ignore (Aes.ctr key ~nonce:iv (String.make 17 'p'))));
  Alcotest.(check int) "ctr empty" 0 (delta (fun () -> ignore (Aes.ctr key ~nonce:iv "")))

let test_rc4_vectors () =
  check "rc4 Key/Plaintext" "bbf316e8d940af0ad3" (hex (Rc4.encrypt ~key:"Key" "Plaintext"));
  check "rc4 Wiki/pedia" "1021bf0420" (hex (Rc4.encrypt ~key:"Wiki" "pedia"));
  check "rc4 Secret" "45a01f645fc35b383552544b9bf5"
    (hex (Rc4.encrypt ~key:"Secret" "Attack at dawn"))

let test_rc4_stream () =
  let c = Rc4.create ~key:"streaming" in
  let part1 = Rc4.process c "hello " in
  let part2 = Rc4.process c "world" in
  let oneshot = Rc4.encrypt ~key:"streaming" "hello world" in
  check "streamed equals one-shot" (hex oneshot) (hex (part1 ^ part2));
  Alcotest.(check int) "keystream length" 100
    (String.length (Rc4.keystream (Rc4.create ~key:"k") 100));
  Alcotest.check_raises "empty key" (Invalid_argument "Rc4.create: key must be 1-256 bytes")
    (fun () -> ignore (Rc4.create ~key:""))

let arb_data = QCheck.(string_of_size Gen.(int_range 0 500))

let prop_cbc_roundtrip =
  QCheck.Test.make ~name:"AES-CBC roundtrip" ~count:100 arb_data (fun data ->
      let key = Aes.expand_key (Sha256.digest "k" |> fun s -> String.sub s 0 16) in
      let iv = String.sub (Sha256.digest data) 0 16 in
      Aes.decrypt_cbc key ~iv (Aes.encrypt_cbc key ~iv data) = data)

let prop_ctr_involution =
  QCheck.Test.make ~name:"AES-CTR is an involution" ~count:100 arb_data (fun data ->
      let key = Aes.expand_key (String.make 32 'q') in
      let nonce = String.make 16 'n' in
      Aes.ctr key ~nonce (Aes.ctr key ~nonce data) = data)

let prop_rc4_involution =
  QCheck.Test.make ~name:"RC4 is an involution" ~count:100 arb_data (fun data ->
      Rc4.encrypt ~key:"prop" (Rc4.encrypt ~key:"prop" data) = data)

let gen_key = QCheck.Gen.(oneofl [ 16; 24; 32 ] >>= fun n -> string_size (return n))
let gen_block = QCheck.Gen.(string_size (return 16))

(* Lengths 0-1100 B, a third of them exact multiples of 16 (a whole
   padding block in CBC, no partial block in CTR). Nonces sometimes end
   in 0xff.. so the counter carries across bytes. *)
let gen_len = QCheck.Gen.(frequency [ (2, int_range 0 1100); (1, map (( * ) 16) (int_range 0 68)) ])

let gen_nonce =
  QCheck.Gen.(
    frequency [ (1, gen_block); (1, map (fun s -> s ^ "\xff\xff\xff\xfd") (string_size (return 12))) ])

let print_case (k, iv, data) =
  Printf.sprintf "key=%s iv=%s data(%d)=%s" (hex k) (hex iv) (String.length data) (hex data)

let prop_block_matches_reference =
  QCheck.Test.make ~name:"AES blocks equal the reference model" ~count:300
    (QCheck.make ~print:(fun (k, b) -> hex k ^ " " ^ hex b) QCheck.Gen.(pair gen_key gen_block))
    (fun (k, b) ->
      let key = Aes.expand_key k and rk = Ref.expand k in
      Aes.encrypt_block key b = Ref.encrypt_block rk b
      && Aes.decrypt_block key b = Ref.decrypt_block rk b)

let prop_modes_match_reference =
  QCheck.Test.make ~name:"AES-CBC and CTR equal the reference model" ~count:100
    (QCheck.make ~print:print_case
       QCheck.Gen.(triple gen_key gen_nonce (gen_len >>= fun n -> string_size (return n))))
    (fun (k, iv, data) ->
      let key = Aes.expand_key k and rk = Ref.expand k in
      let ct = Aes.encrypt_cbc key ~iv data in
      ct = Ref.encrypt_cbc rk ~iv data
      && Aes.decrypt_cbc key ~iv ct = Ref.decrypt_cbc rk ~iv ct
      && Aes.ctr key ~nonce:iv data = Ref.ctr rk ~nonce:iv data)

let prop_cbc_expands =
  QCheck.Test.make ~name:"CBC ciphertext is a padded multiple of 16" ~count:100 arb_data
    (fun data ->
      let key = Aes.expand_key (String.make 16 'z') in
      let ct = Aes.encrypt_cbc key ~iv:(String.make 16 'i') data in
      String.length ct mod 16 = 0 && String.length ct > String.length data)

let () =
  Alcotest.run "ciphers"
    [
      ( "aes",
        [
          Alcotest.test_case "FIPS-197 vectors" `Quick test_aes_fips_vectors;
          Alcotest.test_case "NIST CBC vector" `Quick test_aes_cbc_nist;
          Alcotest.test_case "CBC errors" `Quick test_aes_cbc_errors;
          Alcotest.test_case "key errors" `Quick test_aes_key_errors;
          Alcotest.test_case "NIST CTR vector" `Quick test_aes_ctr;
          Alcotest.test_case "CTR golden" `Quick test_aes_ctr_golden;
          Alcotest.test_case "blocks counter" `Quick test_aes_blocks_counter;
        ] );
      ( "rc4",
        [
          Alcotest.test_case "vectors" `Quick test_rc4_vectors;
          Alcotest.test_case "streaming" `Quick test_rc4_stream;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_cbc_roundtrip;
            prop_ctr_involution;
            prop_rc4_involution;
            prop_cbc_expands;
            prop_block_matches_reference;
            prop_modes_match_reference;
          ]
      );
    ]
