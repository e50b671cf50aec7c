open Flicker_crypto
module B = Bignum

let dec = B.of_decimal_string
let check_dec msg expected v = Alcotest.(check string) msg expected (B.to_decimal_string v)

let test_of_to_int () =
  Alcotest.(check int) "small" 42 (B.to_int (B.of_int 42));
  Alcotest.(check int) "zero" 0 (B.to_int B.zero);
  Alcotest.(check int) "large" max_int (B.to_int (B.of_int max_int));
  Alcotest.check_raises "negative" (Invalid_argument "Bignum.of_int: negative")
    (fun () -> ignore (B.of_int (-1)))

let test_compare () =
  Alcotest.(check bool) "lt" true (B.compare (B.of_int 3) (B.of_int 5) < 0);
  Alcotest.(check bool) "gt" true (B.compare (dec "100000000000000000000") (B.of_int 5) > 0);
  Alcotest.(check bool) "eq" true (B.equal (dec "123") (B.of_int 123))

let test_add_sub () =
  check_dec "add" "10000000000000000000000000000"
    (B.add (dec "9999999999999999999999999999") B.one);
  check_dec "sub" "9999999999999999999999999999"
    (B.sub (dec "10000000000000000000000000000") B.one);
  check_dec "sub to zero" "0" (B.sub (dec "12345") (dec "12345"));
  Alcotest.check_raises "negative result"
    (Invalid_argument "Bignum.sub: negative result") (fun () ->
      ignore (B.sub B.one B.two))

let test_mul () =
  check_dec "mul" "121932631137021795226185032733622923332237463801111263526900"
    (B.mul
       (dec "123456789012345678901234567890")
       (dec "987654321098765432109876543210"));
  check_dec "mul zero" "0" (B.mul B.zero (dec "999999999999"));
  check_dec "mul one" "999999999999" (B.mul B.one (dec "999999999999"))

let test_divmod () =
  let a = dec "987654321098765432109876543210987654321" in
  let b = dec "123456789012345678901" in
  let q, r = B.divmod a b in
  Alcotest.(check bool) "r < b" true (B.compare r b < 0);
  check_dec "reconstruct" (B.to_decimal_string a) (B.add (B.mul q b) r);
  let q2, r2 = B.divmod (B.of_int 17) (B.of_int 5) in
  Alcotest.(check int) "q" 3 (B.to_int q2);
  Alcotest.(check int) "r" 2 (B.to_int r2);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_divmod_knuth_addback () =
  (* exercise the rare add-back correction: divisor with small second limb *)
  let b = B.add (B.shift_left B.one 52) B.one in
  let a = B.sub (B.shift_left B.one 104) B.one in
  let q, r = B.divmod a b in
  check_dec "reconstruct addback" (B.to_decimal_string a) (B.add (B.mul q b) r);
  Alcotest.(check bool) "r < b" true (B.compare r b < 0)

let test_rem_int () =
  Alcotest.(check int) "small" 2 (B.rem_int (B.of_int 17) 5);
  Alcotest.(check int) "big" 1
    (B.rem_int (dec "1000000000000000000000000000001") 10);
  (* wide modulus path (d >= 2^26) *)
  let d = (1 lsl 40) + 123 in
  let a = dec "123456789012345678901234567890" in
  let _, r = B.divmod a (B.of_int d) in
  Alcotest.(check int) "wide" (B.to_int r) (B.rem_int a d);
  (* divisors above 2^61: a bit-by-bit doubling of the remainder would
     overflow the native int and come out negative *)
  let d = max_int - 1 in
  Alcotest.(check int) "above 2^61" 12345
    (B.rem_int (B.add_int (B.shift_left (B.of_int d) 30) 12345) d);
  let a = B.sub (B.shift_left B.one 200) B.one in
  Alcotest.(check int) "max_int" (B.to_int (B.rem a (B.of_int max_int))) (B.rem_int a max_int)

let test_shifts () =
  check_dec "shl" "1024" (B.shift_left B.one 10);
  check_dec "shr" "1" (B.shift_right (B.of_int 1024) 10);
  check_dec "shr to zero" "0" (B.shift_right (B.of_int 1024) 11);
  let v = dec "123456789012345678901234567890" in
  check_dec "shl/shr roundtrip" (B.to_decimal_string v)
    (B.shift_right (B.shift_left v 77) 77)

let test_bits () =
  Alcotest.(check int) "bit_length 0" 0 (B.bit_length B.zero);
  Alcotest.(check int) "bit_length 1" 1 (B.bit_length B.one);
  Alcotest.(check int) "bit_length 255" 8 (B.bit_length (B.of_int 255));
  Alcotest.(check int) "bit_length 2^100" 101 (B.bit_length (B.shift_left B.one 100));
  Alcotest.(check bool) "test_bit" true (B.test_bit (B.of_int 5) 2);
  Alcotest.(check bool) "test_bit false" false (B.test_bit (B.of_int 5) 1)

let test_mod_pow () =
  (* Fermat: 7^560 = 1 mod 561 is a Carmichael special; also real prime *)
  check_dec "carmichael" "1"
    (B.mod_pow ~base:(B.of_int 7) ~exp:(B.of_int 560) ~modulus:(B.of_int 561));
  check_dec "fermat" "1"
    (B.mod_pow ~base:(B.of_int 2) ~exp:(B.of_int 102) ~modulus:(B.of_int 103));
  check_dec "zero exp" "1"
    (B.mod_pow ~base:(dec "987654321") ~exp:B.zero ~modulus:(dec "1000003"));
  check_dec "mod one" "0" (B.mod_pow ~base:(B.of_int 5) ~exp:(B.of_int 5) ~modulus:B.one);
  (* 2^1000 mod a large modulus, checked against a Python-computed value *)
  check_dec "big modpow" "351847868703573052863291"
    (B.mod_pow ~base:B.two ~exp:(B.of_int 1000)
       ~modulus:(dec "604462909807314587353111"))

let test_mod_pow_reference () =
  (* independent check against repeated multiplication *)
  let m = B.of_int 1000003 in
  let naive b e =
    let r = ref B.one in
    for _ = 1 to e do
      r := B.rem (B.mul !r b) m
    done;
    !r
  in
  List.iter
    (fun (b, e) ->
      Alcotest.(check string) "matches naive"
        (B.to_decimal_string (naive (B.of_int b) e))
        (B.to_decimal_string
           (B.mod_pow ~base:(B.of_int b) ~exp:(B.of_int e) ~modulus:m)))
    [ (2, 100); (12345, 77); (999999, 3) ]

let test_gcd_modinv () =
  check_dec "gcd" "6" (B.gcd (B.of_int 48) (B.of_int 18));
  check_dec "gcd coprime" "1" (B.gcd (B.of_int 17) (B.of_int 31));
  (match B.mod_inverse (B.of_int 3) (B.of_int 11) with
  | Some inv -> Alcotest.(check int) "3^-1 mod 11" 4 (B.to_int inv)
  | None -> Alcotest.fail "inverse exists");
  (match B.mod_inverse (B.of_int 4) (B.of_int 8) with
  | Some _ -> Alcotest.fail "no inverse for gcd>1"
  | None -> ());
  let m = dec "170141183460469231731687303715884105727" (* 2^127-1, prime *) in
  let a = dec "123456789012345678901234567890" in
  match B.mod_inverse a m with
  | None -> Alcotest.fail "inverse mod prime exists"
  | Some inv -> check_dec "a * a^-1 = 1" "1" (B.rem (B.mul a inv) m)

let test_bytes_roundtrip () =
  let v = dec "123456789012345678901234567890" in
  Alcotest.(check string) "bytes" (B.to_decimal_string v)
    (B.to_decimal_string (B.of_bytes_be (B.to_bytes_be v)));
  Alcotest.(check int) "padded length" 32 (String.length (B.to_bytes_be ~pad_to:32 v));
  Alcotest.(check string) "zero encoding" "" (B.to_bytes_be B.zero);
  Alcotest.(check string) "zero padded" "\000\000\000" (B.to_bytes_be ~pad_to:3 B.zero);
  Alcotest.(check string) "pad_to shorter than value" "\001\002"
    (B.to_bytes_be ~pad_to:1 (B.of_int 258));
  Alcotest.(check int) "leading zero bytes" 258 (B.to_int (B.of_bytes_be "\000\000\001\002"));
  Alcotest.(check bool) "empty is zero" true (B.is_zero (B.of_bytes_be ""));
  Alcotest.(check bool) "zero bytes are zero" true (B.is_zero (B.of_bytes_be "\000\000"));
  Alcotest.(check string) "hex" "0102" (B.to_hex (B.of_int 258))

let test_decimal_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Bignum.of_decimal_string: empty")
    (fun () -> ignore (B.of_decimal_string ""));
  Alcotest.check_raises "non-digit"
    (Invalid_argument "Bignum.of_decimal_string: non-digit") (fun () ->
      ignore (B.of_decimal_string "12a3"))

let test_random () =
  let rng = Prng.create ~seed:"bignum-random" in
  let rand = Prng.bytes rng in
  for _ = 1 to 50 do
    let v = B.random_bits rand 65 in
    Alcotest.(check bool) "within 2^65" true (B.bit_length v <= 65)
  done;
  let bound = dec "1000000000000000000000" in
  for _ = 1 to 50 do
    let v = B.random_below rand bound in
    Alcotest.(check bool) "below bound" true (B.compare v bound < 0)
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Bignum.random_below: zero bound") (fun () ->
      ignore (B.random_below rand B.zero))

(* qcheck generator: random bignum from decimal digits *)
let gen_bignum =
  QCheck.Gen.(
    map
      (fun digits ->
        let s = String.concat "" (List.map string_of_int digits) in
        dec (if s = "" then "0" else s))
      (list_size (int_range 1 30) (int_range 0 9)))

let arb_bignum = QCheck.make ~print:B.to_decimal_string gen_bignum

let prop_add_comm =
  QCheck.Test.make ~name:"addition commutes" ~count:300 (QCheck.pair arb_bignum arb_bignum)
    (fun (a, b) -> B.equal (B.add a b) (B.add b a))

let prop_mul_distributes =
  QCheck.Test.make ~name:"multiplication distributes" ~count:200
    (QCheck.triple arb_bignum arb_bignum arb_bignum) (fun (a, b, c) ->
      B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)))

let prop_divmod =
  QCheck.Test.make ~name:"divmod reconstructs" ~count:300
    (QCheck.pair arb_bignum arb_bignum) (fun (a, b) ->
      QCheck.assume (not (B.is_zero b));
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r) && B.compare r b < 0)

let prop_bytes_roundtrip =
  QCheck.Test.make ~name:"bytes roundtrip" ~count:300 arb_bignum (fun v ->
      B.equal v (B.of_bytes_be (B.to_bytes_be v)))

let prop_decimal_roundtrip =
  QCheck.Test.make ~name:"decimal roundtrip" ~count:300 arb_bignum (fun v ->
      B.equal v (dec (B.to_decimal_string v)))

let prop_shift =
  QCheck.Test.make ~name:"shift left is *2^k" ~count:200
    (QCheck.pair arb_bignum (QCheck.int_range 0 80)) (fun (v, k) ->
      B.equal (B.shift_left v k) (B.mul v (B.mod_pow ~base:B.two ~exp:(B.of_int k) ~modulus:(B.shift_left B.one 200))))

(* The square-and-multiply loop with a full division per step: the
   reference [mod_pow] is checked against. *)
let reference_mod_pow b e m =
  if B.equal m B.one then B.zero
  else begin
    let result = ref B.one and acc = ref (B.rem b m) in
    for i = 0 to B.bit_length e - 1 do
      if B.test_bit e i then result := B.rem (B.mul !result !acc) m;
      acc := B.rem (B.mul !acc !acc) m
    done;
    !result
  end

(* A natural number below 2^bits from uniform random bytes. *)
let gen_nat bits =
  QCheck.Gen.map
    (fun s -> B.shift_right (B.of_bytes_be s) ((8 * String.length s) - bits))
    (QCheck.Gen.string_size (QCheck.Gen.return ((bits + 7) / 8)))

(* Moduli of 1-1100 bits: odd, even, one, and with all-ones top limbs;
   exponents 0, 1, up to 64 bits (1-bit window) and above (4-bit
   window); bases zero or up to 40 bits wider than the modulus. *)
let gen_mod_pow_case =
  let open QCheck.Gen in
  int_range 1 1100 >>= fun bits ->
  let nonzero v = if B.is_zero v then B.one else v in
  oneof
    [
      map nonzero (gen_nat bits);
      map (fun v -> if B.is_even v then B.add_int v 1 else v) (gen_nat bits);
      map (fun v -> nonzero (B.shift_left (B.shift_right v 1) 1)) (gen_nat bits);
      map (fun v -> B.sub (B.shift_left B.one bits) (B.add_int v 1)) (gen_nat (bits / 2));
      return B.one;
    ]
  >>= fun m ->
  oneof
    [ return B.zero; return B.one; int_range 1 64 >>= gen_nat; int_range 65 200 >>= gen_nat ]
  >>= fun e ->
  oneof [ return B.zero; int_range 0 40 >>= fun extra -> gen_nat (B.bit_length m + extra) ]
  >|= fun b -> (b, e, m)

let prop_mod_pow_reference =
  QCheck.Test.make ~name:"mod_pow matches square-and-multiply" ~count:300
    (QCheck.make
       ~print:(fun (b, e, m) -> Printf.sprintf "base=%s exp=%s modulus=%s" (B.to_hex b) (B.to_hex e) (B.to_hex m))
       gen_mod_pow_case)
    (fun (b, e, m) -> B.equal (B.mod_pow ~base:b ~exp:e ~modulus:m) (reference_mod_pow b e m))

(* Byte strings with up to three leading zero bytes. *)
let arb_bytes =
  QCheck.make ~print:Util.to_hex
    QCheck.Gen.(
      map2 (fun z s -> String.make z '\000' ^ s) (int_range 0 3) (string_size (int_range 0 80)))

let prop_codec =
  QCheck.Test.make ~name:"byte codecs vs per-byte reference" ~count:500 arb_bytes (fun s ->
      let v = B.of_bytes_be s in
      let per_byte = ref B.zero in
      String.iter (fun c -> per_byte := B.add_int (B.mul_int !per_byte 256) (Char.code c)) s;
      let rec strip i = if i < String.length s && s.[i] = '\000' then strip (i + 1) else i in
      let minimal = let i = strip 0 in String.sub s i (String.length s - i) in
      B.equal v !per_byte
      && B.to_bytes_be v = minimal
      && B.to_bytes_be ~pad_to:(String.length s) v = s
      && B.to_bytes_be ~pad_to:(String.length s + 5) v = String.make 5 '\000' ^ s)

let () =
  Alcotest.run "bignum"
    [
      ( "bignum",
        [
          Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "divmod" `Quick test_divmod;
          Alcotest.test_case "divmod add-back" `Quick test_divmod_knuth_addback;
          Alcotest.test_case "rem_int" `Quick test_rem_int;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "bit ops" `Quick test_bits;
          Alcotest.test_case "mod_pow" `Quick test_mod_pow;
          Alcotest.test_case "mod_pow vs naive" `Quick test_mod_pow_reference;
          Alcotest.test_case "gcd / modinv" `Quick test_gcd_modinv;
          Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
          Alcotest.test_case "decimal errors" `Quick test_decimal_errors;
          Alcotest.test_case "random draws" `Quick test_random;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_add_comm;
            prop_mul_distributes;
            prop_divmod;
            prop_bytes_roundtrip;
            prop_decimal_roundtrip;
            prop_shift;
            prop_mod_pow_reference;
            prop_codec;
          ] );
    ]
