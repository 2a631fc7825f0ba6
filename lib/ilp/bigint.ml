(* Arbitrary-precision integers with a native-int fast path.

   A value that fits in a native [int] is always [Small]; only values
   outside [[min_int, max_int]] carry limbs.  The representation is
   therefore canonical (structural equality is value equality), and the
   common case -- ILP coefficients, bounds and pivots -- runs on machine
   integers.  Every [Small] operation is overflow-checked; an overflow
   redoes the operation on limbs, so results are exact either way.

   Limbs: sign + little-endian magnitude, base 2^30.  Base 2^30 keeps
   digit products within the 63-bit native range (2^30 * 2^30 = 2^60,
   leaving headroom for carry accumulation). *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t =
  | Small of int
  | Big of { sign : int; mag : int array }
      (* sign is -1 or 1; mag has no leading zero digits and its value
         lies outside the native range. *)

let zero = Small 0
let one = Small 1
let minus_one = Small (-1)
let of_int n = Small n

(* ---- limb view ---------------------------------------------------- *)

(* |min_int| = 2^62 = 4 * 2^60: digit 2 holds 4. *)
let min_int_mag = [| 0; 0; 4 |]

let small_limbs n =
  if n = 0 then (0, [||])
  else if n = min_int then (-1, Array.copy min_int_mag)
  else begin
    let sign = if n < 0 then -1 else 1 in
    let rec digits acc n =
      if n = 0 then Array.of_list (List.rev acc)
      else digits ((n land base_mask) :: acc) (n lsr base_bits)
    in
    (sign, digits [] (Stdlib.abs n))
  end

let limbs = function
  | Small n -> small_limbs n
  | Big { sign; mag } -> (sign, mag)

(* Canonical value of a signed magnitude: strip leading zero digits and
   go back to [Small] whenever the value fits. *)
let of_limbs sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  let n = !n in
  let fits =
    n <= 2
    || n = 3
       && (mag.(2) < 4
          || (sign < 0 && mag.(2) = 4 && mag.(1) = 0 && mag.(0) = 0))
  in
  if n = 0 then zero
  else if fits then begin
    if n = 3 && mag.(2) = 4 then Small min_int
    else begin
      let v = ref 0 in
      for i = n - 1 downto 0 do
        v := (!v lsl base_bits) lor mag.(i)
      done;
      Small (if sign < 0 then - !v else !v)
    end
  end
  else if n = Array.length mag then Big { sign; mag }
  else Big { sign; mag = Array.sub mag 0 n }

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

(* ---- overflow-checked native arithmetic ---------------------------- *)

exception Overflow

let[@inline] add_ovf a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then raise_notrace Overflow else s

let[@inline] sub_ovf a b =
  let s = a - b in
  if (a lxor b) land (a lxor s) < 0 then raise_notrace Overflow else s

(* Operands in [-2^30, 2^30) multiply without overflow; anything larger
   is checked by dividing back. *)
let[@inline] mul_ovf a b =
  if ((a + 0x4000_0000) lor (b + 0x4000_0000)) lsr 31 = 0 then a * b
  else if a = 0 || b = 0 then 0
  else begin
    let p = a * b in
    if p / b <> a || (a = min_int && b = -1) then raise_notrace Overflow else p
  end

(* Every remainder is smaller than the first nonzero divisor, so only
   a gcd of 2^62 (both operands in {0, min_int}) comes out wrong. *)
let rec int_gcd a b = if b = 0 then Stdlib.abs a else int_gcd b (a mod b)

(* ---- limb arithmetic (the overflow path) --------------------------- *)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  assert (!carry = 0);
  r

(* requires |a| >= |b| *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land base_mask;
        carry := s lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land base_mask;
        carry := s lsr base_bits;
        incr k
      done
    done;
    r
  end

(* Divide magnitude by a single digit (0 < d < base); returns quotient
   magnitude and remainder int. *)
let divmod_mag_digit a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    rem := cur mod d
  done;
  (q, !rem)

(* Long division on magnitudes, schoolbook with digit estimation.
   Works on base-2^30 digits; simple shift-and-subtract would be O(bits^2)
   with large constants, so we use per-digit trial division after
   normalizing the divisor's top digit. *)
let divmod_mag a b =
  let lb = Array.length b in
  if lb = 0 then raise Division_by_zero;
  if compare_mag a b < 0 then ([||], Array.copy a)
  else if lb = 1 then begin
    let q, r = divmod_mag_digit a b.(0) in
    (q, if r = 0 then [||] else [| r |])
  end else begin
    (* Knuth algorithm D, simplified: normalize so top divisor digit
       >= base/2, then estimate each quotient digit from the top two
       dividend digits. *)
    let shift =
      let rec f s top = if top >= base / 2 then s else f (s + 1) (top * 2) in
      f 0 b.(lb - 1)
    in
    let shl_mag m s =
      if s = 0 then Array.copy m
      else begin
        let lm = Array.length m in
        let r = Array.make (lm + 1) 0 in
        let carry = ref 0 in
        for i = 0 to lm - 1 do
          let v = (m.(i) lsl s) lor !carry in
          r.(i) <- v land base_mask;
          carry := v lsr base_bits
        done;
        r.(lm) <- !carry;
        r
      end
    in
    let shr_mag m s =
      if s = 0 then Array.copy m
      else begin
        let lm = Array.length m in
        let r = Array.make lm 0 in
        let carry = ref 0 in
        for i = lm - 1 downto 0 do
          let v = m.(i) in
          r.(i) <- (v lsr s) lor (!carry lsl (base_bits - s));
          carry := v land ((1 lsl s) - 1)
        done;
        r
      end
    in
    let u = shl_mag a shift in
    let v = shl_mag b shift in
    (* trim v's possible leading zero *)
    let lv =
      let n = ref (Array.length v) in
      while !n > 0 && v.(!n - 1) = 0 do decr n done;
      !n
    in
    let v = Array.sub v 0 lv in
    let lu = Array.length u in
    let n = lv and m = lu - lv in
    let q = Array.make (m + 1) 0 in
    (* u has an extra slot for the running remainder window *)
    let u = Array.append u [| 0 |] in
    let vtop = v.(n - 1) in
    let vsec = if n >= 2 then v.(n - 2) else 0 in
    for j = m downto 0 do
      (* estimate qhat from top two digits of the current window *)
      let top2 = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
      let qhat = ref (top2 / vtop) in
      let rhat = ref (top2 mod vtop) in
      if !qhat >= base then begin
        qhat := base - 1;
        rhat := top2 - !qhat * vtop
      end;
      let continue_adjust = ref true in
      while !continue_adjust do
        if !rhat < base
           && !qhat * vsec > (!rhat lsl base_bits) lor (if j + n - 2 >= 0 then u.(j + n - 2) else 0)
        then begin
          decr qhat;
          rhat := !rhat + vtop;
          if !rhat >= base then continue_adjust := false
        end
        else continue_adjust := false
      done;
      (* multiply-subtract qhat * v from u[j .. j+n] *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = !qhat * v.(i) + !carry in
        carry := p lsr base_bits;
        let d = u.(i + j) - (p land base_mask) - !borrow in
        if d < 0 then begin
          u.(i + j) <- d + base;
          borrow := 1
        end else begin
          u.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add back *)
        u.(j + n) <- d + base;
        decr qhat;
        let carry2 = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(i + j) + v.(i) + !carry2 in
          u.(i + j) <- s land base_mask;
          carry2 := s lsr base_bits
        done;
        u.(j + n) <- (u.(j + n) + !carry2) land base_mask
      end
      else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = shr_mag (Array.sub u 0 n) shift in
    (q, r)
  end

let big_add a b =
  let sa, ma = limbs a and sb, mb = limbs b in
  if sa = 0 then b
  else if sb = 0 then a
  else if sa = sb then of_limbs sa (add_mag ma mb)
  else begin
    let c = compare_mag ma mb in
    if c = 0 then zero
    else if c > 0 then of_limbs sa (sub_mag ma mb)
    else of_limbs sb (sub_mag mb ma)
  end

let big_neg = function
  | Small n -> if n = min_int then Big { sign = 1; mag = Array.copy min_int_mag } else Small (-n)
  | Big { sign; mag } -> of_limbs (-sign) mag

let big_mul a b =
  let sa, ma = limbs a and sb, mb = limbs b in
  if sa = 0 || sb = 0 then zero else of_limbs (sa * sb) (mul_mag ma mb)

let big_divmod a b =
  let sa, ma = limbs a and sb, mb = limbs b in
  if sb = 0 then raise Division_by_zero;
  if sa = 0 then (zero, zero)
  else begin
    let qm, rm = divmod_mag ma mb in
    (of_limbs (sa * sb) qm, of_limbs sa rm)
  end

(* ---- public operations --------------------------------------------- *)

let sign = function
  | Small n -> Stdlib.compare n 0
  | Big { sign; _ } -> sign

let is_zero = function Small 0 -> true | Small _ | Big _ -> false

let compare a b =
  match (a, b) with
  | Small x, Small y -> Int.compare x y
  (* A [Big] lies outside the native range, beyond every [Small]. *)
  | Small _, Big { sign; _ } -> -sign
  | Big { sign; _ }, Small _ -> sign
  | Big { sign = sa; mag = ma }, Big { sign = sb; mag = mb } ->
      if sa <> sb then Int.compare sa sb
      else if sa > 0 then compare_mag ma mb
      else compare_mag mb ma

let equal a b =
  match (a, b) with
  | Small x, Small y -> x = y
  | Small _, Big _ | Big _, Small _ -> false
  | Big _, Big _ -> compare a b = 0

let hash = function
  | Small n -> n land max_int
  | Big { sign; mag } ->
      Array.fold_left (fun acc d -> ((acc * 31) + d) land max_int) (sign + 1) mag

let neg = function
  | Small n when n <> min_int -> Small (-n)
  | t -> big_neg t

let abs t = if sign t < 0 then neg t else t

let add a b =
  match (a, b) with
  | Small x, Small y -> ( try Small (add_ovf x y) with Overflow -> big_add a b)
  | _ -> big_add a b

let sub a b =
  match (a, b) with
  | Small x, Small y -> ( try Small (sub_ovf x y) with Overflow -> big_add a (neg b))
  | _ -> big_add a (neg b)

let mul a b =
  match (a, b) with
  | Small x, Small y -> ( try Small (mul_ovf x y) with Overflow -> big_mul a b)
  | _ -> big_mul a b

let mul_int a n = mul a (of_int n)

let divmod a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y when not (x = min_int && y = -1) -> (Small (x / y), Small (x mod y))
  | _ -> big_divmod a b

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd a b =
  match (a, b) with
  | Small x, Small y when x <> min_int && y <> min_int -> Small (int_gcd x y)
  | _ ->
      let a = abs a and b = abs b in
      if is_zero b then a else gcd b (rem a b)

let to_int_opt = function Small n -> Some n | Big _ -> None

let to_int_exn = function
  | Small n -> n
  | Big _ -> failwith "Bigint.to_int_exn: value does not fit in int"

let ten = of_int 10

let to_string = function
  | Small n -> string_of_int n
  | Big { sign; _ } as t ->
      let buf = Buffer.create 32 in
      let rec go x =
        match x with
        | Small n -> Buffer.add_string buf (string_of_int n)
        | Big _ ->
            let q, r = divmod x ten in
            go q;
            Buffer.add_char buf (Char.chr (Char.code '0' + to_int_exn r))
      in
      go (abs t);
      (if sign < 0 then "-" else "") ^ Buffer.contents buf

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let neg_sign, start = if s.[0] = '-' then (true, 1) else (false, 0) in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: non-digit";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if neg_sign then neg !acc else !acc

let pp fmt t = Format.pp_print_string fmt (to_string t)
