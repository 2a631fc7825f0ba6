(* Normalized rationals: den > 0, gcd (|num|, den) = 1.

   [S (n, d)] holds every value whose numerator and denominator both fit
   in a native int; [L] holds the rest, as Bigints.  The split is
   canonical, so the arithmetic below works on machine integers whenever
   the operands are small and only an overflow-checked step that
   overflows redoes the operation on limbs.  Both paths compute the same
   exact value. *)

module B = Bigint

type t =
  | S of int * int
  | L of B.t * B.t (* num or den outside the native range *)

exception Overflow = B.Overflow

let add_ovf = B.add_ovf
let mul_ovf = B.mul_ovf

(* Every call passes a denominator (in [1, max_int]) as one operand, so
   the gcd always fits. *)
let igcd = B.int_gcd

(* ---- limb path ------------------------------------------------------ *)

let parts = function S (n, d) -> (B.of_int n, B.of_int d) | L (n, d) -> (n, d)

(* Canonical value of an already-reduced fraction. *)
let of_reduced n d =
  match (B.to_int_opt n, B.to_int_opt d) with
  | Some n, Some d -> S (n, d)
  | _ -> L (n, d)

let normalize n d =
  if B.is_zero d then raise Division_by_zero;
  if B.is_zero n then S (0, 1)
  else begin
    let n, d = if B.sign d < 0 then (B.neg n, B.neg d) else (n, d) in
    let g = B.gcd n d in
    if B.equal g B.one then of_reduced n d else of_reduced (B.div n g) (B.div d g)
  end

let big_add a b =
  let an, ad = parts a and bn, bd = parts b in
  normalize (B.add (B.mul an bd) (B.mul bn ad)) (B.mul ad bd)

let big_mul a b =
  let an, ad = parts a and bn, bd = parts b in
  normalize (B.mul an bn) (B.mul ad bd)

let big_compare a b =
  (* a.n/a.d ? b.n/b.d  <=>  a.n*b.d ? b.n*a.d  (denominators positive) *)
  let an, ad = parts a and bn, bd = parts b in
  B.compare (B.mul an bd) (B.mul bn ad)

(* ---- public operations ----------------------------------------------- *)

let make n d = normalize n d
let zero = S (0, 1)
let one = S (1, 1)
let minus_one = S (-1, 1)
let of_int i = S (i, 1)
let of_bigint n = of_reduced n B.one

let of_ints n d =
  if d = 0 then raise Division_by_zero
  else if n = 0 then zero
  else if d = min_int || n = min_int then normalize (B.of_int n) (B.of_int d)
  else begin
    let n, d = if d < 0 then (-n, -d) else (n, d) in
    let g = igcd n d in
    S (n / g, d / g)
  end

let num = function S (n, _) -> B.of_int n | L (n, _) -> n
let den = function S (_, d) -> B.of_int d | L (_, d) -> d
let sign = function S (n, _) -> Stdlib.compare n 0 | L (n, _) -> B.sign n
let is_zero = function S (n, _) -> n = 0 | L _ -> false
let is_integer = function S (_, d) -> d = 1 | L (_, d) -> B.equal d B.one

let equal a b =
  match (a, b) with
  | S (an, ad), S (bn, bd) -> an = bn && ad = bd
  | L (an, ad), L (bn, bd) -> B.equal an bn && B.equal ad bd
  | S _, L _ | L _, S _ -> false

let compare a b =
  match (a, b) with
  | S (an, ad), S (bn, bd) ->
      if ad = bd then Int.compare an bn
      else begin
        let sa = Stdlib.compare an 0 and sb = Stdlib.compare bn 0 in
        if sa <> sb then Int.compare sa sb
        else
          try Int.compare (mul_ovf an bd) (mul_ovf bn ad)
          with Overflow -> big_compare a b
      end
  | _ -> big_compare a b

let neg = function
  | S (n, d) when n <> min_int -> S (-n, d)
  | t ->
      let n, d = parts t in
      of_reduced (B.neg n) d

let abs t = if sign t < 0 then neg t else t

let inv = function
  | S (0, _) -> raise Division_by_zero
  | S (n, d) when n > 0 -> S (d, n)
  | S (n, d) when n <> min_int -> S (-d, -n)
  | t ->
      let n, d = parts t in
      normalize d n

(* Sum of two small fractions, or [Overflow].  Knuth 4.5.1: with
   g = gcd(ad, bd), the numerator only shares factors of g with the
   denominator, so one small gcd reduces the result. *)
let add_small an ad bn bd =
  if ad = 1 && bd = 1 then S (add_ovf an bn, 1)
  else begin
    let g = igcd ad bd in
    if g = 1 then S (add_ovf (mul_ovf an bd) (mul_ovf bn ad), mul_ovf ad bd)
    else begin
      let t = add_ovf (mul_ovf an (bd / g)) (mul_ovf bn (ad / g)) in
      if t = 0 then zero
      else
        let g2 = igcd t g in
        S (t / g2, mul_ovf (ad / g) (bd / g2))
    end
  end

let add a b =
  match (a, b) with
  | S (an, ad), S (bn, bd) -> (
      try add_small an ad bn bd with Overflow -> big_add a b)
  | _ -> big_add a b

let sub a b =
  match (a, b) with
  | S (an, ad), S (bn, bd) when bn <> min_int -> (
      try add_small an ad (-bn) bd with Overflow -> big_add a (neg b))
  | _ -> big_add a (neg b)

(* Cross-cancel before multiplying, so the product is already reduced. *)
let mul a b =
  match (a, b) with
  | S (0, _), S _ | S _, S (0, _) -> zero
  | S (an, 1), S (bn, 1) -> ( try S (mul_ovf an bn, 1) with Overflow -> big_mul a b)
  | S (an, ad), S (bn, bd) -> (
      try
        let g1 = igcd an bd and g2 = igcd bn ad in
        S (mul_ovf (an / g1) (bn / g2), mul_ovf (ad / g2) (bd / g1))
      with Overflow -> big_mul a b)
  | _ -> big_mul a b

let div a b = mul a (inv b)
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let floor = function
  | S (n, 1) -> B.of_int n
  | S (n, d) ->
      let q = n / d in
      B.of_int (if n mod d < 0 then q - 1 else q)
  | L (n, d) ->
      let q, r = B.divmod n d in
      if B.sign r < 0 then B.sub q B.one else q

let ceil = function
  | S (n, 1) -> B.of_int n
  | S (n, d) ->
      let q = n / d in
      B.of_int (if n mod d > 0 then q + 1 else q)
  | L (n, d) ->
      let q, r = B.divmod n d in
      if B.sign r > 0 then B.add q B.one else q

let frac = function
  | S (_, 1) -> zero
  | S (n, d) ->
      (* n mod d shares no factor with d, so the result is reduced. *)
      let r = n mod d in
      S ((if r < 0 then r + d else r), d)
  | t -> sub t (of_bigint (floor t))

let to_float = function
  (* Both conversions round the exact integer to the nearest double, so
     this agrees bit for bit with the decimal route below. *)
  | S (n, d) -> float_of_int n /. float_of_int d
  | L (n, d) ->
      (* Good enough for reporting: divide as floats of the decimal
         strings.  Large values lose precision but ordering decisions
         never use this. *)
      float_of_string (B.to_string n) /. float_of_string (B.to_string d)

let of_float f =
  if not (Float.is_finite f) then invalid_arg "Rat.of_float: not finite";
  if Float.is_integer f && Float.abs f < 1e15 then of_int (int_of_float f)
  else begin
    let m, e = Float.frexp f in
    (* f = m * 2^e with 0.5 <= |m| < 1; scale mantissa to an integer. *)
    let mi = Int64.to_int (Int64.of_float (m *. 9007199254740992.0)) in
    (* 2^53 *)
    let e = e - 53 in
    let two = B.of_int 2 in
    let rec pow b k = if k = 0 then B.one else B.mul b (pow b (k - 1)) in
    if e >= 0 then of_bigint (B.mul (B.of_int mi) (pow two e))
    else make (B.of_int mi) (pow two (-e))
  end

let to_string = function
  | S (n, 1) -> string_of_int n
  | S (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | L (n, d) ->
      if B.equal d B.one then B.to_string n
      else B.to_string n ^ "/" ^ B.to_string d

let pp fmt t = Format.pp_print_string fmt (to_string t)

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div
let ( = ) = equal
let ( < ) a b = Stdlib.( < ) (compare a b) 0
let ( <= ) a b = Stdlib.( <= ) (compare a b) 0
let ( > ) a b = Stdlib.( > ) (compare a b) 0
let ( >= ) a b = Stdlib.( >= ) (compare a b) 0
