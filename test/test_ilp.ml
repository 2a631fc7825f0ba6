(* Tests for the exact ILP substrate: bignums, rationals, simplex, B&B. *)

module B = Clara_ilp.Bigint
module R = Clara_ilp.Rat
module LE = Clara_ilp.Lin_expr
module M = Clara_ilp.Model
module Sx = Clara_ilp.Simplex
module Lp = Clara_ilp.Lp
module Bb = Clara_ilp.Branch_bound

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Bigint                                                              *)

let test_bigint_basics () =
  check_str "zero" "0" (B.to_string B.zero);
  check_str "small" "42" (B.to_string (B.of_int 42));
  check_str "negative" "-7" (B.to_string (B.of_int (-7)));
  check_str "max_int" (string_of_int max_int) (B.to_string (B.of_int max_int));
  check_str "min_int" (string_of_int min_int) (B.to_string (B.of_int min_int));
  check_int "roundtrip max" max_int (B.to_int_exn (B.of_int max_int));
  check_int "roundtrip min" min_int (B.to_int_exn (B.of_int min_int))

let test_bigint_string () =
  let s = "123456789012345678901234567890" in
  check_str "of/to_string" s (B.to_string (B.of_string s));
  check_str "neg of/to_string" ("-" ^ s) (B.to_string (B.of_string ("-" ^ s)));
  check "to_int_opt overflow" true (B.to_int_opt (B.of_string s) = None)

let test_bigint_arith_large () =
  let a = B.of_string "99999999999999999999999999" in
  let b = B.of_string "12345678901234567890123456" in
  check_str "add" "112345678901234567890123455" B.(to_string (add a b));
  check_str "sub" "87654321098765432109876543" B.(to_string (sub a b));
  check_str "mul"
    "1234567890123456789012345587654321098765432109876544"
    B.(to_string (mul a b));
  let q, r = B.divmod a b in
  check_str "div" "8" (B.to_string q);
  check_str "rem" "1234568790123456879012351" (B.to_string r);
  check "a = q*b + r" true B.(equal a (add (mul q b) r))

let test_bigint_division_signs () =
  (* Truncated division: remainder carries the dividend's sign. *)
  let dm a b =
    let q, r = B.divmod (B.of_int a) (B.of_int b) in
    (B.to_int_exn q, B.to_int_exn r)
  in
  Alcotest.(check (pair int int)) "7/2" (3, 1) (dm 7 2);
  Alcotest.(check (pair int int)) "-7/2" (-3, -1) (dm (-7) 2);
  Alcotest.(check (pair int int)) "7/-2" (-3, 1) (dm 7 (-2));
  Alcotest.(check (pair int int)) "-7/-2" (3, -1) (dm (-7) (-2));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_bigint_gcd () =
  let g a b = B.to_int_exn (B.gcd (B.of_int a) (B.of_int b)) in
  check_int "gcd 12 18" 6 (g 12 18);
  check_int "gcd -12 18" 6 (g (-12) 18);
  check_int "gcd 0 5" 5 (g 0 5);
  check_int "gcd 0 0" 0 (g 0 0);
  check_int "gcd coprime" 1 (g 17 31)

(* QCheck: bigint arithmetic agrees with native int on values where both
   are exact. *)
let small_int = QCheck.int_range (-1_000_000) 1_000_000

let prop_bigint_ring =
  QCheck.Test.make ~name:"bigint add/mul agree with int" ~count:500
    (QCheck.pair small_int small_int)
    (fun (x, y) ->
      B.to_int_exn (B.add (B.of_int x) (B.of_int y)) = x + y
      && B.to_int_exn (B.mul (B.of_int x) (B.of_int y)) = x * y
      && B.to_int_exn (B.sub (B.of_int x) (B.of_int y)) = x - y)

let prop_bigint_divmod =
  QCheck.Test.make ~name:"bigint divmod agrees with int" ~count:500
    (QCheck.pair small_int small_int)
    (fun (x, y) ->
      QCheck.assume (y <> 0);
      let q, r = B.divmod (B.of_int x) (B.of_int y) in
      B.to_int_exn q = x / y && B.to_int_exn r = x mod y)

let prop_bigint_string_roundtrip =
  QCheck.Test.make ~name:"bigint decimal roundtrip" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 1 40) (QCheck.int_range 0 9))
    (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      (* Strip leading zeros for canonical comparison. *)
      let canonical =
        let s' = ref 0 in
        let n = String.length s in
        while !s' < n - 1 && s.[!s'] = '0' do incr s' done;
        String.sub s !s' (n - !s')
      in
      B.to_string (B.of_string s) = canonical)

let prop_bigint_mul_assoc =
  QCheck.Test.make ~name:"bigint mul associative/commutative (large)" ~count:200
    (QCheck.triple small_int small_int small_int)
    (fun (x, y, z) ->
      let bx = B.of_int x and by = B.of_int y and bz = B.of_int z in
      (* Blow the values up so multi-digit paths are exercised. *)
      let big = B.of_string "1000000000000000000000" in
      let bx = B.mul bx big and by = B.mul by big in
      B.equal (B.mul (B.mul bx by) bz) (B.mul bx (B.mul by bz))
      && B.equal (B.mul bx by) (B.mul by bx))

let prop_bigint_divmod_large =
  QCheck.Test.make ~name:"bigint divmod identity (large operands)" ~count:200
    (QCheck.pair small_int small_int)
    (fun (x, y) ->
      QCheck.assume (y <> 0);
      let big = B.of_string "123456789123456789123456789" in
      let a = B.mul (B.of_int x) big in
      let b = B.mul (B.of_int y) (B.of_string "987654321987") in
      let q, r = B.divmod a b in
      B.equal a (B.add (B.mul q b) r)
      && B.compare (B.abs r) (B.abs b) < 0
      && (B.is_zero r || B.sign r = B.sign a))

(* ------------------------------------------------------------------ *)
(* Rat                                                                 *)

let test_rat_normalization () =
  check "2/4 = 1/2" true R.(equal (of_ints 2 4) (of_ints 1 2));
  check "-1/-2 = 1/2" true R.(equal (of_ints (-1) (-2)) (of_ints 1 2));
  check "den positive" true (B.sign (R.den (R.of_ints 1 (-2))) > 0);
  check_str "print" "-1/2" (R.to_string (R.of_ints 1 (-2)));
  check_str "int print" "3" (R.to_string (R.of_int 3))

let test_rat_floor_ceil () =
  let f n d = B.to_int_exn (R.floor (R.of_ints n d)) in
  let c n d = B.to_int_exn (R.ceil (R.of_ints n d)) in
  check_int "floor 7/2" 3 (f 7 2);
  check_int "floor -7/2" (-4) (f (-7) 2);
  check_int "ceil 7/2" 4 (c 7 2);
  check_int "ceil -7/2" (-3) (c (-7) 2);
  check_int "floor 4/2" 2 (f 4 2);
  check_int "ceil 4/2" 2 (c 4 2)

let test_rat_of_float () =
  check "0.5 exact" true R.(equal (of_float 0.5) (of_ints 1 2));
  check "0.25 exact" true R.(equal (of_float 0.25) (of_ints 1 4));
  check "3.0 exact" true R.(equal (of_float 3.0) (of_int 3));
  check "roundtrip 0.1" true (R.to_float (R.of_float 0.1) = 0.1)

let rat_gen =
  QCheck.map
    (fun (n, d) -> R.of_ints n (if d = 0 then 1 else d))
    (QCheck.pair (QCheck.int_range (-10_000) 10_000) (QCheck.int_range (-100) 100))

let prop_rat_field =
  QCheck.Test.make ~name:"rat field laws" ~count:500 (QCheck.triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) ->
      R.(equal (add a b) (add b a))
      && R.(equal (mul a b) (mul b a))
      && R.(equal (add (add a b) c) (add a (add b c)))
      && R.(equal (mul (mul a b) c) (mul a (mul b c)))
      && R.(equal (mul a (add b c)) (add (mul a b) (mul a c)))
      && R.(equal (sub (add a b) b) a)
      && (R.is_zero a || R.(equal (mul a (inv a)) one)))

let prop_rat_order =
  QCheck.Test.make ~name:"rat order consistent with float" ~count:500
    (QCheck.pair rat_gen rat_gen)
    (fun (a, b) ->
      let cf = Stdlib.compare (R.to_float a) (R.to_float b) in
      let cr = R.compare a b in
      (* Floats of our small rats are exact enough for strict orderings;
         equal floats can only come from equal rats at these magnitudes. *)
      (cf < 0 && cr < 0) || (cf > 0 && cr > 0) || (cf = 0 && cr = 0))

let prop_rat_floor_frac =
  QCheck.Test.make ~name:"rat x = floor x + frac x, frac in [0,1)" ~count:500 rat_gen
    (fun a ->
      let fl = R.of_bigint (R.floor a) in
      R.(equal a (add fl (frac a)))
      && R.(frac a >= zero)
      && R.(frac a < one))

(* ------------------------------------------------------------------ *)
(* Native fast path vs limbs                                           *)

(* Operands straddle every representation boundary: ±2^30, ±2^31,
   ±2^60, ±2^62, ±2^63, max_int and min_int (each nudged by a few), plus
   arbitrary native ints whose sums and products overflow. *)
let pow2 k =
  let rec go acc k = if k = 0 then acc else go (B.mul_int acc 2) (k - 1) in
  go B.one k

let boundary_gen =
  let open QCheck.Gen in
  let anchor =
    oneof
      [ oneofl [ B.zero; B.of_int max_int; B.of_int min_int ];
        map2
          (fun k neg -> if neg then B.neg (pow2 k) else pow2 k)
          (oneofl [ 30; 31; 60; 62; 63 ]) bool ]
  in
  oneof
    [ map2 (fun a d -> B.add a (B.of_int d)) anchor (int_range (-3) 3);
      map B.of_int int;
      map B.of_int (int_range (-1000) 1000) ]

let big_arb = QCheck.make ~print:B.to_string boundary_gen

(* A factor above 2^62: scaling by it pushes any nonzero operand onto
   limbs, and dividing it back out recovers the exact result. *)
let k_big = B.add (pow2 62) (B.of_int 13)
let up x = B.mul x k_big
let down x = B.div x k_big

(* Structural equality: the fast and limb results must be the same
   canonical value, not merely numerically equal. *)
let same a b = Stdlib.( = ) a b

let prop_bigint_fast_vs_limbs =
  QCheck.Test.make ~name:"bigint fast path = limb path at boundaries" ~count:2000
    (QCheck.pair big_arb big_arb)
    (fun (a, b) ->
      let ka = up a and kb = up b in
      let divmod_ok =
        B.is_zero b
        ||
        let q, r = B.divmod a b and q', r' = B.divmod ka kb in
        same q q' && same r (down r')
      in
      let str_ok =
        (* to_string through limbs: append 19 decimal zeros (10^19 > 2^62)
           and strip them again. *)
        B.is_zero a
        ||
        let s = B.to_string (B.mul a (B.of_string "10000000000000000000")) in
        String.equal (B.to_string a) (String.sub s 0 (String.length s - 19))
      in
      same (B.add a b) (down (B.add ka kb))
      && same (B.sub a b) (down (B.sub ka kb))
      && same (B.mul a b) (down (down (B.mul ka kb)))
      && B.compare a b = B.compare ka kb
      && B.equal a b = B.equal ka kb
      && same (B.gcd a b) (down (B.gcd ka kb))
      && divmod_ok && str_ok
      && same (B.of_string (B.to_string a)) a)

let rat_boundary_gen =
  QCheck.Gen.map2
    (fun n d -> R.make n (if B.is_zero d then B.one else d))
    boundary_gen boundary_gen

let rat_arb = QCheck.make ~print:R.to_string rat_boundary_gen

let prop_rat_fast_vs_limbs =
  let kr = R.of_bigint k_big in
  let up x = R.mul x kr and down x = R.div x kr in
  (* An integer shift above 2^62 puts floor/ceil on limbs. *)
  let shift = pow2 64 in
  let shifted f x = B.sub (f (R.add x (R.of_bigint shift))) shift in
  QCheck.Test.make ~name:"rat fast path = limb path at boundaries" ~count:2000
    (QCheck.pair rat_arb rat_arb)
    (fun (a, b) ->
      let ka = up a and kb = up b in
      (* The limb route of to_float/to_string: decimal strings of the
         numerator and denominator. *)
      let limb_float x =
        float_of_string (B.to_string (R.num x)) /. float_of_string (B.to_string (R.den x))
      in
      let limb_string x =
        if B.equal (R.den x) B.one then B.to_string (R.num x)
        else B.to_string (R.num x) ^ "/" ^ B.to_string (R.den x)
      in
      same (R.add a b) (down (R.add ka kb))
      && same (R.sub a b) (down (R.sub ka kb))
      && same (R.mul a b) (down (down (R.mul ka kb)))
      && (R.is_zero b || same (R.div a b) (R.div ka kb))
      && R.compare a b = R.compare ka kb
      && R.equal a b = R.equal ka kb
      && same (R.floor a) (shifted R.floor a)
      && same (R.ceil a) (shifted R.ceil a)
      && Int64.equal
           (Int64.bits_of_float (R.to_float a))
           (Int64.bits_of_float (limb_float a))
      && String.equal (R.to_string a) (limb_string a)
      && same (R.make (R.num a) (R.den a)) a)

(* ------------------------------------------------------------------ *)
(* Simplex                                                             *)

let r = R.of_int
let ri = R.of_ints

(* max 3x + 2y st x + y <= 4, x + 3y <= 6, x,y >= 0  => x=4,y=0, obj 12
   (as min of negation) *)
let test_simplex_basic () =
  let rows =
    [ { Sx.coeffs = [| r 1; r 1 |]; sense = M.Le; rhs = r 4 };
      { Sx.coeffs = [| r 1; r 3 |]; sense = M.Le; rhs = r 6 } ]
  in
  let res = Sx.solve ~c:[| r (-3); r (-2) |] ~rows in
  check "optimal" true (res.Sx.status = Sx.Optimal);
  check "obj = -12" true R.(equal res.Sx.objective (r (-12)));
  check "x = 4" true R.(equal res.Sx.solution.(0) (r 4));
  check "y = 0" true R.(equal res.Sx.solution.(1) (r 0))

let test_simplex_equality () =
  (* min x + y st x + 2y = 4, x - y = 1  => x=2, y=1, obj 3 *)
  let rows =
    [ { Sx.coeffs = [| r 1; r 2 |]; sense = M.Eq; rhs = r 4 };
      { Sx.coeffs = [| r 1; r (-1) |]; sense = M.Eq; rhs = r 1 } ]
  in
  let res = Sx.solve ~c:[| r 1; r 1 |] ~rows in
  check "optimal" true (res.Sx.status = Sx.Optimal);
  check "obj 3" true R.(equal res.Sx.objective (r 3));
  check "x 2" true R.(equal res.Sx.solution.(0) (r 2));
  check "y 1" true R.(equal res.Sx.solution.(1) (r 1))

let test_simplex_infeasible () =
  (* x <= 1 and x >= 2 *)
  let rows =
    [ { Sx.coeffs = [| r 1 |]; sense = M.Le; rhs = r 1 };
      { Sx.coeffs = [| r 1 |]; sense = M.Ge; rhs = r 2 } ]
  in
  let res = Sx.solve ~c:[| r 1 |] ~rows in
  check "infeasible" true (res.Sx.status = Sx.Infeasible)

let test_simplex_unbounded () =
  (* min -x st x >= 1 : x can grow forever *)
  let rows = [ { Sx.coeffs = [| r 1 |]; sense = M.Ge; rhs = r 1 } ] in
  let res = Sx.solve ~c:[| r (-1) |] ~rows in
  check "unbounded" true (res.Sx.status = Sx.Unbounded)

let test_simplex_degenerate () =
  (* A classically degenerate LP; Bland's rule must terminate.
     min -0.75x4 + 150x5 - 0.02x6 + 6x7 (Beale's cycling example). *)
  let rows =
    [ { Sx.coeffs = [| ri 1 4; r (-60); ri (-1) 25; r 9 |]; sense = M.Le; rhs = r 0 };
      { Sx.coeffs = [| ri 1 2; r (-90); ri (-1) 50; r 3 |]; sense = M.Le; rhs = r 0 };
      { Sx.coeffs = [| r 0; r 0; r 1; r 0 |]; sense = M.Le; rhs = r 1 } ]
  in
  let res = Sx.solve ~c:[| ri (-3) 4; r 150; ri (-1) 50; r 6 |] ~rows in
  check "optimal (no cycling)" true (res.Sx.status = Sx.Optimal);
  check "obj -1/20" true R.(equal res.Sx.objective (ri (-1) 20))

let test_simplex_rational_exact () =
  (* min x st 3x >= 1  => x = 1/3 exactly *)
  let rows = [ { Sx.coeffs = [| r 3 |]; sense = M.Ge; rhs = r 1 } ] in
  let res = Sx.solve ~c:[| r 1 |] ~rows in
  check "x = 1/3" true R.(equal res.Sx.solution.(0) (ri 1 3))

(* Random LPs: feasibility of the returned point. We construct rows with
   non-negative rhs and Le sense so the origin is always feasible; optimal
   solutions must satisfy every row. *)
let prop_simplex_feasible =
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* nvars = int_range 1 4 in
        let* nrows = int_range 1 5 in
        let* rows =
          list_repeat nrows
            (let* coeffs = list_repeat nvars (int_range (-5) 5) in
             let* rhs = int_range 0 20 in
             return (coeffs, rhs))
        in
        let* c = list_repeat nvars (int_range (-5) 5) in
        return (nvars, rows, c))
  in
  QCheck.Test.make ~name:"simplex: returned point satisfies all rows" ~count:300 gen
    (fun (_nvars, rows, c) ->
      let rows' =
        List.map
          (fun (coeffs, rhs) ->
            { Sx.coeffs = Array.of_list (List.map r coeffs);
              sense = M.Le;
              rhs = r rhs })
          rows
      in
      let res = Sx.solve ~c:(Array.of_list (List.map r c)) ~rows:rows' in
      match res.Sx.status with
      | Sx.Infeasible -> false (* origin is feasible: cannot happen *)
      | Sx.Unbounded -> true
      | Sx.Optimal ->
          List.for_all
            (fun { Sx.coeffs; rhs; _ } ->
              let lhs = ref R.zero in
              Array.iteri
                (fun i ci -> lhs := R.add !lhs (R.mul ci res.Sx.solution.(i)))
                coeffs;
              R.( <= ) !lhs rhs)
            rows'
          && Array.for_all (fun x -> R.( >= ) x R.zero) res.Sx.solution
          (* objective at the optimum is <= objective at origin (= 0) *)
          && R.( <= ) res.Sx.objective R.zero)

(* ------------------------------------------------------------------ *)
(* Lp + Branch & bound                                                 *)

let test_lp_bounds () =
  (* max x + y with 1 <= x <= 3, 0 <= y <= 2, x + y <= 4 => obj 4 hit at
     e.g. x in [2,3]. *)
  let m = M.create () in
  let x = M.add_var m ~lb:(r 1) ~ub:(r 3) M.Continuous in
  let y = M.add_var m ~ub:(r 2) M.Continuous in
  M.add_constraint m LE.(add (var x) (var y)) M.Le (r 4);
  M.set_objective m M.Maximize LE.(add (var x) (var y));
  let res = Lp.solve m in
  check "optimal" true (res.Lp.status = Lp.Optimal);
  check "obj 4" true R.(equal res.Lp.objective (r 4));
  check "x within bounds" true R.(res.Lp.values.(x) >= r 1 && res.Lp.values.(x) <= r 3)

let test_lp_negative_lb () =
  (* min x with x >= -5 (via bound), x >= -2 (via row) => -2. *)
  let m = M.create () in
  let x = M.add_var m ~lb:(r (-5)) M.Continuous in
  M.add_constraint m (LE.var x) M.Ge (r (-2));
  M.set_objective m M.Minimize (LE.var x);
  let res = Lp.solve m in
  check "optimal" true (res.Lp.status = Lp.Optimal);
  check "obj -2" true R.(equal res.Lp.objective (r (-2)))

let test_lp_infeasible_box () =
  let m = M.create () in
  let _x = M.add_var m ~lb:(r 3) ~ub:(r 1) M.Continuous in
  M.set_objective m M.Minimize LE.zero;
  check "empty box infeasible" true ((Lp.solve m).Lp.status = Lp.Infeasible)

let test_bb_knapsack () =
  (* Classic 0/1 knapsack: values 60,100,120; weights 10,20,30; cap 50.
     Optimum 220 (items 2,3). *)
  let m = M.create () in
  let xs = List.init 3 (fun i -> M.add_var m ~name:(Printf.sprintf "item%d" i) M.Binary) in
  let weights = [ 10; 20; 30 ] and values = [ 60; 100; 120 ] in
  let wexpr =
    LE.sum (List.map2 (fun x w -> LE.var ~coeff:(r w) x) xs weights)
  in
  M.add_constraint m wexpr M.Le (r 50);
  M.set_objective m M.Maximize
    (LE.sum (List.map2 (fun x v -> LE.var ~coeff:(r v) x) xs values));
  let res = Bb.solve m in
  check "optimal" true (res.Bb.status = Bb.Optimal);
  check "obj 220" true R.(equal res.Bb.objective (r 220));
  (match xs with
  | [ a; b; c ] ->
      check "item0 out" true R.(equal res.Bb.values.(a) R.zero);
      check "item1 in" true R.(equal res.Bb.values.(b) R.one);
      check "item2 in" true R.(equal res.Bb.values.(c) R.one)
  | _ -> assert false)

let test_bb_integer_rounding () =
  (* max y st 2y <= 7, y integer => y = 3 (relaxation 3.5). *)
  let m = M.create () in
  let y = M.add_var m M.Integer in
  M.add_constraint m (LE.var ~coeff:(r 2) y) M.Le (r 7);
  M.set_objective m M.Maximize (LE.var y);
  let res = Bb.solve m in
  check "obj 3" true R.(equal res.Bb.objective (r 3))

let test_bb_initial_bound () =
  (* The knapsack again, seeded with a priori bounds of varying honesty
     (for a maximization, [initial_bound] is a floor the optimum is
     promised to reach). *)
  let build () =
    let m = M.create () in
    let xs = List.init 3 (fun i -> M.add_var m ~name:(Printf.sprintf "item%d" i) M.Binary) in
    let weights = [ 10; 20; 30 ] and values = [ 60; 100; 120 ] in
    M.add_constraint m
      (LE.sum (List.map2 (fun x w -> LE.var ~coeff:(r w) x) xs weights))
      M.Le (r 50);
    M.set_objective m M.Maximize
      (LE.sum (List.map2 (fun x v -> LE.var ~coeff:(r v) x) xs values));
    m
  in
  let free = Bb.solve (build ()) in
  (* A loose bound changes nothing. *)
  let loose = Bb.solve ~initial_bound:(r 100) (build ()) in
  check "loose: optimal" true (loose.Bb.status = Bb.Optimal);
  check "loose: obj 220" true R.(equal loose.Bb.objective (r 220));
  (* The bound is inclusive: promising exactly the optimum must not cut
     the optimal point, and can only shrink the tree. *)
  let exact = Bb.solve ~initial_bound:(r 220) (build ()) in
  check "exact: optimal" true (exact.Bb.status = Bb.Optimal);
  check "exact: obj 220" true R.(equal exact.Bb.objective (r 220));
  check "exact: tree no larger" true (exact.Bb.nodes <= free.Bb.nodes);
  (* An unsound bound -- promising better than any feasible point --
     empties the search; soundness is the caller's contract. *)
  check "unsound bound reports infeasible" true
    ((Bb.solve ~initial_bound:(r 221) (build ())).Bb.status = Bb.Infeasible)

let test_bb_infeasible () =
  (* x binary, x >= 1, x <= 0 contradiction via rows *)
  let m = M.create () in
  let x = M.add_var m M.Binary in
  M.add_constraint m (LE.var x) M.Ge (ri 1 2);
  M.add_constraint m (LE.var x) M.Le (ri 3 4);
  M.set_objective m M.Minimize (LE.var x);
  check "no integer point in [1/2,3/4]" true ((Bb.solve m).Bb.status = Bb.Infeasible)

(* Assignment problem vs brute force. *)
let brute_force_assignment cost =
  let n = Array.length cost in
  let rec perms acc rest =
    match rest with
    | [] -> [ List.rev acc ]
    | _ ->
        List.concat_map
          (fun x -> perms (x :: acc) (List.filter (fun y -> y <> x) rest))
          rest
  in
  let all = perms [] (List.init n Fun.id) in
  List.fold_left
    (fun best p ->
      let c = List.fold_left ( + ) 0 (List.mapi (fun i j -> cost.(i).(j)) p) in
      min best c)
    max_int all

let prop_bb_assignment =
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* n = int_range 2 4 in
        let* flat = list_repeat (n * n) (int_range 1 20) in
        return (n, flat))
  in
  QCheck.Test.make ~name:"B&B solves assignment = brute force" ~count:50 gen
    (fun (n, flat) ->
      let cost = Array.init n (fun i -> Array.init n (fun j -> List.nth flat ((i * n) + j))) in
      let m = M.create () in
      let x = Array.init n (fun _ -> Array.init n (fun _ -> M.add_var m M.Binary)) in
      for i = 0 to n - 1 do
        M.add_constraint m
          (LE.sum (List.init n (fun j -> LE.var x.(i).(j))))
          M.Eq R.one;
        M.add_constraint m
          (LE.sum (List.init n (fun j -> LE.var x.(j).(i))))
          M.Eq R.one
      done;
      let obj =
        LE.sum
          (List.concat
             (List.init n (fun i ->
                  List.init n (fun j -> LE.var ~coeff:(r cost.(i).(j)) x.(i).(j)))))
      in
      M.set_objective m M.Minimize obj;
      let res = Bb.solve m in
      res.Bb.status = Bb.Optimal
      && R.equal res.Bb.objective (r (brute_force_assignment cost)))

(* ------------------------------------------------------------------ *)
(* Bounded-variable simplex                                            *)

let test_simplex_bounds_only () =
  (* No rows at all (m = 0): the optimum sits on the bounds. *)
  let t =
    Sx.create ~c:[| r 1; r (-1) |] ~rows:[]
      ~bounds:[| (r (-2), Some (r 3)); (r 0, Some (r 5)) |]
  in
  check "optimal" true (Sx.solve_primal t = Sx.Optimal);
  check "obj -7" true R.(equal (Sx.objective_value t) (r (-7)));
  check "x at lower" true R.(equal (Sx.solution t).(0) (r (-2)));
  check "y at upper" true R.(equal (Sx.solution t).(1) (r 5));
  (* A missing upper bound under a negative cost is unbounded. *)
  let u = Sx.create ~c:[| r (-1) |] ~rows:[] ~bounds:[| (r 0, None) |] in
  check "unbounded" true (Sx.solve_primal u = Sx.Unbounded)

let test_simplex_bound_flip () =
  (* min -(x+y) st x + y <= 3 with x,y in [0,2]: the optimum needs one
     variable flipped to its upper bound without ever entering the
     basis. *)
  let t =
    Sx.create ~c:[| r (-1); r (-1) |]
      ~rows:[ { Sx.coeffs = [| r 1; r 1 |]; sense = M.Le; rhs = r 3 } ]
      ~bounds:[| (r 0, Some (r 2)); (r 0, Some (r 2)) |]
  in
  check "optimal" true (Sx.solve_primal t = Sx.Optimal);
  check "obj -3" true R.(equal (Sx.objective_value t) (r (-3)))

let test_simplex_empty_interval () =
  let t = Sx.create ~c:[| r 1 |] ~rows:[] ~bounds:[| (r 2, Some (r 1)) |] in
  check "lo > ub infeasible" true (Sx.solve_primal t = Sx.Infeasible)

(* Differential: native bounds vs the old formulation that spelled the
   box out as explicit Ge/Le unit rows over x >= 0.  Same costs, same
   rows; both solvers must agree on status and on the exact optimal
   objective (the optimal points may legitimately differ). *)
let prop_bounds_native_vs_rows =
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* nvars = int_range 1 4 in
        let* nrows = int_range 0 4 in
        let* boxes = list_repeat nvars (pair (int_range 0 3) (int_range 0 4)) in
        let* rows =
          list_repeat nrows
            (let* coeffs = list_repeat nvars (int_range (-4) 4) in
             let* sense = oneofl [ M.Le; M.Ge; M.Eq ] in
             let* rhs = int_range (-6) 12 in
             return (coeffs, sense, rhs))
        in
        let* c = list_repeat nvars (int_range (-5) 5) in
        return (boxes, rows, c))
  in
  QCheck.Test.make ~name:"bounded simplex = bounds-as-rows formulation" ~count:300 gen
    (fun (boxes, rows, c) ->
      let nvars = List.length c in
      let shared_rows =
        List.map
          (fun (coeffs, sense, rhs) ->
            { Sx.coeffs = Array.of_list (List.map r coeffs); sense; rhs = r rhs })
          rows
      in
      let bounds =
        Array.of_list (List.map (fun (lo, w) -> (r lo, Some (r (lo + w)))) boxes)
      in
      let t = Sx.create ~c:(Array.of_list (List.map r c)) ~rows:shared_rows ~bounds in
      let st = Sx.solve_primal t in
      let unit_row j v sense =
        { Sx.coeffs = Array.init nvars (fun k -> if k = j then R.one else R.zero);
          sense;
          rhs = v }
      in
      let box_rows =
        List.concat
          (List.mapi
             (fun j (lo, w) -> [ unit_row j (r lo) M.Ge; unit_row j (r (lo + w)) M.Le ])
             boxes)
      in
      let res =
        Sx.solve ~c:(Array.of_list (List.map r c)) ~rows:(shared_rows @ box_rows)
      in
      match (st, res.Sx.status) with
      | Sx.Optimal, Sx.Optimal -> R.equal (Sx.objective_value t) res.Sx.objective
      | Sx.Infeasible, Sx.Infeasible -> true
      | _ -> false (* a finite box can never be unbounded *))

(* B&B over general integer boxes (negative lower bounds included) vs
   exhaustive enumeration of every lattice point. *)
let prop_bb_box_bruteforce =
  let gen =
    QCheck.make
      QCheck.Gen.(
        let* n = int_range 1 3 in
        let* boxes = list_repeat n (pair (int_range (-2) 2) (int_range 0 3)) in
        let* m = int_range 1 3 in
        let* a = list_repeat (m * n) (int_range (-4) 4) in
        let* b = list_repeat m (int_range (-4) 10) in
        let* c = list_repeat n (int_range (-5) 5) in
        return (n, boxes, m, a, b, c))
  in
  QCheck.Test.make ~name:"B&B on integer boxes = brute force" ~count:150 gen
    (fun (n, boxes, m, a, b, c) ->
      let aij i j = List.nth a ((i * n) + j) in
      let model = M.create () in
      let xs =
        List.map
          (fun (lo, w) -> M.add_var model ~lb:(r lo) ~ub:(r (lo + w)) M.Integer)
          boxes
      in
      for i = 0 to m - 1 do
        M.add_constraint model
          (LE.sum (List.mapi (fun j x -> LE.var ~coeff:(r (aij i j)) x) xs))
          M.Le
          (r (List.nth b i))
      done;
      M.set_objective model M.Minimize
        (LE.sum (List.mapi (fun j x -> LE.var ~coeff:(r (List.nth c j)) x) xs));
      let best = ref None in
      let rec go j acc =
        if j = n then begin
          let x = List.rev acc in
          let feasible =
            List.init m (fun i ->
                List.fold_left ( + ) 0 (List.mapi (fun k xk -> aij i k * xk) x)
                <= List.nth b i)
            |> List.for_all Fun.id
          in
          if feasible then begin
            let v =
              List.fold_left ( + ) 0 (List.mapi (fun k xk -> List.nth c k * xk) x)
            in
            match !best with
            | None -> best := Some v
            | Some bv -> if v < bv then best := Some v
          end
        end
        else
          let lo, w = List.nth boxes j in
          for v = lo to lo + w do
            go (j + 1) (v :: acc)
          done
      in
      go 0 [];
      match (Bb.solve model, !best) with
      | { Bb.status = Bb.Optimal; objective; values; _ }, Some bv ->
          R.equal objective (r bv) && M.check model values
      | { Bb.status = Bb.Infeasible; _ }, None -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Warm starts and node limits                                         *)

let test_lp_rebound_matches_cold () =
  (* Re-optimizing a copied tableau after tightening one bound must
     agree exactly with a cold solve under the same bounds, and the
     warm-start counter must record that the cheap path ran. *)
  let m = M.create () in
  let x = M.add_var m ~ub:(r 4) M.Continuous in
  let y = M.add_var m ~ub:(r 4) M.Continuous in
  M.add_constraint m LE.(add (var x) (var ~coeff:(r 2) y)) M.Le (r 9);
  M.set_objective m M.Maximize LE.(add (var ~coeff:(r 3) x) (var ~coeff:(r 2) y));
  let root, r0 = Lp.root m in
  check "root optimal" true (r0.Lp.status = Lp.Optimal);
  let bounds = Array.copy (Lp.node_bounds root) in
  bounds.(x) <- (R.zero, Some (r 2));
  let warm0 =
    Clara_obs.Registry.counter_value Clara_obs.Registry.default "ilp.simplex.warm_starts"
  in
  let _, rw = Lp.rebound root ~bounds in
  let warm1 =
    Clara_obs.Registry.counter_value Clara_obs.Registry.default "ilp.simplex.warm_starts"
  in
  let rc = Lp.solve ~bounds m in
  check "warm = cold status" true (rw.Lp.status = rc.Lp.status);
  check "warm = cold objective" true R.(equal rw.Lp.objective rc.Lp.objective);
  check "warm-start counter bumped" true (warm1 > warm0)

let test_bb_node_limit () =
  (* Sum 2x_j <= 13 over 14 binaries, maximize Sum x_j: the relaxation
     is fractional at every node, so proving optimality takes many
     nodes, but a depth-first dive reaches an integer incumbent almost
     immediately.  Regression: exceeding the budget used to raise and
     throw the incumbent away. *)
  let mk () =
    let m = M.create () in
    let xs = List.init 14 (fun _ -> M.add_var m M.Binary) in
    M.add_constraint m
      (LE.sum (List.map (fun x -> LE.var ~coeff:(r 2) x) xs))
      M.Le (r 13);
    M.set_objective m M.Maximize (LE.sum (List.map LE.var xs));
    m
  in
  let full = Bb.solve (mk ()) in
  check "full solve optimal" true (full.Bb.status = Bb.Optimal);
  check "full obj 6" true R.(equal full.Bb.objective (r 6));
  let m = mk () in
  let lim = Bb.solve ~node_limit:10 m in
  check "node-limited" true (lim.Bb.status = Bb.Node_limit);
  check "incumbent found" true lim.Bb.incumbent;
  check "incumbent is feasible" true (M.check m lim.Bb.values);
  check "node budget respected" true (lim.Bb.nodes <= 10);
  (match lim.Bb.gap with
  | None -> Alcotest.fail "node-limited incumbent must carry a gap"
  | Some g ->
      check "gap nonnegative" true R.(g >= zero);
      check "true optimum within gap" true
        (R.( <= ) full.Bb.objective (R.add lim.Bb.objective g)));
  (* A budget too small to finish even one dive yields no incumbent —
     and says so rather than inventing one. *)
  let none = Bb.solve ~node_limit:1 (mk ()) in
  check "no incumbent" true (none.Bb.status = Bb.Node_limit && not none.Bb.incumbent);
  check "no gap without incumbent" true (none.Bb.gap = None)

let test_model_check () =
  let m = M.create () in
  let x = M.add_var m M.Binary in
  let y = M.add_var m ~ub:(r 5) M.Integer in
  M.add_constraint m LE.(add (var x) (var y)) M.Le (r 4);
  M.set_objective m M.Maximize LE.(add (var x) (var y));
  check "feasible point" true (M.check m [| R.one; r 3 |]);
  check "violates row" false (M.check m [| R.one; r 4 |]);
  check "violates integrality" false (M.check m [| R.one; ri 1 2 |]);
  check "violates binary ub" false (M.check m [| r 2; r 1 |])

let test_model_interleaved_access () =
  (* Reads between appends, across the growable array's resizes. *)
  let m = M.create () in
  let kinds = [| M.Continuous; M.Integer; M.Binary |] in
  let expect v =
    let t = kinds.(v mod 3) in
    let lb, ub =
      match t with
      | M.Binary -> (R.zero, Some R.one)
      | M.Continuous | M.Integer -> (r (-v), if v mod 2 = 0 then Some (r v) else None)
    in
    (Printf.sprintf "v%d" v, t, lb, ub)
  in
  let bound_eq (l, u) (l', u') =
    R.equal l l'
    && match (u, u') with
       | None, None -> true
       | Some a, Some b -> R.equal a b
       | _ -> false
  in
  for v = 0 to 49 do
    let name, t, lb, ub = expect v in
    let id = M.add_var m ~name ~lb ?ub t in
    check_int "dense id" v id;
    check_int "count" (v + 1) (M.num_vars m);
    for w = 0 to v do
      let name, t, lb, ub = expect w in
      check_str "name" name (M.var_name m w);
      check "type" true (M.var_type m w = t);
      check "bounds" true (bound_eq (M.var_bounds m w) (lb, ub))
    done
  done;
  check "bad id rejected" true
    (match M.var_name m 50 with _ -> false | exception Invalid_argument _ -> true)

(* The per-term presolve the one-sum version replaced: each variable's
   rest-of-row activity is refolded for every term. *)
module Reference_presolve = struct
  let activity bounds terms =
    List.fold_left
      (fun acc (v, c) ->
        match acc with
        | None -> None
        | Some a -> (
            let lb, ub = bounds.(v) in
            let s = R.sign c in
            if s = 0 then Some a
            else if s > 0 then Some (R.add a (R.mul c lb))
            else match ub with Some u -> Some (R.add a (R.mul c u)) | None -> None))
      (Some R.zero) terms

  let run ~max_passes model =
    let nv = M.num_vars model in
    let bounds = Array.init nv (M.var_bounds model) in
    let is_int v = M.var_type model v <> M.Continuous in
    let infeasible = ref false and changed = ref true in
    let round_int v =
      if is_int v then begin
        let lb, ub = bounds.(v) in
        bounds.(v) <-
          (R.of_bigint (R.ceil lb), Option.map (fun u -> R.of_bigint (R.floor u)) ub)
      end
    in
    let tighten_lb v x =
      let lb, ub = bounds.(v) in
      if R.( > ) x lb then begin
        bounds.(v) <- (x, ub);
        round_int v;
        changed := true
      end
    in
    let tighten_ub v x =
      let lb, ub = bounds.(v) in
      if match ub with None -> true | Some u -> R.( < ) x u then begin
        bounds.(v) <- (lb, Some x);
        round_int v;
        changed := true
      end
    in
    let rows = ref [] in
    M.iter_constraints model (fun ~name:_ e sense rhs ->
        let terms = LE.terms e in
        let neg = List.map (fun (v, c) -> (v, R.neg c)) terms in
        match sense with
        | M.Le -> rows := (terms, rhs) :: !rows
        | M.Ge -> rows := (neg, R.neg rhs) :: !rows
        | M.Eq -> rows := (terms, rhs) :: (neg, R.neg rhs) :: !rows);
    Array.iteri (fun v _ -> round_int v) bounds;
    let pass () =
      List.iter
        (fun (terms, rhs) ->
          (match activity bounds terms with
          | Some mn when R.( > ) mn rhs -> infeasible := true
          | _ -> ());
          List.iter
            (fun (v, c) ->
              let rest = List.filter (fun (v', _) -> v' <> v) terms in
              match activity bounds rest with
              | None -> ()
              | Some mn ->
                  let limit = R.div (R.sub rhs mn) c in
                  if R.sign c > 0 then tighten_ub v limit else tighten_lb v limit)
            terms)
        !rows;
      Array.iter
        (fun (lb, ub) ->
          match ub with Some u when R.( < ) u lb -> infeasible := true | _ -> ())
        bounds
    in
    let passes = ref 0 in
    while !changed && (not !infeasible) && !passes < max_passes do
      changed := false;
      incr passes;
      pass ()
    done;
    if !infeasible then None else Some bounds
end

let prop_presolve_one_sum_vs_reference =
  let gen =
    QCheck.Gen.(
      let var =
        triple (int_range 0 2) (int_range (-3) 3)
          (opt ~ratio:0.7 (int_range 0 8))
      in
      let row nv =
        triple
          (list_size (int_range 1 nv)
             (pair (int_range 0 (nv - 1))
                (map2 (fun n d -> (if n = 0 then 1 else n), d) (int_range (-6) 6) (int_range 1 3))))
          (int_range 0 2) (int_range (-10) 20)
      in
      int_range 1 7 >>= fun nv ->
      quad (return nv) (list_repeat nv var) (list_size (int_range 1 6) (row nv)) bool)
  in
  let print (nv, _, rows, p) =
    Printf.sprintf "%d vars, %d rows, passes %d" nv (List.length rows) (if p then 10 else 3)
  in
  QCheck.Test.make ~name:"one-sum presolve = per-term reference" ~count:1000
    (QCheck.make ~print gen) (fun (_, vars, rows, long) ->
      let m = M.create () in
      let xs =
        List.map
          (fun (kind, lb, span) ->
            let ub = Option.map (fun s -> r (lb + s - 1)) span in
            match kind with
            | 0 -> M.add_var m ~lb:(r lb) ?ub M.Continuous
            | 1 -> M.add_var m ~lb:(r lb) ?ub M.Integer
            | _ -> M.add_var m M.Binary)
          vars
        |> Array.of_list
      in
      List.iter
        (fun (terms, sense, rhs) ->
          let e =
            LE.of_terms (List.map (fun (v, (n, d)) -> (xs.(v), ri n d)) terms)
          in
          let sense = match sense with 0 -> M.Le | 1 -> M.Ge | _ -> M.Eq in
          M.add_constraint m e sense (ri rhs 2))
        rows;
      let max_passes = if long then 10 else 3 in
      let bound_eq (l, u) (l', u') =
        Stdlib.( = ) l l'
        && match (u, u') with
           | None, None -> true
           | Some a, Some b -> Stdlib.( = ) a b
           | _ -> false
      in
      match (Clara_ilp.Presolve.run ~max_passes m, Reference_presolve.run ~max_passes m) with
      | Clara_ilp.Presolve.Proven_infeasible, None -> true
      | Clara_ilp.Presolve.Tightened b, Some b' -> Array.for_all2 bound_eq b b'
      | _ -> false)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [ Alcotest.test_case "bigint basics" `Quick test_bigint_basics;
    Alcotest.test_case "bigint strings" `Quick test_bigint_string;
    Alcotest.test_case "bigint large arithmetic" `Quick test_bigint_arith_large;
    Alcotest.test_case "bigint division signs" `Quick test_bigint_division_signs;
    Alcotest.test_case "bigint gcd" `Quick test_bigint_gcd;
    Alcotest.test_case "rat normalization" `Quick test_rat_normalization;
    Alcotest.test_case "rat floor/ceil" `Quick test_rat_floor_ceil;
    Alcotest.test_case "rat of_float" `Quick test_rat_of_float;
    Alcotest.test_case "simplex basic max" `Quick test_simplex_basic;
    Alcotest.test_case "simplex equalities" `Quick test_simplex_equality;
    Alcotest.test_case "simplex infeasible" `Quick test_simplex_infeasible;
    Alcotest.test_case "simplex unbounded" `Quick test_simplex_unbounded;
    Alcotest.test_case "simplex degenerate (Beale)" `Quick test_simplex_degenerate;
    Alcotest.test_case "simplex exact rationals" `Quick test_simplex_rational_exact;
    Alcotest.test_case "lp bounds" `Quick test_lp_bounds;
    Alcotest.test_case "lp negative lower bound" `Quick test_lp_negative_lb;
    Alcotest.test_case "lp empty box" `Quick test_lp_infeasible_box;
    Alcotest.test_case "b&b knapsack" `Quick test_bb_knapsack;
    Alcotest.test_case "b&b integer rounding" `Quick test_bb_integer_rounding;
    Alcotest.test_case "b&b infeasible" `Quick test_bb_infeasible;
    Alcotest.test_case "b&b initial bound cutoff" `Quick test_bb_initial_bound;
    Alcotest.test_case "simplex bounds only (m = 0)" `Quick test_simplex_bounds_only;
    Alcotest.test_case "simplex bound flip" `Quick test_simplex_bound_flip;
    Alcotest.test_case "simplex empty interval" `Quick test_simplex_empty_interval;
    Alcotest.test_case "lp warm restart = cold solve" `Quick test_lp_rebound_matches_cold;
    Alcotest.test_case "b&b node limit keeps incumbent" `Quick test_bb_node_limit;
    Alcotest.test_case "model check" `Quick test_model_check;
    Alcotest.test_case "model reads interleaved with add_var" `Quick
      test_model_interleaved_access ]
  @ qsuite
      [ prop_bigint_ring;
        prop_bigint_divmod;
        prop_bigint_string_roundtrip;
        prop_bigint_mul_assoc;
        prop_bigint_divmod_large;
        prop_rat_field;
        prop_rat_order;
        prop_rat_floor_frac;
        prop_bigint_fast_vs_limbs;
        prop_rat_fast_vs_limbs;
        prop_presolve_one_sum_vs_reference;
        prop_simplex_feasible;
        prop_bounds_native_vs_rows;
        prop_bb_box_bruteforce;
        prop_bb_assignment ]
