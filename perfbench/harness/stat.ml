(* Order statistics and ratios the benchmark reports.  Everything here is
   pure so the self-tests can pin the arithmetic down exactly. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* 1-based nearest rank of percentile [p] in a sample of [n]:
   ceil(p/100 * n), clamped to [1, n]. *)
let rank ~n p =
  if n <= 0 then invalid_arg "Stat.rank: empty sample";
  let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n -. 1e-9)) in
  max 1 (min n r)

let percentile xs p =
  let a = sorted xs in
  a.(rank ~n:(Array.length a) p - 1)

(* Samples strictly above the nearest-rank percentile's position: the
   "cells beyond" a tail percentile. *)
let beyond ~n p = n - rank ~n p

(* Conventional median: mean of the two middle values for even sizes. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stat.median: empty sample";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio num den = if den = 0. then Float.nan else num /. den

(* |predicted - simulated| / simulated, in percent. *)
let rel_err_pct ~predicted ~simulated =
  100. *. Float.abs (predicted -. simulated) /. simulated
