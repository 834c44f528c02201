(* Summary statistics the benchmark reports. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* --- the Harrell-Davis quantile ------------------------------------------------ *)

(* Lanczos approximation of log Gamma (g = 7, n = 9), x > 0. *)
let log_gamma x =
  let c =
    [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028; 771.32342877765313;
       -176.61502916214059; 12.507343278686905; -0.13857109526572012;
       9.9843695780195716e-6; 1.5056327351493116e-7 |]
  in
  let x = x -. 1.0 in
  let a = ref c.(0) in
  let t = x +. 7.5 in
  for i = 1 to 8 do
    a := !a +. (c.(i) /. (x +. float_of_int i))
  done;
  (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

(* Continued fraction of the incomplete beta function (modified Lentz). *)
let beta_cf a b x =
  let tiny = 1e-300 in
  let clamp d = if Float.abs d < tiny then tiny else d in
  let c = ref 1.0 and d = ref (1.0 /. clamp (1.0 -. ((a +. b) *. x /. (a +. 1.0)))) in
  let h = ref !d in
  let m = ref 1 and fin = ref false in
  while (not !fin) && !m <= 10_000 do
    let fm = float_of_int !m in
    let step num =
      d := 1.0 /. clamp (1.0 +. (num *. !d));
      c := clamp (1.0 +. (num /. !c));
      let del = !d *. !c in
      h := !h *. del;
      del
    in
    ignore (step (fm *. (b -. fm) *. x /. ((a +. (2.0 *. fm) -. 1.0) *. (a +. (2.0 *. fm)))));
    let del = step (-.(a +. fm) *. (a +. b +. fm) *. x /. ((a +. (2.0 *. fm)) *. (a +. (2.0 *. fm) +. 1.0))) in
    if Float.abs (del -. 1.0) < 1e-15 then fin := true;
    incr m
  done;
  !h

(* Regularized incomplete beta function I_x(a, b). *)
let beta_inc a b x =
  if x <= 0.0 then 0.0
  else if x >= 1.0 then 1.0
  else
    let front =
      exp
        (log_gamma (a +. b) -. log_gamma a -. log_gamma b +. (a *. log x) +. (b *. log (1.0 -. x)))
    in
    if x < (a +. 1.0) /. (a +. b +. 2.0) then front *. beta_cf a b x /. a
    else 1.0 -. (front *. beta_cf b a (1.0 -. x) /. b)

(* Harrell-Davis estimate of quantile [q] of a sorted, non-empty array: a
   Beta-weighted mean of all order statistics. A latency mix has clusters
   (one per query shape) with gaps between them; a quantile that falls in a
   gap jumps from one cluster's edge to the other's from run to run, and
   this estimate does not. *)
let hd_quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: no samples";
  let alpha = q *. float_of_int (n + 1) and beta = (1.0 -. q) *. float_of_int (n + 1) in
  let acc = ref 0.0 and prev = ref 0.0 in
  for i = 1 to n do
    let cdf = beta_inc alpha beta (float_of_int i /. float_of_int n) in
    acc := !acc +. ((cdf -. !prev) *. a.(i - 1));
    prev := cdf
  done;
  !acc

let quantile xs q = hd_quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let mean = function
  | [] -> invalid_arg "Stats.mean: no samples"
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  if List.exists (fun x -> not (x > 0.0)) xs then
    invalid_arg "Stats.geomean: every sample must be positive";
  exp (mean (List.map log xs))

(* Percentiles in per mille, so that rank arithmetic stays exact. *)
let ladder = [ 500; 900; 990; 999 ]

(* Samples ranked strictly above the nearest-rank [pm]-per-mille
   percentile of [n] samples. *)
let beyond ~n pm = n - (((pm * n) + 999) / 1000)

(* The highest percentile of the ladder with at least ten samples beyond
   it: the tail a run of [n] samples can report without resting on a
   handful of outliers. [None] below twenty samples. *)
let highest_percentile n =
  List.fold_left (fun acc pm -> if beyond ~n pm >= 10 then Some pm else acc) None ladder
