type summary = {
  n : int;
  mean : float;
  median : float;
  stddev : float;
  min : float;
  max : float;
}

let nonempty name a = if Array.length a = 0 then invalid_arg (name ^ ": empty input")

let mean a =
  nonempty "Descriptive.mean" a;
  Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let mean_int a =
  nonempty "Descriptive.mean_int" a;
  float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)

let sorted_copy a =
  let c = Array.copy a in
  Array.sort compare c;
  c

let median_of_sorted s =
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let median a =
  nonempty "Descriptive.median" a;
  median_of_sorted (sorted_copy a)

let median_int a =
  nonempty "Descriptive.median_int" a;
  median (Array.map float_of_int a)

let stddev a =
  nonempty "Descriptive.stddev" a;
  let mu = mean a in
  let acc = Array.fold_left (fun acc x -> acc +. ((x -. mu) *. (x -. mu))) 0.0 a in
  sqrt (acc /. float_of_int (Array.length a))

let stddev_int a =
  nonempty "Descriptive.stddev_int" a;
  stddev (Array.map float_of_int a)

let order_percentile ~what n nth p =
  if n < 1 then invalid_arg (what ^ ": empty input");
  if not (p >= 0.0 && p <= 100.0) then invalid_arg (what ^ ": p out of [0,100]");
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = min (lo + 1) (n - 1) in
  let frac = rank -. float_of_int lo in
  let x = nth lo in
  x +. (frac *. (nth hi -. x))

let percentile a p =
  nonempty "Descriptive.percentile" a;
  order_percentile ~what:"Descriptive.percentile" (Array.length a)
    (Array.get (sorted_copy a)) p

let summarize a =
  nonempty "Descriptive.summarize" a;
  let s = sorted_copy a in
  {
    n = Array.length a;
    mean = mean a;
    median = median_of_sorted s;
    stddev = stddev a;
    min = s.(0);
    max = s.(Array.length s - 1);
  }

let summarize_int a =
  nonempty "Descriptive.summarize_int" a;
  summarize (Array.map float_of_int a)

let pp_summary ppf { n; mean; median; stddev; min; max } =
  Format.fprintf ppf
    "n=%d mean=%.3f median=%.3f stddev=%.3f min=%.3f max=%.3f" n mean median
    stddev min max
