type window = {
  index : int;
  start_tick : int;
  ticks : int;
  arrivals : int;
  completions : int;
  arrival_rate : float;
  completion_rate : float;
  queue_p50 : float;
  queue_p95 : float;
  queue_p99 : float;
  sojourn_p50 : float;
  sojourn_p95 : float;
  sojourn_p99 : float;
  sojourn_mean : float;
  sybil_min : int;
  sybil_max : int;
  sybil_mean : float;
}

(* Per-window accumulation keeps one queue length and one Sybil count
   per tick (bounded by the window length) and the window's sojourns as
   a tally: counts per sojourn length, bounded by the horizon, from
   which the percentiles read their order statistics without a sort.
   The closed windows themselves are O(1) records, so a horizon of any
   length costs horizon/window records plus one window of samples. *)
type t = {
  window : int;
  mutable index : int;
  mutable start_tick : int;
  mutable ticks : int;
  mutable arrivals : int;
  mutable completions : int;
  mutable queues : int list;
  mutable sybils : int list;
  sojourns : Tally.t;
  mutable closed : window list;  (* reverse order *)
}

let create ~window =
  if window < 1 then invalid_arg "Steady.create: window must be >= 1";
  {
    window;
    index = 0;
    start_tick = 0;
    ticks = 0;
    arrivals = 0;
    completions = 0;
    queues = [];
    sybils = [];
    sojourns = Tally.create ();
    closed = [];
  }

(* Pure: summarize the current accumulators into a window record. *)
let make_window t =
  let ticks = t.ticks in
  let queues = Array.of_list t.queues in
  Array.sort Int.compare queues;
  let queue p =
    Descriptive.order_percentile ~what:"Steady.queue" (Array.length queues)
      (fun k -> float_of_int queues.(k))
      p
  in
  (* A window in which nothing completed has no sojourn sample — NaN,
     rendered as null in JSON exports, never a fake zero. *)
  let completed = Tally.length t.sojourns > 0 in
  let sojourn p = if completed then Tally.percentile t.sojourns p else Float.nan in
  let sybil_min, sybil_max, sybil_sum =
    List.fold_left
      (fun (lo, hi, sum) s -> (min lo s, max hi s, sum + s))
      (max_int, min_int, 0) t.sybils
  in
  {
    index = t.index;
    start_tick = t.start_tick;
    ticks;
    arrivals = t.arrivals;
    completions = t.completions;
    arrival_rate = float_of_int t.arrivals /. float_of_int ticks;
    completion_rate = float_of_int t.completions /. float_of_int ticks;
    queue_p50 = queue 50.0;
    queue_p95 = queue 95.0;
    queue_p99 = queue 99.0;
    sojourn_p50 = sojourn 50.0;
    sojourn_p95 = sojourn 95.0;
    sojourn_p99 = sojourn 99.0;
    sojourn_mean = (if completed then Tally.mean t.sojourns else Float.nan);
    sybil_min = (if sybil_min = max_int then 0 else sybil_min);
    sybil_max = (if sybil_max = min_int then 0 else sybil_max);
    sybil_mean = float_of_int sybil_sum /. float_of_int ticks;
  }

let note t ~arrivals ~completions ~queue ~sybils ~sojourns =
  t.ticks <- t.ticks + 1;
  t.arrivals <- t.arrivals + arrivals;
  t.completions <- t.completions + completions;
  t.queues <- queue :: t.queues;
  t.sybils <- sybils :: t.sybils;
  List.iter (Tally.add t.sojourns) sojourns;
  if t.ticks >= t.window then begin
    t.closed <- make_window t :: t.closed;
    t.index <- t.index + 1;
    t.start_tick <- t.start_tick + t.ticks;
    t.ticks <- 0;
    t.arrivals <- 0;
    t.completions <- 0;
    t.queues <- [];
    t.sybils <- [];
    Tally.clear t.sojourns
  end

let windows t =
  let closed = List.rev t.closed in
  (* A trailing partial window (horizon not divisible by the window
     length) is reported too — its [ticks] field says how long it really
     was.  Read-only: callable mid-run. *)
  let all = if t.ticks > 0 then closed @ [ make_window t ] else closed in
  Array.of_list all
