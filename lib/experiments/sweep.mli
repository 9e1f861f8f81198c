(** One declarative sweep: a grid of simulation cells described as data.

    A sweep is its journal name, a base configuration, ordered axes
    whose values update it, fixed journal-key fields, metrics derived
    from each cell's trial results, and the layout of its rows.  The
    rest is derived here, once for every sweep:

    - the grid is the cartesian product of the axes, outermost first;
      cell [i] runs on [Runner.stride_seed ~base:seed ~trials ~index:i];
    - trials run through [Runner.run_all ~domains:(Scale.domains ())];
    - the journal key is
      [experiment :: axis fields @ fixed fields @ [seed; trials]], the
      payload the bare aggregate when the sweep derives no metrics,
      else [{<metric>: ..., "aggregate": ...}] ({!Journal}). *)

type cell = { params : Params.t; strategy : Strategy.t }
(** What one grid point runs: trial [i] on seed [params.seed + i], with
    a fresh [strategy].  A cell runs exactly what its axes and base say;
    {!Strategy.default_params} is not applied. *)

type value = { fields : (string * Json_out.t) list; set : cell -> cell }
(** One point on an axis: its journal-key fields and its cell update. *)

type row = {
  key : (string * Json_out.t) list;  (** axis then fixed fields *)
  cell : cell;  (** as run, with the cell's strided seed *)
  metrics : (string * float) list;  (** derived metrics, in spec order *)
  aggregate : Runner.aggregate;
}

type t = {
  name : string;  (** the journal key's ["experiment"] *)
  base : Params.t;
  strategy : Strategy.t;  (** unless an axis sets it *)
  axes : value list list;  (** outermost first *)
  fixed : (string * (Params.t -> Json_out.t)) list;
      (** key fields read off each cell's parameters *)
  derive : (string * (Params.t -> Engine.result array -> float)) list;
      (** named metrics over all of a cell's trial results *)
  csv : (string * (row -> string)) list;  (** header and text per column *)
  table : row list -> string;
      (** the human-readable table: fixed-width columns, or a two-way
          pivot of mean runtime factors *)
  json : string list option;
      (** key fields the JSON export echoes and labels each aggregate
          with (names bare, numbers as [field=value]); [None]: no JSON
          export *)
}

val run :
  ?journal:Journal.t -> ?trial_timeout:float -> trials:int -> seed:int -> t ->
  row list
(** The rows in grid order.  Cells recorded in [journal] are decoded
    instead of run, new ones appended ({!Journal.cell}); [trial_timeout]
    arms the per-trial watchdog ({!Runner.run_trials}). *)

val csv : t -> row list -> string

val json : t -> row list -> Json_out.t
(** One object per row: echoed key fields, derived metrics and the
    labelled {!Export.aggregate_json}. *)

val metric : row -> string -> float

(** {2 Axes} *)

val strategies : Strategy.t list -> value list
val churn_rates : float list -> value list

val shapes : (int * int) list -> value list
(** (nodes, tasks) pairs. *)

val replica_counts : int list -> value list

val burst_counts : int list -> value list
(** One crash burst of that many machines at tick 1. *)

val strengths : int list -> value list
(** Eclipse attackers of that strength, [0] being {!Attack.none}. *)

val puzzle_costs : int list -> value list

(** {2 The sweeps} *)

val churn : t  (** Table II: Induced Churn, churn rate × network shape *)

val degrade : t  (** runtime factor per strategy versus reply-drop rate *)

val recovery : t  (** crash-burst loss versus replication degree *)

val steady : t  (** open system: strategy × arrival rate × churn *)

val attack : t  (** eclipse attacker strength × admission-puzzle cost *)

val head_to_head : t
(** Strategy family × churn × reply drops; the ChordReduce leg is
    {!Headtohead.makespans}. *)
