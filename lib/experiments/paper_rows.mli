(** The paper's hand-built result tables as data: the §VI runtime-factor
    summaries (Random Injection, Neighbor Injection, Invitation), the
    ablations over its secondary variables, the per-strategy message
    bill, and the extensions.  Each row's label carries the paper's
    number where there is one, so EXPERIMENTS.md can be filled by
    reading the output.

    [dhtlb summary NAME] renders the sections of group ["summaries"],
    [dhtlb messages] the section named ["messages"], and [dhtlb ablate
    NAME] every other section; [bench/main.exe] prints each group in
    order. *)

type row =
  | Note of string  (** an indented remark line *)
  | Cell of string * Params.t * Strategy.t
      (** a labelled configuration; its [Params.seed] is ignored *)

type section = {
  name : string;  (** CLI name, e.g. ["ri"] or ["failure-churn"] *)
  group : string;  (** [bench/main.ml] section: summaries, ablations or extensions *)
  title : string;  (** printed above the rows with an underline *)
  single : (string -> Engine.result -> string) option;
      (** [Some line]: each cell runs once and prints [line label result];
          [None]: each cell runs [trials] trials and prints the mean
          factor, its spread and range, and any aborted trials *)
  rows : row list;
}

val sections : section list
(** Every table, in [bench/main.ml] order. *)

val groups : string list
(** The distinct groups of {!sections}, in order. *)

val render : ?trials:int -> seed:int -> section -> string
(** The section's title and rows.  Every cell runs at [seed]; aggregate
    cells run [trials] trials (default 10, trial [i] at [seed + i]) on
    [Scale.domains ()] domains.  A cell structurally equal to an earlier
    cell of the section (same parameters and strategy) is not run again:
    it prints the earlier result under its own label. *)
