(** The paper's hand-built result tables: the §VI runtime-factor
    summaries (Random Injection, Neighbor Injection, Invitation), the
    ablations over its secondary variables, the per-strategy message
    bill, and the extensions.  Each table is a list of labelled cells;
    each row's label carries the paper's number where there is one, so
    EXPERIMENTS.md can be filled by reading the output.

    The tables themselves are entries of {!Artifacts.all}, which names
    each one's command ([summary ri], [ablate threshold], [messages])
    and [bench/main.exe] section. *)

type row =
  | Note of string  (** an indented remark line *)
  | Cell of string * Params.t * Strategy.t
      (** a labelled configuration; its [Params.seed] is ignored *)

type section = {
  title : string;  (** printed above the rows with an underline *)
  single : (string -> Engine.result -> string) option;
      (** [Some line]: each cell runs once and prints [line label result];
          [None]: each cell runs [trials] trials and prints the mean
          factor, its spread and range, and any aborted trials *)
  rows : row list;
}

val render : ?trials:int -> seed:int -> section -> string
(** The section's title and rows.  Every cell runs at [seed]; aggregate
    cells run [trials] trials (default 10, trial [i] at [seed + i]) on
    [Scale.domains ()] domains.  A cell structurally equal to an earlier
    cell of the section (same parameters and strategy) is not run again:
    it prints the earlier result under its own label. *)
