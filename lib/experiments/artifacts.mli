(** Every artifact of the paper, and every sweep beyond it, as one
    ordered list keyed by EXPERIMENTS.md's ids.

    An entry names the [dhtlb] subcommand that regenerates it, its
    [bench/main.exe] section if it has one, and its body.
    [bin/dhtlb.ml] builds every artifact subcommand from this list with
    one builder, and [bench/main.exe] prints {!sections} in order.  An
    entry's text, CSV and JSON come from one computation ({!run}). *)

type command =
  | Own of string * string  (** a subcommand of its own: name and doc *)
  | Fig of int  (** [dhtlb fig N] *)
  | Summary of string  (** [dhtlb summary NAME] *)
  | Ablate of string  (** [dhtlb ablate NAME] *)

type bench = {
  section : string;  (** its [bench/main.exe] section, a [DHTLB_ONLY] name *)
  header : string;  (** printed above the text: the paper's reference values *)
  trailer : string;  (** printed below it *)
  max_trials : int option;  (** caps the bench's trial count *)
}

type leg = {
  json_doc : string;  (** the [--json] flag's doc *)
  after : seed:int -> string * (Json_out.t -> Json_out.t);
      (** text printed below the sweep's table, and a wrapper of its JSON *)
}

type body =
  | Rows of Paper_rows.section
  | Sweep of Sweep.t * leg option
  | Render : {
      trials : bool;  (** whether [run] reads the trial count *)
      run : trials:int -> seed:int -> 'a;
      text : 'a -> string;
      csv : ('a -> string) option;
    }
      -> body  (** one computation, printed as text and optionally as CSV *)

type t = {
  id : string;  (** EXPERIMENTS.md's id: T1, F4, S-RI, A5, E8, HH, ... *)
  command : command;
  bench : bench option;
  body : body;
}

val all : t list
(** T1, F1-F3, T2, F4-F14, S-RI, S-NI, S-INV, A1-A5, E1-E8, M1, R1, H1,
    W1, then the sweeps the bench does not run: D1, R2, STREAM, ADV,
    HH. *)

val sections : (string * (bench * t) list) list
(** The bench sections in order, each with its entries in order. *)

val subcommand : command -> string * string
(** The [dhtlb] subcommand's name and one-line doc. *)

val key : t -> string
(** What its subcommand's positional argument names it by: ["4"] for
    [fig 4], ["ri"] for [summary ri]; [""] for an [Own] entry. *)

val commands : t list list
(** Every artifact subcommand's entries, in order of first appearance. *)

type flags = {
  reads_trials : bool;  (** [--trials] *)
  writes_csv : bool;  (** [--csv] *)
  json_doc : string option;  (** [--json], with its doc *)
  journal : bool;  (** [--journal] and [--trial-timeout]: a sweep *)
}

val flags : t -> flags
(** The artifact flags the entry reads; every entry reads [--seed]. *)

type output = { text : string; csv : string option; json : Json_out.t option }

val run :
  ?journal:Journal.t -> ?trial_timeout:float -> t -> trials:int -> seed:int -> output
(** Compute the entry once.  A sweep records its cells in [journal] and
    arms [trial_timeout] per trial ({!Sweep.run}). *)
