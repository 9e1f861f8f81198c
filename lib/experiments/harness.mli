(** Shared helpers for experiment tables. *)

val p : ?seed:int -> int -> int -> Params.t
(** [p nodes tasks] is {!Params.default} with the given seed — the
    baseline every experiment table perturbs. *)

val aggregate : ?trials:int -> Params.t -> Strategy.t -> Runner.aggregate
(** Multi-trial run of one (parameters, strategy) cell. *)

val row :
  label:string -> Runner.aggregate -> string
(** One formatted table row: label, mean±sd factor, range, abort count. *)

val header : string -> string
(** Section header with an underline. *)
