(** The plan-spec grammar of [--faults], [--arrivals] and [--attack]
    ([Faults.of_string], [Arrivals.of_string], [Attack.of_string]).

    A blank spec or [off] (any case, surrounding blanks ignored) is the
    disabled plan, unchecked.  Any other spec is comma-separated
    [key=value] clauses.  Each clause splits at its first [=] and its key
    is lowercased; nothing else is trimmed or case-folded.  The clauses
    update the disabled plan in order, then the plan's check runs.  The
    first error met is returned:
    - [expected key=value, got "drop"], also for the empty clause of a
      stray comma;
    - [duplicate fault key "drop" (each key at most once)];
    - [unknown fault key "x" (valid keys: drop, crash, ...)], the keys
      in table order;
    - a value error from the readers below, or the plan's check.

    A printed spec is its clauses joined by commas. *)

type 'a clause = string * (string -> 'a -> ('a, string) result)
(** A key and how its value updates the plan. *)

val parse :
  what:string ->
  none:'a ->
  check:('a -> (unit, string) result) ->
  'a clause list ->
  string ->
  ('a, string) result
(** [parse ~what ~none ~check clauses spec]: [what] names the plan in
    the key errors ([fault]), [none] is the disabled plan. *)

val key : string -> (string -> string -> ('v, string) result) -> ('a -> 'v -> 'a) -> 'a clause
(** [key name read set]: the clause [name=v] reads [v] with [read name]
    and stores it with [set]. *)

(** {1 Readers}  Each takes the name its errors give and the value. *)

val int : string -> string -> (int, string) result
(** As [int_of_string], else [NAME: expected an integer, got "v"]. *)

val float : string -> string -> (float, string) result
(** As [float_of_string], else [NAME: expected a number, got "v"]. *)

val split : char -> string * string -> string -> string -> (int * int, string) result
(** [split sep (a, b)] reads two integers around the first [sep], the
    rest of the value whole as the second.  Without [sep]:
    [NAME: expected A<sep>B, got "v"]; the halves are named [NAME a] and
    [NAME b], lowercased ([backoff=1:2:3] gives
    [backoff cap: expected an integer, got "2:3"]). *)

val fields : string list -> string -> string -> (string array, string) result
(** [fields labels] splits the value at every [:] into exactly as many
    parts as [labels], else [NAME: expected L1:L2:..., got "v"]. *)

(** {1 Printing} *)

val emit : bool -> ('a, unit, string, string option) format4 -> 'a
(** [emit cond fmt ...] is the printed clause when [cond] holds. *)

val print : string option list -> string
(** The emitted clauses, joined by commas. *)
