(** The [LOCSAMPLE_*] environment variables, each declared once.

    One rule holds for every variable: unset or set-but-empty means the
    default, and any other value must parse — a value that does not is a
    named error, never a silent default.  A declaration is both the
    variable's accessor ({!get}, which raises) and its startup check
    ({!check_all}, which returns the error), so the two cannot accept
    different values.  Both report a rejection as
    [NAME="value": reason].

    Every {!declare} also registers the variable, in the {!Metrics}
    registry pattern: a binary's {!check_all} covers every variable of
    every module it links, in module-initialisation order.  The CLI and
    the bench driver call it once, before any subcommand or section
    runs, and exit 2 with its message. *)

type 'a t

val declare :
  string -> default:(unit -> 'a) -> (string -> ('a, string) result) -> 'a t
(** [declare name ~default parse]: [parse] sees the raw value (a parser
    that wants it trimmed trims it) and returns the reason on rejection.
    [default] runs at each {!get} of an unset variable, so it may read
    the core count or the temp dir lazily. *)

val get : 'a t -> 'a
(** The variable's value: [default ()] when unset or empty, else the
    parse.  Raises [Invalid_argument "NAME=\"value\": reason"] on a
    value the parser rejects. *)

val check_all : unit -> (unit, string) result
(** Parse every declared variable in declaration order; the first
    rejection's message, as {!get} would raise it. *)

(** {1 Shared parsers} *)

val int_at_least : int -> string -> (int, string) result
(** A trimmed integer [>= min]: ["expected an integer >= min"]. *)

val dir : string -> (string, string) result
(** A path (untrimmed) that is a directory or does not exist yet: a
    path that exists and is not a directory would fail deep inside the
    first write under it. *)
