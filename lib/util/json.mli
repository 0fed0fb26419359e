(** JSON text primitives shared by every JSON rendering in the stack:
    typed errors ({!Err.to_json}), lint reports, trace lines and the
    serve wire codec all escape strings and print numbers through here. *)

val escape_into : Buffer.t -> string -> unit
(** Append the JSON string-body escape of the bytes: quote, backslash,
    [\n], [\r] and [\t] get their short escapes, other control characters
    [\uXXXX]; every other byte passes through. *)

val quote : string -> string
(** The escaped string between double quotes. *)

val number : float -> string
(** Integral floats below 1e15 print without a fractional part, others
    as the shortest decimal that parses back to the identical double. *)
