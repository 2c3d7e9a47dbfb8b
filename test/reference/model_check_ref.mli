(** Reference implementation of {!Engine.Model_check}: the original
    string-keyed checker, kept verbatim as the differential baseline for
    the interned engine (identical types, identical semantics, orders of
    magnitude slower).  Used by the differential tests, the bench-smoke
    cross-check, and the state-space bench's speedup measurement. *)

val run : Engine.Model_check.config -> Engine.Model_check.report
