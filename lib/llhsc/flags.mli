(** Decoders for the verdict-affecting pipeline flags, shared by the
    CLI and by fleet workers replanning a shipped spec, so both turn the
    same flag values into the same solver settings.  Bad values raise
    [Failure] with the CLI's message (an input error, exit 2). *)

(** [--max-conflicts] / [--solver-timeout] as a per-query budget;
    [None] when neither is set. *)
val budget : max_conflicts:int option -> timeout:float option -> Sat.Solver.budget option

(** [--retry N]: an escalation ladder of [N >= 2] attempts. *)
val retry : int option -> Smt.Escalation.t option

(** [--unsound KIND:N], e.g. ["drop-lit:3"]. *)
val unsound : string -> Sat.Solver.unsound_mutation
