let budget ~max_conflicts ~timeout =
  match (max_conflicts, timeout) with
  | None, None -> None
  | _ -> Some (Sat.Solver.budget ?max_conflicts ?time_limit:timeout ())

let retry = function
  | None -> None
  | Some n when n >= 2 -> Some (Smt.Escalation.ladder ~attempts:n ())
  | Some n -> failwith (Printf.sprintf "--retry wants at least 2 attempts, got %d" n)

let unsound spec =
  match String.index_opt spec ':' with
  | Some i -> (
    let kind = String.sub spec 0 i in
    let n =
      match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
      | Some n when n > 0 -> n
      | _ -> failwith (Printf.sprintf "bad --unsound period in %S (want a positive int)" spec)
    in
    match kind with
    | "drop-lit" -> Sat.Solver.Drop_learnt_literal n
    | "flip-model" -> Sat.Solver.Flip_model_bit n
    | "mute-proof" -> Sat.Solver.Mute_proof_step n
    | "force-unknown" -> Sat.Solver.Force_unknown n
    | k ->
      failwith
        (Printf.sprintf
           "unknown --unsound kind %S (drop-lit|flip-model|mute-proof|force-unknown)" k))
  | None -> failwith (Printf.sprintf "bad --unsound spec %S (want KIND:N)" spec)
