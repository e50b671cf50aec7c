module Fleet = Flicker_service.Fleet
module Request = Flicker_service.Request

type verdict = {
  key : string;
  pal_name : string;
  passing : bool;
  errors : int;
  warnings : int;
  stack_bytes : int option;
  reasons : string list;
}

let blocking ~strict (fi : Rules.finding) =
  match fi.Rules.severity with
  | Rules.Error -> true
  | Rules.Warning -> strict
  | Rules.Info -> false

let reason_line (fi : Rules.finding) =
  if fi.Rules.location = "" then
    Printf.sprintf "%s %s: %s" fi.Rules.rule fi.Rules.subject fi.Rules.message
  else
    Printf.sprintf "%s %s @ %s: %s" fi.Rules.rule fi.Rules.subject fi.Rules.location
      fi.Rules.message

let evaluate ?(strict = false) ~key (target : Rules.target) =
  let pal_name = target.Rules.pal.Flicker_slb.Pal.name in
  match Rules.run target with
  | Error msg ->
      {
        key;
        pal_name;
        passing = false;
        errors = 1;
        warnings = 0;
        stack_bytes = None;
        reasons = [ Printf.sprintf "driver %s: %s" target.Rules.entry msg ];
      }
  | Ok { Rules.findings; absint; _ } ->
      let stack_bytes =
        match absint.Absint.stack with
        | Absint.Bounded b -> Some b
        | Absint.Unbounded -> None
      in
      let passing = not (Rules.should_fail ~strict findings) in
      {
        key;
        pal_name;
        passing;
        errors = Rules.errors findings;
        warnings = Rules.warnings findings;
        stack_bytes;
        reasons =
          (if passing then []
           else List.map reason_line (List.filter (blocking ~strict) findings));
      }

let gate verdict (_ : Request.t) =
  if verdict.passing then None
  else
    Some
      (Printf.sprintf "PAL %s (%s) failed static analysis: %s" verdict.pal_name
         verdict.key
         (String.concat "; " verdict.reasons))

let install fleet verdict = Fleet.set_admission_gate fleet (gate verdict)
