(** Analysis-gated admission: run the full rule set over a PAL's model
    and turn the outcome into a {!Flicker_service.Fleet} admission gate,
    so a fleet refuses to serve requests for a PAL that failed static
    analysis (stack overflow proofs, constant-time lint, secret-flow
    discipline) before any queue or session resources are spent. *)

type verdict = {
  key : string;  (** model key the verdict was computed for *)
  pal_name : string;
  passing : bool;
  errors : int;
  warnings : int;
  stack_bytes : int option;  (** proved worst-case stack; [None] when
                                 unbounded or the entry is undefined *)
  reasons : string list;
      (** one line per blocking finding ("rule subject: message"),
          in the canonical finding order; empty when [passing] *)
}

val evaluate :
  ?strict:bool ->
  key:string ->
  Rules.target ->
  verdict
(** Run {!Rules.run} and fold its findings and proved stack bound into
    a verdict via {!Rules.should_fail} (with [strict], warnings block
    too). A target
    whose entry is not defined fails with the driver error as the
    reason. *)

val gate : verdict -> Flicker_service.Request.t -> string option
(** The admission-gate function a failing verdict induces: every
    request is refused with the concatenated reasons; a passing verdict
    admits everything. *)

val install : Flicker_service.Fleet.t -> verdict -> unit
(** [Fleet.set_admission_gate] with {!gate}; rejections then surface as
    [analysis_rejected] in {!Flicker_service.Fleet.summary}. *)
