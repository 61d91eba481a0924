(** Pillar C — validating data as a new type of specification.

    The paper (Sec. II (C)): "One needs to check the validity of the
    data, to ensure that only sanitized data will be used in training
    ... e.g. no data containing risky driving has been introduced for
    training the maneuver of vehicles."

    The sanitizer applies declarative rules to every sample and keeps
    only samples passing all of them; the audit report is the
    certification artefact. It never looks at the recorder's
    ground-truth flag — tests compare its verdicts against that flag. *)

type rule = {
  rule_name : string;
  check : features:Linalg.Vec.t -> target:Linalg.Vec.t -> string option;
      (** [Some reason] rejects the sample *)
}

val risky_left_rule : rule
(** Rejects samples commanding a large left lateral velocity while the
    left slot is occupied ({!Highway.Risk}). *)

val risky_right_rule : rule
val extreme_action_rule : rule
(** Physically implausible labels (|lat| > 4 m/s or |lon| > 6 m/s²). *)

val in_domain_rule : rule
(** Features must lie in {!Highway.Features.domain} (sensor sanity). *)

val default_rules : rule list

type rejection = { index : int; rule_name : string; reason : string }

type report = {
  total : int;
  accepted : int;
  rejections : rejection list;  (** in sample order *)
}

val sanitize :
  ?rules:rule list -> Dataset.t -> Dataset.t * report
(** Returns the clean dataset and the audit trail. *)

val render_report : report -> string
(** Multi-line human-readable audit summary. *)
