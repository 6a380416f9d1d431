(** The daemon's session table: one entry per client model under
    incremental editing.

    A session holds the artefacts the incremental engine needs for
    diff-driven row reuse — the previous diagram, reliability model and
    FMEA table ({!Engine.Pipeline.previous}).  A client posts its model
    once ([open]), then streams edits; each edit re-analyses against the
    previous iteration and the server returns only the rows that
    changed.

    The table itself is mutex-guarded; each session additionally carries
    its own lock so concurrent edits to {e one} session serialise (an
    edit's reuse baseline must be the table it replaces) while edits to
    different sessions proceed in parallel. *)

type session = {
  s_id : string;
  s_lock : Mutex.t;  (** guards every mutable field below *)
  s_options : Fmea.Injection_fmea.options;
  mutable s_diagram : Blockdiag.Diagram.t;
      (** the diagram of the last successful analysis *)
  mutable s_diagram_text : string;
      (** the text [s_diagram] was parsed from.  An edit that resends
          byte-equal text reuses [s_diagram] itself instead of parsing a
          fresh value, so the engine's identity memos (netlist
          conversion, fingerprints, SSAM view) all hit and the reuse
          hook sees [prev_diagram == diagram].  Compared and updated
          under [s_lock], together with [s_diagram]. *)
  mutable s_reliability : Reliability.Reliability_model.t;
  mutable s_table : Fmea.Table.t;
      (** the analysis of [s_diagram] and [s_reliability] *)
  mutable s_revision : int;
}

type t

val create : unit -> t

val open_session :
  t ->
  options:Fmea.Injection_fmea.options ->
  diagram:Blockdiag.Diagram.t ->
  diagram_text:string ->
  reliability:Reliability.Reliability_model.t ->
  table:Fmea.Table.t ->
  session
(** Fresh session with a server-unique id ("s1", "s2", ...). *)

val find : t -> string -> session option

val close : t -> string -> bool
(** [true] if the session existed. *)

val count : t -> int
