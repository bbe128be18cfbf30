(** The serve-mode protocol: line-delimited JSON requests against an
    open {!Store}.

    One request per line, one response per line, always a JSON object
    with an ["ok"] boolean. Malformed input (bad JSON, unknown op,
    missing fields) produces an [{"ok":false,"error":...}] response on
    the same line position — the loop never crashes on input.

    Requests ([op] field selects):
    - [insert]: ["side"] (["r"]/["s"]), ["row"] an object of attribute
      values (missing attributes are NULL). Success returns the
      matching-table entries the insertion created; a rejected insert
      returns the typed conflict (and is recorded in the store's
      conflict table).
    - [identify]: the effective matching table, entries sorted
      canonically.
    - [explain]: re-derives and renders the audit trail for every
      matched pair (["report"], human-readable text).
    - [merge], [split]: ["r_key"]/["s_key"] objects of key attribute
      values; returns the merge-log record.
    - [rollback]: inverts the latest active merge/split.
    - [snapshot]: forces a snapshot now.
    - [conflicts]: the typed conflict table.
    - [stats]: WAL offset, cardinalities, recovery and telemetry
      counters. *)

(** [handle store request] — process one request, returning the
    response. Never raises on malformed requests. *)
val handle : Store.t -> Json.t -> Json.t

(** [handle_line store line] — parse, handle, render. *)
val handle_line : Store.t -> string -> string

(** [serve ?snapshot_every store ic oc] — the request loop: read lines
    from [ic] until EOF, respond on [oc] (flushed per line). With
    [snapshot_every:n], a snapshot is written after every [n] mutating
    requests, and at EOF when a mutating request came after the last
    snapshot (periodic or explicit), so a clean shutdown leaves no WAL
    tail to replay. [n] must be positive.
    @raise Invalid_argument when [n <= 0]. *)
val serve : ?snapshot_every:int -> Store.t -> in_channel -> out_channel -> unit

(** Conversions shared with the CLI. *)

val json_of_value : Relational.Value.t -> Json.t
val value_of_json : Json.t -> Relational.Value.t
