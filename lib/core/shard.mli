(** Key-space sharding, budgeted spill-to-disk buffers, and the ordered
    verdict sink behind streaming output.

    The blocked pipeline is embarrassingly partitionable by blocking
    key: a rule (or the K_Ext join) can only relate tuples whose key
    projections are {e equal}, so hashing the key value assigns every
    bucket — and with it every candidate pair — to exactly one shard.
    Shards carry {e independent} work: they are processed one at a time
    (one resident hash table per domain, the out-of-core configuration),
    in chunks of shards scheduled onto the {!Parallel} domain pool, with
    the buffered shard inputs spilling to temp files when they exceed a
    memory budget. That is what takes the pair-space sweeps from
    memory-bound to out-of-core ({!Blocking.fired}, {!Identify.run}).

    Because every row's key lives in exactly one shard, emitting each
    shard's results into its own {!Sink} part and merging the parts by
    row index reproduces the serial row-major output exactly, whatever
    the shard count {e or} the number of domains processing shards — the
    merge discipline that keeps sharded execution observationally
    identical to [shards = 1], with the parts spilling past a budget
    instead of a materialised list. *)

(** A blocking/join key: the projected attribute values. *)
type key = Relational.Value.t list

(** [router ~shards key] — the shard owning [key], in [0, shards).
    Deterministic across runs and processes (no hash randomisation).
    @raise Invalid_argument when [shards <= 0]. *)
val router : shards:int -> key -> int

(** [router_codes ~shards codes] — as {!router} for an interned
    storage-code key ({!Relational.Columnar.key_opt}). Code equality is
    value equality, so equal keys land in the same shard; deterministic
    within a process run.
    @raise Invalid_argument when [shards <= 0]. *)
val router_codes : shards:int -> int array -> int

(** A cheap byte estimate of a key (or any value list) for budget
    accounting: boxed scalars a couple of words, strings their length
    plus a header. Honest to a small constant factor, O(values) cheap —
    deliberately {e not} [Obj.reachable_words]. {!Spill} calibrates it
    against real marshalled sizes as batches hit disk. *)
val estimate_values : Relational.Value.t list -> int

(** [estimate_codes codes] — the byte estimate of an interned code key
    (one word per code plus a header). *)
val estimate_codes : int array -> int

(** Append-only buffers that overflow to a temp file.

    Items accumulate in memory until the running byte estimate reaches
    the budget, at which point the whole buffer is marshalled to the
    buffer's temp file as one batch. {!Spill.iter} replays items in
    {e insertion order} (spilled batches first — they are strictly
    older — then the in-memory remainder), which is what preserves the
    ascending-index order the sharded engines rely on.

    {b Temp files.} Created under [$TMPDIR] (read at file-creation
    time, not process start), removed by {!Spill.close} and by an
    [at_exit] sweep covering abnormal exits that skip the orderly
    cleanup path.

    {b Calibration.} Caller-supplied byte estimates are compared with
    the actual marshalled batch sizes; once observed, the flush
    threshold uses the estimate scaled by the actual/estimated ratio,
    clamped to [0.5, 2.0]. {!Spill.estimate_error_pct} reports the
    observed error. *)
module Spill : sig
  type 'a t

  (** [create ?budget ()] — unbounded in memory when [budget] is
      omitted; otherwise spills every time the calibrated buffered
      estimate reaches [budget] bytes.
      @raise Invalid_argument when [budget <= 0]. *)
  val create : ?budget:int -> unit -> 'a t

  (** [add t ~bytes x] — append [x], charging [bytes] against the
      budget. *)
  val add : 'a t -> bytes:int -> 'a -> unit

  (** Items added so far (buffered + spilled). *)
  val length : 'a t -> int

  (** Flush events so far — [> 0] iff the buffer went out-of-core. *)
  val spills : 'a t -> int

  (** Total {e estimated} bytes written to disk. *)
  val spilled_bytes : 'a t -> int

  (** Total {e actual} marshalled bytes written to disk. *)
  val actual_spilled_bytes : 'a t -> int

  (** Largest calibrated in-memory footprint the buffer ever held —
      bounded by the budget (plus one item) when one was given. *)
  val peak_bytes : 'a t -> int

  (** [abs (actual - estimated) * 100 / estimated] over everything
      spilled so far; [None] before the first flush. *)
  val estimate_error_pct : 'a t -> int option

  (** The backing temp file, if the buffer has spilled. Diagnostic. *)
  val file_path : 'a t -> string option

  (** [iter t f] — every item in insertion order. May be called more
      than once; the buffer remains intact. *)
  val iter : 'a t -> ('a -> unit) -> unit

  (** [reader t] — a sequential cursor over the same stream {!iter}
      replays, holding at most one marshalled batch resident. The
      cursor must be drained (or the process exited) to release its
      file handle; the buffer must not be written while a cursor is
      live. *)
  val reader : 'a t -> unit -> 'a option

  (** Remove the temp file, if any. The buffer must not be used after.
      Idempotent; never raises on a missing file. *)
  val close : 'a t -> unit

  (** Temp files currently registered for the [at_exit] sweep (i.e.
      open spill files process-wide). Diagnostic. *)
  val live_files : unit -> int

  (** The exit sweep, runnable eagerly (it is also registered with
      [at_exit]): shuts the {!Parallel} domain pool down {e first} —
      pinning the ordering so no worker can still be draining a spill
      file when it is unlinked — then removes every registered temp
      file. Buffers whose files are swept must not be used after. *)
  val sweep : unit -> unit
end

(** An ordered, budgeted, multi-part verdict sink: one {!Spill} per
    producer (a shard, or a row-range chunk), written independently —
    each part has exactly one writer, so parts may be filled from pool
    domains without locks — and replayed in a deterministic order on
    the consuming domain. The budget splits evenly across parts, so
    {!Sink.peak_bytes} (the sum of per-part peaks, an upper bound on
    the true simultaneous footprint) stays under the budget while any
    overflow goes to disk. *)
module Sink : sig
  type 'a t

  (** [create ?budget ~parts ()] — [parts] independent spill buffers,
      each budgeted at [budget / parts] (floor 1024) bytes when
      [budget] is given.
      @raise Invalid_argument when [parts <= 0]. *)
  val create : ?budget:int -> parts:int -> unit -> 'a t

  val parts : 'a t -> int

  (** [add t ~part ~bytes x] — append [x] to [part]. Safe to call
      concurrently for {e distinct} parts. *)
  val add : 'a t -> part:int -> bytes:int -> 'a -> unit

  val length : 'a t -> int
  val spills : 'a t -> int
  val spilled_bytes : 'a t -> int

  (** Sum of per-part peak footprints — an upper bound on the sink's
      simultaneous in-memory verdict bytes. *)
  val peak_bytes : 'a t -> int

  (** Byte-weighted {!Spill.estimate_error_pct} across all parts;
      [None] if nothing spilled. *)
  val estimate_error_pct : 'a t -> int option

  (** [iter_ordered t f] — every item, parts in ascending index order,
      insertion order within each part. For row-range parts this is
      exactly the serial row-major order. *)
  val iter_ordered : 'a t -> ('a -> unit) -> unit

  val fold_ordered : 'a t -> 'b -> ('b -> 'a -> 'b) -> 'b

  (** [iter_merged ~index t f] — k-way merge of the parts by ascending
      [index], each part already ascending (ties broken by part index).
      For key-sharded parts carrying row indices this reproduces the
      serial row-major order, holding one batch per part resident. *)
  val iter_merged : index:('a -> int) -> 'a t -> ('a -> unit) -> unit

  (** Close every part. Idempotent. *)
  val close : 'a t -> unit
end
