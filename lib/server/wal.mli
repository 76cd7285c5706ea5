(** The journaled budget ledger: an append-only, CRC-framed, fsync'd
    write-ahead log of every {!Engine.Accountant} operation, keyed by
    (tenant, dataset).

    Differential privacy is an account that depletes; a resident service
    that forgot its spend on restart would hand every client a fresh
    budget, which is the one failure a DP daemon can never have.  The
    daemon therefore journals each ledger operation {e as it happens} (the
    record is durable before the batch's results are released) and replays
    the journal into a fresh accountant when a dataset is re-registered
    after a restart — replay re-executes the logged operation sequence
    through the ordinary {!Engine.Accountant} API, so the reconstructed
    ledger is the very state the original operations produced: same
    entries, same composed spend, same refusal count, same outstanding
    reservations.

    {2 Frame format}

    One record per line:

    {v PW1 <len:8 hex> <crc32:8 hex> <payload> \n v}

    where [payload] is a single-line JSON object of exactly [len] bytes
    and [crc32] is its IEEE CRC-32.  ε/δ values are encoded as hex-float
    strings ([%h]), so replayed charges are bit-identical to the originals
    (decimal rendering would round).  A torn final write — the crash
    window of an append — fails the length, CRC or newline check and is
    discarded at load ({!tail} reports how many bytes) and cut off the
    file when it is next opened for appending ({!open_}); a bad frame that
    is {e followed} by another valid frame is not a torn tail but
    corruption, and load refuses the file rather than silently dropping
    spend.

    {2 Recovery semantics}

    Replay applies ops in log order: accepted charges must be accepted
    again, journaled refusals must refuse again (the composition
    arithmetic is deterministic, so any divergence means the journal does
    not belong to this budget/mode and replay errors out instead of
    guessing).  A reservation with no journaled settlement — the daemon
    died between reserve and commit/release — is restored {e as a held
    reservation}: it keeps blocking headroom (the fallback may already
    have drawn noise, so releasing could hand out budget twice) but does
    not enter the spent total (it was never known to commit).  Orphaned
    reservations are visible in the ledger's [reserved] list and are never
    settled automatically.

    Nothing rewrites the journal: a start reads it once, cuts a torn tail
    and appends after it, so a start on a clean journal writes nothing to
    it.  The log only grows; bounding it needs a checkpoint record. *)

type synth = {
  n : int;
  dim : int;
  axis : int;
  frac : float;
  radius : float;
  seed : int;
}
(** The synthesis parameters a dataset was registered with.  They pin the
    base pointset: replaying Append/Retire mutations and cached results
    against a dataset generated from {e different} parameters would
    silently diverge, so re-registration must present the same ones. *)

type op =
  | Open of { mode : Engine.Accountant.mode; budget : Prim.Dp.params; synth : synth option }
      (** Budget, composition mode, and synthesis parameters the dataset
          was registered with; first record of every (tenant, dataset)
          stream.  Re-registration after a restart must present the same
          budget, mode, and parameters.  [synth = None] only on records
          journaled before parameters were pinned (a legacy journal);
          such streams skip the parameter check. *)
  | Charge of { label : string; cost : Prim.Dp.params }
  | Refuse of { label : string; cost : Prim.Dp.params; reserve : bool }
  | Reserve of { rid : int; label : string; cost : Prim.Dp.params }
  | Commit of { rid : int }
  | Release of { rid : int }
  | Append of { epoch : int; dim : int; points : float array }
      (** Epoch transition: [points] ([dim]-major, one row per point)
          appended to the dataset, producing epoch [epoch].  Coordinates
          are journaled as hex floats, so the replayed pointset — and
          therefore every index built over it — is bit-identical. *)
  | Retire of { epoch : int; from_ : int; count : int }
      (** Epoch transition: rows [[from_, from_ + count)] of the previous
          epoch's pointset retired, producing epoch [epoch]. *)
  | Cached of { epoch : int; signature : string; seed : int; stream : int; output : Obs.Json.t }
      (** A result-cache entry: the recorded answer ([output], the
          {!Engine.Job.output_to_wire} encoding) for the job whose
          {!Engine.Job.signature} is [signature], run against [epoch]
          with randomness [(seed, stream)].  Replay restores the entry so
          post-restart hits return the identical answer free of charge. *)
  | Standing of { line : string; seed : int; stream : int }
      (** A standing-query registration: [line] is the
          {!Engine.Job.spec_to_line} rendering and [seed]/[stream] the
          registration-time randomness coordinates —
          {!Engine.Service.restore_standing}'s exact inputs. *)

type record = { tenant : string; dataset : string; op : op }

val record_of_event : tenant:string -> dataset:string -> Engine.Accountant.event -> record
(** The journal entry for one accountant event (the daemon subscribes
    this composed with {!append}). *)

type tail =
  | Clean
  | Torn of int  (** A torn final write; the count is discarded bytes. *)

val load : string -> (record list * tail, string) result
(** Read and verify a journal.  A missing file is an empty journal.
    [Error] means corruption that is {e not} a torn tail (bad CRC or
    frame mid-file) or an unreadable file. *)

(** {2 Appending} *)

type t

val open_ : ?sync:bool -> ?tail:tail -> string -> (t, string) result
(** Open (creating if needed) for appending.  [sync] (default [true])
    fsyncs after every {!append} — the durability the invariant needs;
    turn it off only for benchmarks.  [tail] (default [Clean]) is what
    {!load} reported for the file: a [Torn n] tail — its last [n] bytes —
    is cut off with [ftruncate] (and fsynced when [sync]) before anything
    is appended, so the next record follows the last whole frame.  A
    [Clean] file is opened as it is. *)

val append : t -> record -> unit
(** Frame, write, and (in sync mode) fsync one record.
    @raise Unix.Unix_error on write failure — the daemon treats a
    journal it cannot write as fatal. *)

val close : t -> unit
val path : t -> string

(** {2 Replay} *)

val histories : record list -> ((string * string) * op list) list
(** Group records by (tenant, dataset), both levels in first-appearance
    order, each stream in log order. *)

val opening : op list -> (Engine.Accountant.mode * Prim.Dp.params * synth option) option
(** The stream's [Open] record, if any. *)

val replay :
  ?on_apply:(op -> (unit, string) result) ->
  op list ->
  Engine.Accountant.t ->
  (int, string) result
(** Re-execute the op stream against a fresh accountant (created by the
    caller with the {!opening} mode and budget).  Returns the number of
    orphaned reservations restored as held.  The replayed operations go
    through the ordinary accountant API, so they reach the accountant's
    own listeners — on a registered dataset that includes
    {!Engine.Accountant.trace}, which is how {!Obs.Attribution} still
    reconciles after a restart.  [on_apply]
    receives the engine-state ops ({!Append}, {!Retire}, {!Cached},
    {!Standing}) in journal order, interleaved with the budget replay —
    the daemon uses it to re-apply mutations and restore cache entries so
    the post-restart epoch and cache match the pre-crash state; an
    [Error] it returns (a mutation that does not reproduce its journaled
    epoch) aborts the replay with that message.  [Error] means the
    journal diverged — wrong budget, wrong mode, a mutation that no
    longer reproduces its journaled result, or a mangled stream. *)
