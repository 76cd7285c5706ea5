(** privclusterd: the resident multi-tenant private-query daemon.

    One process serves many tenants over a Unix-domain or TCP socket
    speaking the {!Wire} line protocol.  Each tenant owns an isolated
    {!Engine.Service} (datasets, ledgers, telemetry); every ledger
    operation is journaled to the {!Wal} {e before} results reach the
    client, so ε/δ spend survives any crash — including [kill -9] — and
    is replayed when the tenant re-registers the dataset after restart.

    Threading: the main/accept thread multiplexes new connections; each
    connection gets a reader thread that parses, authenticates, and
    submits work; a single executor thread (see {!Admission}) runs
    everything that touches tenant state, so services, accountants and
    the WAL need no further locking.  Shedding happens at submission,
    strictly before any budget charge.

    Shutdown: {!stop} (or SIGTERM/SIGINT under {!run}) stops accepting,
    sheds new runs with [draining], finishes every accepted item,
    flushes the WAL, and closes connections — exit 0 with no work
    dropped. *)

type listen = [ `Unix of string | `Tcp of string * int ]
(** A TCP port of [0] binds an ephemeral port (see {!sockaddr}). *)

type config = {
  listen : listen;
  wal_path : string;
  tenants : Tenants.spec list;
  capacity : int;  (** Bound on the queued-run backlog. *)
  domains : int;  (** Worker domains per batch (the pool size). *)
  retries : int;
  seed : int;  (** Service base seed (a [run]'s [seed] overrides per batch). *)
  sync : bool;  (** WAL fsync per record; [false] only for benchmarks. *)
  serving_stats : bool;
      (** Collect serving telemetry (latency histograms, burn windows,
          shed counters).  Off, the [health]/[stats] verbs answer with
          empty bodies; exists chiefly for the B15 overhead baseline. *)
  trace_sample : int;
      (** Head-sample every request whose key hashes to [0 mod N]
          ([0] = off).  Deterministic (FNV-1a of tenant/verb/rid): no
          RNG is consulted, outputs are bit-identical either way. *)
  slow_threshold_ms : float;
      (** Requests at or above this executor duration get their span
          tree written to the exemplar ring. *)
  slow_log : string option;  (** Exemplar ring directory; [None] = no ring. *)
  slow_keep : int;  (** Newest-N exemplars retained in the ring. *)
  slo_rules : Obs.Slo.rule list;  (** Evaluated by the [health] verb. *)
}

val default_config : config
(** Unix socket ["privclusterd.sock"], WAL ["privclusterd.wal"], no
    tenants, capacity 64, 2 domains, 2 retries, seed 1, sync on;
    serving stats on, sampling off, slow threshold 250 ms, no slow-log
    ring, keep 64, {!Obs.Slo.default_rules}. *)

type t

val start : config -> (t, string) result
(** Recover the WAL (refusing a corrupt one), bind the socket, and spawn
    the accept and executor threads.  Returns once the daemon is
    accepting. *)

val sockaddr : t -> Unix.sockaddr
(** The bound address — resolves an ephemeral TCP port. *)

val stop : t -> unit
(** Graceful drain as described above; blocks until fully stopped.
    Idempotent. *)

val run : ?on_ready:(t -> unit) -> config -> (unit, string) result
(** {!start}, then block until SIGTERM or SIGINT, then {!stop}.  The
    foreground entry point used by [privcluster-cli serve]. *)

module For_testing : sig
  val max_request_bytes : int
  (** Longest accepted request line (8 MiB).  A connection that sends a
      longer line — or streams that many bytes with no newline at all,
      authenticated or not — gets one [bad_request] reply and is closed. *)
end
