(** The daemon's tenant registry: who may connect, with what token, and
    how much concurrency each is allowed.

    A tenant owns an {!Engine.Service} of its own — its own dataset
    registry (names are namespaced per tenant by construction), its own
    telemetry, and, per dataset, its own {!Engine.Accountant} ledger.
    The registry is immutable after startup: connection threads
    authenticate against it without locking, and only the daemon's
    single executor thread ever touches a tenant's service or ledgers.

    Tenant specs come from the command line as
    [name:token[:max_in_flight]] (default cap 8). *)

type spec = { name : string; token : string; max_in_flight : int }

val spec_of_string : string -> (spec, string) result
(** Parse [name:token[:max_in_flight]]; names and tokens must be
    non-empty and colon-free, the cap positive. *)

type tenant

type t

val create :
  service:(unit -> Engine.Service.t) -> spec list -> (t, string) result
(** Build the registry, one fresh service per tenant ([service] is the
    daemon's factory, closing over domains/seed/retries).  [Error] on a
    duplicate tenant name. *)

val authenticate : t -> name:string -> token:string -> tenant option
(** Constant-time token comparison; [None] for unknown tenant or wrong
    token, deliberately indistinguishable. *)

val list : t -> tenant list

val name : tenant -> string
val max_in_flight : tenant -> int
val service : tenant -> Engine.Service.t

val slot : tenant -> Admission.counter
(** The tenant's in-flight counter ({!Admission.submit}'s [slot]). *)
