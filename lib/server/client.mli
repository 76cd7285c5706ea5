(** Blocking client for the privclusterd {!Wire} protocol.

    One connection per client; requests are sent synchronously and the
    reply matched by id.  Errors split into transport failures
    ([`Transport] — the socket died or the reply was unparseable) and
    protocol errors ([`Server] — a typed {!Wire.error} from the daemon,
    e.g. [Rejected Queue_full], which provably charged nothing). *)

type t

type fail = [ `Transport of string | `Server of Wire.error ]

val fail_message : fail -> string

val connect :
  Daemon.listen -> tenant:string -> token:string -> (t, fail) result
(** Connect and complete the [hello] exchange. *)

val close : t -> unit

val request : t -> Wire.request -> (Obs.Json.t, fail) result
(** Send one request, wait for its reply. *)

(** Convenience wrappers over {!request}: *)

val register :
  t ->
  dataset:string ->
  ?n:int ->
  ?dim:int ->
  ?axis:int ->
  ?frac:float ->
  ?radius:float ->
  ?seed:int ->
  budget:Prim.Dp.params ->
  ?mode:Engine.Accountant.mode ->
  unit ->
  (Obs.Json.t, fail) result
(** Defaults mirror the CLI batch command: [n = 3000], [dim = 2],
    [axis = 256], [frac = 0.5], [radius = 0.05], [seed = 1],
    [mode = Basic]. *)

val run : t -> dataset:string -> ?seed:int -> jobs:string -> unit -> (Obs.Json.t, fail) result

val append :
  t ->
  dataset:string ->
  n:int ->
  seed:int ->
  ?frac:float ->
  ?radius:float ->
  unit ->
  (Obs.Json.t, fail) result
(** Append [n] synthetic planted-ball points ([frac = 0.5],
    [radius = 0.05] by default), advancing the dataset's epoch. *)

val retire : t -> dataset:string -> from_:int -> count:int -> (Obs.Json.t, fail) result
(** Retire rows [[from_, from_ + count)], advancing the epoch. *)

val epoch : t -> dataset:string -> (Obs.Json.t, fail) result
(** Current epoch, size, index backend, and cache statistics. *)

val standing :
  t ->
  dataset:string ->
  id:string ->
  t_fraction:float ->
  eps:float ->
  delta:float ->
  periods:int ->
  ?seed:int ->
  unit ->
  (Obs.Json.t, fail) result
(** Register a standing 1-cluster query: [eps]/[delta] is the {e total}
    budget, reserved up front as [periods] equal slices. *)

val settle :
  t ->
  dataset:string ->
  action:Wire.settle_action ->
  ?label:string ->
  unit ->
  (Wire.settle_reply, fail) result
(** Commit or release reservations orphaned by a crash; [label] narrows
    the settlement to one reservation label. *)

val ledger : t -> dataset:string -> (Obs.Json.t, fail) result

val metrics : t -> (string, fail) result
(** The Prometheus text body itself. *)

val health : t -> (Obs.Slo.status * Obs.Slo.verdict list * Obs.Json.t, fail) result
(** Overall status (the worst across rules), the per-rule verdicts, and
    the raw reply (carries [draining]). *)

val stats : t -> (Obs.Json.t, fail) result
(** The full serving-telemetry dump ({!Serving.stats_json}). *)

module For_testing : sig
  val datasets : t -> (Obs.Json.t, fail) result
  val ping : t -> (Obs.Json.t, fail) result
end
