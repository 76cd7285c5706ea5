(** Newline-delimited reads and whole writes on a file descriptor: the
    one line reader behind the daemon's connections and the client, and
    the one [write_all] of both and of the WAL. *)

type reader

val reader : ?max_line:int -> Unix.file_descr -> reader
(** Read lines from [fd].  [max_line] bounds a line's length in bytes
    (default: unbounded). *)

type read = Line of string | Eof | Overflow

val read_line : reader -> read
(** The next line, without its ['\n'].  [Eof] at the end of the stream,
    also when it cuts a line short (the fragment is dropped); [Overflow]
    once a line, complete or not, exceeds [max_line].  Each read scans
    only the bytes it just received, so a line of [L] bytes costs O(L)
    however many reads it spans.  Raises [Unix.Unix_error] on a read
    error other than [EINTR]. *)

val write_all : Unix.file_descr -> string -> unit
(** Write the whole string, however many writes that takes.  Raises
    [Unix.Unix_error]. *)
