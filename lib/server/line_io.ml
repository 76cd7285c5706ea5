type reader = {
  fd : Unix.file_descr;
  max_line : int;
  chunk : bytes;
  partial : Buffer.t;  (* the current line's bytes so far *)
  lines : string Queue.t;  (* complete lines not yet returned *)
}

let reader ?(max_line = max_int) fd =
  { fd; max_line; chunk = Bytes.create 4096; partial = Buffer.create 4096; lines = Queue.create () }

type read = Line of string | Eof | Overflow

let rec read_line r =
  match Queue.take_opt r.lines with
  | Some l -> if String.length l > r.max_line then Overflow else Line l
  | None -> (
      if Buffer.length r.partial > r.max_line then Overflow
      else
        match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
        | 0 -> Eof
        | n ->
            (* Scan the fresh chunk only: completed lines move out of the
               buffer and the trailing fragment is appended once, so no
               already-buffered prefix is ever recopied or rescanned. *)
            let start = ref 0 in
            for i = 0 to n - 1 do
              if Bytes.get r.chunk i = '\n' then begin
                Buffer.add_subbytes r.partial r.chunk !start (i - !start);
                Queue.add (Buffer.contents r.partial) r.lines;
                Buffer.reset r.partial;
                start := i + 1
              end
            done;
            Buffer.add_subbytes r.partial r.chunk !start (n - !start);
            read_line r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line r)

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0
