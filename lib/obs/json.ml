type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec emit buf ~indent ~depth v =
  let pad d = if indent then Buffer.add_string buf (String.make (2 * d) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x ->
      if Float.is_nan x || Float.abs x = Float.infinity then Buffer.add_string buf "null"
      else Buffer.add_string buf (Printf.sprintf "%.12g" x)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i item ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          emit buf ~indent ~depth:(depth + 1) item)
        items;
      nl ();
      pad depth;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, item) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (depth + 1);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf (if indent then "\": " else "\":");
          emit buf ~indent ~depth:(depth + 1) item)
        fields;
      nl ();
      pad depth;
      Buffer.add_char buf '}'

let to_string ?(indent = true) v =
  let buf = Buffer.create 256 in
  emit buf ~indent ~depth:0 v;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------

   A plain recursive-descent parser for the subset of JSON the emitter
   above produces (which is all of standard JSON).  Numbers that look like
   OCaml ints parse to [Int], everything else to [Float]; [\uXXXX] escapes
   are decoded to UTF-8 (surrogate pairs included). *)

exception Parse_error of int * string

(* Recursion depth is the one parser cost not bounded by input length
   alone: without a cap, a line made only of '[' costs time superlinear
   in its length.  The deepest document the program writes nests far
   less (json.mli). *)
let max_depth = 512

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, got %c" c c')
    | None -> fail (Printf.sprintf "expected %c, got end of input" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let add_utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let h = String.sub s !pos 4 in
    if not (String.for_all (function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false) h)
    then fail "malformed \\u escape";
    let v = int_of_string ("0x" ^ h) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  let c1 = hex4 () in
                  if c1 >= 0xD800 && c1 <= 0xDBFF then begin
                    (* High surrogate: a low surrogate must follow. *)
                    if
                      !pos + 2 <= n
                      && s.[!pos] = '\\'
                      && s.[!pos + 1] = 'u'
                    then begin
                      pos := !pos + 2;
                      let c2 = hex4 () in
                      if c2 >= 0xDC00 && c2 <= 0xDFFF then
                        add_utf8 buf
                          (0x10000 + ((c1 - 0xD800) lsl 10) + (c2 - 0xDC00))
                      else fail "invalid low surrogate"
                    end
                    else fail "lone high surrogate"
                  end
                  else add_utf8 buf c1
              | c -> fail (Printf.sprintf "invalid escape \\%c" c));
              go ()
          )
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    (* A run of digits; JSON wants at least one wherever a number has
       one. *)
    let rec digits () =
      match peek () with
      | Some ('0' .. '9') ->
          advance ();
          digits ()
      | _ -> ()
    in
    let some_digits () =
      let from = !pos in
      digits ();
      if !pos = from then fail "malformed number"
    in
    let int_start = !pos in
    some_digits ();
    (* JSON forbids leading zeros: 0 is fine, 01 is not. *)
    if !pos - int_start > 1 && s.[int_start] = '0' then fail "leading zero in number";
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      some_digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        some_digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else match int_of_string_opt text with Some i -> Int i | None -> Float (float_of_string text)
  in
  let open_nested depth =
    if depth >= max_depth then fail (Printf.sprintf "nesting deeper than %d" max_depth);
    advance ()
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        open_nested depth;
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or } in object"
          in
          Obj (fields [])
        end
    | Some '[' ->
        open_nested depth;
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ] in array"
          in
          List (items [])
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) -> Error (Printf.sprintf "at offset %d: %s" p msg)

(* --- accessors ----------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let to_list = function List l -> Some l | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function String s -> Some s | _ -> None
