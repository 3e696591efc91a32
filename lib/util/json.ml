type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* %.15g strips trailing zeros, so the first precision that reads back
   is the shortest decimal; at most 17 digits are ever needed. *)
let float_lexeme x =
  let rec go p =
    let s = Printf.sprintf "%.*g" p x in
    if p >= 17 || float_of_string s = x then s else go (p + 1)
  in
  let s = go 15 in
  if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float x when Float.is_finite x -> Buffer.add_string b (float_lexeme x)
  | Float _ -> Buffer.add_string b "null"
  | String s -> add_string b s
  | List vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b v)
      vs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        add_string b k;
        Buffer.add_char b ':';
        to_buffer b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

let to_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string v);
      output_char oc '\n')

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c)
  in
  let parse_int () =
    let start = !pos in
    if peek () = '-' then advance ();
    let digits = !pos in
    while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
      advance ()
    done;
    if !pos = digits then fail "expected integer";
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None ->
      pos := start;
      fail "integer out of range"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\255' when !pos >= n -> fail "unterminated string"
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char b '"'; advance ()
        | '\\' -> Buffer.add_char b '\\'; advance ()
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'r' -> Buffer.add_char b '\r'; advance ()
        | 'u' ->
          advance ();
          if !pos + 4 > n then fail "truncated \\u escape";
          let code =
            match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
            | Some c -> c
            | None -> fail "bad \\u escape"
          in
          if code > 0xFF then fail "non-latin \\u escape";
          pos := !pos + 4;
          Buffer.add_char b (Char.chr code)
        | _ -> fail "unknown escape");
        go ()
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let expect_word w v =
    let len = String.length w in
    if !pos + len <= n && String.sub s !pos len = w then begin
      pos := !pos + len;
      v
    end
    else fail ("expected " ^ w)
  in
  (* [items close item] parses "item (, item)* close" after the opener. *)
  let items close item =
    if peek () = close then begin
      advance ();
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        match peek () with
        | ',' -> advance (); go acc
        | c when c = close -> advance (); List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec value () =
    match peek () with
    | '"' -> String (parse_string ())
    | 't' -> expect_word "true" (Bool true)
    | 'f' -> expect_word "false" (Bool false)
    | 'n' -> expect_word "null" Null
    | '[' -> advance (); List (items ']' value)
    | '{' ->
      advance ();
      Obj
        (items '}' (fun () ->
             let k = parse_string () in
             expect ':';
             (k, value ())))
    | _ -> Int (parse_int ())
  in
  let v = value () in
  if !pos <> n then fail "trailing bytes after value";
  v
