module Json = Tmk_util.Json

let arg_to_json = function
  | Event.Int n -> Json.Int n
  | Event.Bool v -> Json.Bool v
  | Event.Str s -> Json.String s
  | Event.Ints a -> Json.List (Array.to_list (Array.map (fun n -> Json.Int n) a))

let record_to_json (r : Sink.record) =
  Json.Obj
    (("t", Json.Int r.r_time)
    :: ("pid", Json.Int r.r_pid)
    :: ("ev", Json.String (Event.name r.r_ev))
    :: List.map (fun (k, v) -> (k, arg_to_json v)) (Event.args r.r_ev))

let record_to_string r = Json.to_string (record_to_json r)

let to_string sink =
  let b = Buffer.create 4096 in
  Sink.iter
    (fun r ->
      Json.to_buffer b (record_to_json r);
      Buffer.add_char b '\n')
    sink;
  Buffer.contents b

let write oc sink =
  Sink.iter
    (fun r ->
      output_string oc (record_to_string r);
      output_char oc '\n')
    sink

(* Decoding: the generic parser, then the record shape on top.  Shape
   errors point past the end of the line, where decoding stopped. *)

let parse_line line =
  let fail msg =
    raise (Json.Parse_error (Printf.sprintf "%s at byte %d" msg (String.length line)))
  in
  let fields =
    match Json.of_string line with Json.Obj fields -> fields | _ -> fail "expected object"
  in
  let int_field k =
    match List.assoc_opt k fields with
    | Some (Json.Int v) -> v
    | _ -> fail (Printf.sprintf "missing integer field %S" k)
  in
  let str_field k =
    match List.assoc_opt k fields with
    | Some (Json.String v) -> v
    | _ -> fail (Printf.sprintf "missing string field %S" k)
  in
  let time = int_field "t" and pid = int_field "pid" and ev_name = str_field "ev" in
  let arg_of k = function
    | Json.Int n -> Event.Int n
    | Json.Bool v -> Event.Bool v
    | Json.String s -> Event.Str s
    | Json.List items ->
      let int_of = function
        | Json.Int n -> n
        | _ -> fail (Printf.sprintf "non-integer item in field %S" k)
      in
      Event.Ints (Array.of_list (List.map int_of items))
    | _ -> fail (Printf.sprintf "unsupported value for field %S" k)
  in
  let args =
    List.filter_map
      (fun (k, v) -> if k = "t" || k = "pid" || k = "ev" then None else Some (k, arg_of k v))
      fields
  in
  match Event.of_args ev_name args with
  | Some ev -> { Sink.r_time = time; r_pid = pid; r_ev = ev }
  | None -> fail (Printf.sprintf "unknown or malformed event %S" ev_name)

let read_channel ic =
  let sink = Sink.create () in
  let lineno = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.length line > 0 then begin
         let r =
           try parse_line line
           with Json.Parse_error msg ->
             raise (Json.Parse_error (Printf.sprintf "line %d: %s" !lineno msg))
         in
         Sink.emit sink ~time:r.Sink.r_time ~pid:r.Sink.r_pid r.Sink.r_ev
       end
     done
   with End_of_file -> ());
  sink

let read_file path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read_channel ic)
