(* Tests for the `same serve` daemon: wire protocol round-trips,
   content-addressed fingerprints, single-flight coalescing and the full
   socket path — one warm engine serving concurrent clients. *)

let tmp_socket () =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "same-test-%d-%d.sock" (Unix.getpid ()) (Random.int 100000))

let reliability_csv m =
  match
    (Reliability.Reliability_model.to_spreadsheet m).Modelio.Spreadsheet.sheets
  with
  | { Modelio.Spreadsheet.table; _ } :: _ ->
      Modelio.Csv.to_string (table.Modelio.Csv.header :: table.Modelio.Csv.rows)
  | [] -> ""

let system_b_texts () =
  let subject = Decisive.Systems.system_b in
  let path = Filename.temp_file "serve-test" ".bd" in
  Blockdiag.Text_format.write_file path subject.Decisive.Systems.diagram;
  let diagram = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (diagram, reliability_csv subject.Decisive.Systems.reliability,
   subject.Decisive.Systems.reliability, reliability_csv)

(* ---------- protocol ---------- *)

let test_protocol_roundtrip () =
  let requests =
    [
      Serve.Protocol.Ping;
      Serve.Protocol.Stats;
      Serve.Protocol.Shutdown;
      Serve.Protocol.Analyse
        {
          Serve.Protocol.a_analysis = Serve.Protocol.Fmea;
          a_diagram = "block A {}\n";
          a_reliability = Some "type,fit\nmcu,100\n";
          a_sm = None;
          a_params = [ ("exclude", "DC1"); ("monitored", "CS1,CS2") ];
        };
      Serve.Protocol.Open_session
        {
          o_diagram = "block A {}\n";
          o_reliability = None;
          o_params = [ ("exclude", "X") ];
        };
      Serve.Protocol.Edit
        {
          e_session = "s1";
          e_diagram = None;
          e_reliability = Some "type,fit\nmcu,125\n";
        };
      Serve.Protocol.Close_session "s1";
    ]
  in
  List.iter
    (fun req ->
      let json = Serve.Protocol.request_to_json req in
      match Serve.Protocol.request_of_json json with
      | Ok req' ->
          Alcotest.(check bool) "round-trips" true (req = req')
      | Error m -> Alcotest.fail ("decode failed: " ^ m))
    requests

let test_protocol_framing_rejects_newline () =
  let buf = Buffer.create 16 in
  let oc = open_out "/dev/null" in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  ignore buf;
  match Serve.Protocol.write_frame oc "a\nb" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "embedded newline accepted"

let test_fingerprint_canonical () =
  let base params =
    {
      Serve.Protocol.a_analysis = Serve.Protocol.Fmea;
      a_diagram = "block A {}\n";
      a_reliability = None;
      a_sm = None;
      a_params = params;
    }
  in
  let fp a = Engine.Fingerprint.to_hex (Serve.Protocol.fingerprint a) in
  (* Parameter order is canonicalised away. *)
  Alcotest.(check string)
    "order-insensitive"
    (fp (base [ ("a", "1"); ("b", "2") ]))
    (fp (base [ ("b", "2"); ("a", "1") ]));
  (* Every input distinguishes. *)
  Alcotest.(check bool)
    "params distinguish" false
    (fp (base [ ("a", "1") ]) = fp (base [ ("a", "2") ]));
  Alcotest.(check bool)
    "kind distinguishes" false
    (fp (base [])
    = fp { (base []) with Serve.Protocol.a_analysis = Serve.Protocol.Fta });
  Alcotest.(check bool)
    "model distinguishes" false
    (fp (base [])
    = fp { (base []) with Serve.Protocol.a_diagram = "block B {}\n" })

(* ---------- single-flight ---------- *)

let test_singleflight_coalesces () =
  let flight = Serve.Singleflight.create () in
  let computations = Atomic.make 0 in
  let barrier = Atomic.make 0 in
  let n = 8 in
  let results = Array.make n (0, Serve.Singleflight.Led) in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            Atomic.incr barrier;
            (* Spin until everyone is launched so followers really do
               arrive while the leader is inside the computation. *)
            while Atomic.get barrier < n do Thread.yield () done;
            results.(i) <-
              Serve.Singleflight.run flight ~key:"k" (fun () ->
                  Atomic.incr computations;
                  Thread.delay 0.05;
                  42))
          ())
  in
  List.iter Thread.join threads;
  let leaders =
    Array.fold_left
      (fun acc (_, o) -> if o = Serve.Singleflight.Led then acc + 1 else acc)
      0 results
  in
  Array.iter (fun (v, _) -> Alcotest.(check int) "value shared" 42 v) results;
  (* Stragglers that miss the in-flight window each lead their own run,
     but concurrent arrivals must coalesce: strictly fewer computations
     than callers, and the leader count matches the computation count. *)
  Alcotest.(check int) "one leader per computation" (Atomic.get computations) leaders;
  Alcotest.(check bool)
    (Printf.sprintf "coalesced (%d computations for %d callers)"
       (Atomic.get computations) n)
    true
    (Atomic.get computations < n);
  Alcotest.(check int) "nothing left in flight" 0 (Serve.Singleflight.in_flight flight)

let test_singleflight_distinct_keys_do_not_coalesce () =
  let flight = Serve.Singleflight.create () in
  let v1, o1 = Serve.Singleflight.run flight ~key:"a" (fun () -> 1) in
  let v2, o2 = Serve.Singleflight.run flight ~key:"b" (fun () -> 2) in
  Alcotest.(check (pair int int)) "values" (1, 2) (v1, v2);
  Alcotest.(check bool) "both led" true
    (o1 = Serve.Singleflight.Led && o2 = Serve.Singleflight.Led)

(* ---------- end-to-end over the socket ---------- *)

let with_server f =
  let socket = tmp_socket () in
  let server =
    Serve.Server.start
      { Serve.Server.socket_path = socket; cache_dir = None; jobs = 2 }
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Serve.Server.wait server;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () -> f server socket)

let rpc client req =
  match Serve.Client.rpc client req with
  | Ok json -> json
  | Error m -> Alcotest.fail ("rpc failed: " ^ m)

let member_num name json =
  match Modelio.Json.(Option.bind (member name json) to_float) with
  | Some n -> int_of_float n
  | None -> Alcotest.fail (Printf.sprintf "response has no %S" name)

let member_str name json =
  match Modelio.Json.(Option.bind (member name json) to_str) with
  | Some s -> s
  | None -> Alcotest.fail (Printf.sprintf "response has no %S" name)

let test_server_ping_and_stats () =
  with_server @@ fun _server socket ->
  match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok client ->
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      let pong = rpc client Serve.Protocol.Ping in
      Alcotest.(check bool) "pong" true
        (Modelio.Json.(Option.bind (member "pong" pong) to_bool) = Some true);
      let stats = rpc client Serve.Protocol.Stats in
      Alcotest.(check bool) "requests counted" true (member_num "requests" stats >= 1)

let test_server_analyse_and_cache () =
  let diagram, reliability, _, _ = system_b_texts () in
  let request =
    Serve.Protocol.Analyse
      {
        Serve.Protocol.a_analysis = Serve.Protocol.Fmea;
        a_diagram = diagram;
        a_reliability = Some reliability;
        a_sm = None;
        a_params = [ ("exclude", "DC1,BAT1"); ("monitored", "CS1,CS2,VS1") ];
      }
  in
  with_server @@ fun server socket ->
  match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok client ->
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      let first = rpc client request in
      Alcotest.(check int) "exit 0" 0 (member_num "exit" first);
      Alcotest.(check bool) "has rows" true
        (String.length (member_str "output" first) > 0);
      let second = rpc client request in
      (* Identical request: served from the content-addressed cache,
         byte-identical output, no new computation. *)
      Alcotest.(check string) "bit-identical replay"
        (member_str "output" first) (member_str "output" second);
      let stats = Serve.Server.stats server in
      Alcotest.(check int) "one computation" 1 stats.Serve.Server.analyses_computed;
      Alcotest.(check int) "one cache hit" 1 stats.Serve.Server.analyses_cached

let test_server_coalesces_concurrent () =
  let diagram, reliability, _, _ = system_b_texts () in
  let request =
    Serve.Protocol.Analyse
      {
        Serve.Protocol.a_analysis = Serve.Protocol.Assess;
        a_diagram = diagram;
        a_reliability = Some reliability;
        a_sm = None;
        a_params = [ ("seed", "7"); ("trials", "200000") ];
      }
  in
  with_server @@ fun server socket ->
  let n = 4 in
  let outputs = Array.make n "" in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            match Serve.Client.one_shot ~socket request with
            | Ok json -> outputs.(i) <- member_str "output" json
            | Error m -> outputs.(i) <- "error: " ^ m)
          ())
  in
  List.iter Thread.join threads;
  let stats = Serve.Server.stats server in
  let distinct = List.sort_uniq compare (Array.to_list outputs) in
  Alcotest.(check int) "all replies identical" 1 (List.length distinct);
  Alcotest.(check int) "single solve" 1 stats.Serve.Server.analyses_computed;
  Alcotest.(check int) "followers coalesced or cached" (n - 1)
    (stats.Serve.Server.analyses_coalesced + stats.Serve.Server.analyses_cached)

let test_server_incremental_session () =
  let diagram, reliability_csv, reliability, render = system_b_texts () in
  with_server @@ fun _server socket ->
  match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok client ->
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      let opened =
        rpc client
          (Serve.Protocol.Open_session
             {
               o_diagram = diagram;
               o_reliability = Some reliability_csv;
               o_params =
                 [ ("exclude", "DC1,BAT1"); ("monitored", "CS1,CS2,VS1") ];
             })
      in
      let session = member_str "session" opened in
      let rows = member_num "rows" opened in
      Alcotest.(check bool) "table populated" true (rows > 0);
      (* A no-op edit changes nothing. *)
      let noop =
        rpc client
          (Serve.Protocol.Edit
             {
               e_session = session;
               e_diagram = None;
               e_reliability = Some reliability_csv;
             })
      in
      (match Modelio.Json.member "changed_rows" noop with
      | Some (Modelio.Json.List l) ->
          Alcotest.(check int) "no-op changes nothing" 0 (List.length l)
      | _ -> Alcotest.fail "no changed_rows in edit response");
      (* A FIT edit on the microcontroller touches only its rows, and the
         rest of the table is reused rather than re-solved. *)
      let edited =
        match Reliability.Reliability_model.find reliability "microcontroller" with
        | Some e ->
            Reliability.Reliability_model.add reliability
              { e with Reliability.Reliability_model.fit =
                  e.Reliability.Reliability_model.fit +. 50.0 }
        | None -> Alcotest.fail "no microcontroller entry"
      in
      let response =
        rpc client
          (Serve.Protocol.Edit
             {
               e_session = session;
               e_diagram = None;
               e_reliability = Some (render edited);
             })
      in
      Alcotest.(check int) "revision advanced" 2 (member_num "revision" response);
      let changed =
        match Modelio.Json.member "changed_rows" response with
        | Some (Modelio.Json.List l) -> l
        | _ -> Alcotest.fail "no changed_rows in edit response"
      in
      Alcotest.(check bool) "some rows changed" true (List.length changed > 0);
      Alcotest.(check bool) "strictly fewer than the full table" true
        (List.length changed < rows);
      (* Only components of the edited type move. *)
      let components =
        List.sort_uniq compare (List.map (member_str "component") changed)
      in
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s is a microcontroller" c)
            true
            (String.length c >= 2 && String.sub c 0 2 = "MC"))
        components;
      Alcotest.(check bool) "most rows reused" true
        (member_num "rows_reused" response > rows / 2);
      (* Unknown session ids are reported, not fatal. *)
      (match
         Serve.Client.rpc client
           (Serve.Protocol.Edit
              {
                e_session = "nope";
                e_diagram = None;
                e_reliability = Some reliability_csv;
              })
       with
      | Error m ->
          Alcotest.(check bool) "error mentions the id" true
            (String.length m > 0)
      | Ok _ -> Alcotest.fail "edit of unknown session succeeded")

(* ---------- sessions: resent diagrams ---------- *)

(* The Fig. 11 power supply, and two electrical variants of it: without
   the filter inductor (two rows fewer), and with a second source in
   parallel (parses, but the golden run is singular). *)
let psu_text =
  {|diagram psu {
  block DC1 : vsource { volts = 5; }
  block D1 : diode;
  block C1 : capacitor { farads = 1e-5; }
  block L1 : inductor { henries = 0.001; }
  block C2 : capacitor { farads = 1e-5; }
  block CS1 : current_sensor;
  block MC1 : microcontroller { ohms = 100; }
  block GND1 : ground ports (conserving a);
  connect DC1.a -> D1.a;
  connect D1.b -> C1.a;
  connect D1.b -> L1.a;
  connect L1.b -> C2.a;
  connect L1.b -> CS1.a;
  connect CS1.b -> MC1.a;
  connect MC1.b -> GND1.a;
  connect DC1.b -> GND1.a;
  connect C1.b -> GND1.a;
  connect C2.b -> GND1.a;
}
|}

let psu_rows = 9

let psu_without_l1_text =
  {|diagram psu {
  block DC1 : vsource { volts = 5; }
  block D1 : diode;
  block C1 : capacitor { farads = 1e-5; }
  block C2 : capacitor { farads = 1e-5; }
  block CS1 : current_sensor;
  block MC1 : microcontroller { ohms = 100; }
  block GND1 : ground ports (conserving a);
  connect DC1.a -> D1.a;
  connect D1.b -> C1.a;
  connect D1.b -> C2.a;
  connect D1.b -> CS1.a;
  connect CS1.b -> MC1.a;
  connect MC1.b -> GND1.a;
  connect DC1.b -> GND1.a;
  connect C1.b -> GND1.a;
  connect C2.b -> GND1.a;
}
|}

let psu_without_l1_rows = 7

let psu_singular_text =
  {|diagram psu {
  block DC1 : vsource { volts = 5; }
  block DC2 : vsource { volts = 3; }
  block D1 : diode;
  block MC1 : microcontroller { ohms = 100; }
  block GND1 : ground ports (conserving a);
  connect DC1.a -> D1.a;
  connect DC2.a -> D1.a;
  connect D1.b -> MC1.a;
  connect MC1.b -> GND1.a;
  connect DC1.b -> GND1.a;
  connect DC2.b -> GND1.a;
}
|}

(* Table II with one type's FIT raised by [delta]. *)
let table_ii_csv ?(ty = "microcontroller") delta =
  let m = Reliability.Reliability_model.table_ii in
  reliability_csv
    (match Reliability.Reliability_model.find m ty with
    | Some e ->
        Reliability.Reliability_model.add m
          { e with Reliability.Reliability_model.fit =
              e.Reliability.Reliability_model.fit +. delta }
    | None -> Alcotest.fail ("Table II has no " ^ ty))

let with_client socket f =
  match Serve.Client.connect socket with
  | Error m -> Alcotest.fail m
  | Ok client ->
      Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () ->
          f client)

let open_psu client =
  member_str "session"
    (rpc client
       (Serve.Protocol.Open_session
          {
            o_diagram = psu_text;
            o_reliability = Some (table_ii_csv 0.0);
            o_params = [ ("exclude", "DC1") ];
          }))

let edit ?diagram ?reliability session =
  Serve.Protocol.Edit
    { e_session = session; e_diagram = diagram; e_reliability = reliability }

let changed_count json =
  match Modelio.Json.member "changed_rows" json with
  | Some (Modelio.Json.List l) -> List.length l
  | _ -> Alcotest.fail "no changed_rows in edit response"

(* Resending the session's diagram byte for byte is the edit that omits
   it: the same reply, counters included, over a whole edit stream. *)
let test_session_resend_equals_omit () =
  let stream ~resend =
    with_server @@ fun _server socket ->
    with_client socket @@ fun client ->
    let session = open_psu client in
    let diagram = if resend then Some psu_text else None in
    List.map
      (fun reliability ->
        Modelio.Json.to_string
          (rpc client (edit ?diagram ~reliability session)))
      [
        table_ii_csv 50.0;
        table_ii_csv ~ty:"diode" 5.0;
        table_ii_csv ~ty:"inductor" 1.0;
        table_ii_csv 0.0;
      ]
  in
  Alcotest.(check (list string))
    "replies" (stream ~resend:false) (stream ~resend:true)

(* A rejected edit changes neither the stored text nor the diagram: the
   same bad text is rejected again (it was not recorded as the session's
   text), and an edit that omits the diagram still analyses the last
   good one. *)
let test_session_failed_edit_keeps_state () =
  with_server @@ fun _server socket ->
  with_client socket @@ fun client ->
  let session = open_psu client in
  let rejected what text =
    for _ = 1 to 2 do
      match Serve.Client.rpc client (edit ~diagram:text session) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (what ^ " accepted")
    done
  in
  rejected "unparsable diagram" "diagram psu {\n  block";
  rejected "singular diagram" psu_singular_text;
  let after = rpc client (edit ~reliability:(table_ii_csv 50.0) session) in
  Alcotest.(check int) "analysed the last good diagram" psu_rows
    (member_num "rows" after);
  Alcotest.(check int) "revision counts accepted edits only" 1
    (member_num "revision" after);
  Alcotest.(check int) "only the MCU row moved" 1 (changed_count after);
  let resent =
    rpc client
      (edit ~diagram:psu_text ~reliability:(table_ii_csv 50.0) session)
  in
  Alcotest.(check int) "resend changes nothing" 0 (changed_count resent);
  Alcotest.(check int) "resend solves nothing" 0 (member_num "solves" resent)

(* After a resend, an electrical edit is analysed against its own text —
   not the session's diagram — and so is the return to the original. *)
let test_session_electrical_edit_after_resend () =
  with_server @@ fun _server socket ->
  with_client socket @@ fun client ->
  let session = open_psu client in
  let resent = rpc client (edit ~diagram:psu_text session) in
  Alcotest.(check int) "resend changes nothing" 0 (changed_count resent);
  let cold text =
    match Serve.Handlers.parse_diagram text with
    | Error m -> Alcotest.fail m
    | Ok d ->
        let conv = Blockdiag.To_netlist.convert d in
        Fmea.Injection_fmea.analyse ~options:Decisive.Case_study.injection_options
          ~element_types:conv.Blockdiag.To_netlist.block_types
          conv.Blockdiag.To_netlist.netlist Reliability.Reliability_model.table_ii
  in
  let full = cold psu_text and without_l1 = cold psu_without_l1_text in
  let check what text ~previous table =
    let reply = rpc client (edit ~diagram:text session) in
    Alcotest.(check int) (what ^ ": rows") (List.length table.Fmea.Table.rows)
      (member_num "rows" reply);
    Alcotest.(check int) (what ^ ": changed rows")
      (List.length (Serve.Server.changed_rows ~previous table))
      (changed_count reply)
  in
  Alcotest.(check int) "the variant drops L1's rows" psu_without_l1_rows
    (List.length without_l1.Fmea.Table.rows);
  check "electrical edit" psu_without_l1_text ~previous:full without_l1;
  check "back to the original" psu_text ~previous:without_l1 full

(* Two clients editing one session at once: every edit is analysed
   against the diagram its own text describes, whichever edit ran
   before it, and the session ends consistent.  A resent-text check made
   outside the session lock fails this: the other client can swap the
   session's diagram between the check and its use. *)
let test_session_concurrent_edits () =
  with_server @@ fun _server socket ->
  let session = with_client socket open_psu in
  let rounds = 24 in
  let failures = Atomic.make [] in
  let fail m =
    let rec push () =
      let l = Atomic.get failures in
      if not (Atomic.compare_and_set failures l (m :: l)) then push ()
    in
    push ()
  in
  let client_thread requests =
    Thread.create
      (fun () ->
        with_client socket @@ fun client ->
        List.iter
          (fun (request, expected_rows) ->
            match Serve.Client.rpc client request with
            | Error m -> fail m
            | Ok reply -> (
                match Modelio.Json.(Option.bind (member "rows" reply) to_float) with
                | Some n when int_of_float n = expected_rows -> ()
                | _ ->
                    fail
                      (Printf.sprintf "expected %d rows: %s" expected_rows
                         (Modelio.Json.to_string reply))))
          requests)
      ()
  in
  let resends =
    List.init rounds (fun i ->
        ( edit ~diagram:psu_text
            ~reliability:(table_ii_csv (float_of_int (i + 1)))
            session,
          psu_rows ))
  in
  let electrical =
    List.init rounds (fun i ->
        if i mod 2 = 0 then
          (edit ~diagram:psu_without_l1_text session, psu_without_l1_rows)
        else (edit ~diagram:psu_text session, psu_rows))
  in
  List.iter Thread.join [ client_thread resends; client_thread electrical ];
  (match Atomic.get failures with
  | [] -> ()
  | m :: _ -> Alcotest.fail m);
  with_client socket @@ fun client ->
  let settle = rpc client (edit ~diagram:psu_text session) in
  Alcotest.(check int) "every edit counted" ((2 * rounds) + 1)
    (member_num "revision" settle);
  let dropped = rpc client (edit ~diagram:psu_without_l1_text session) in
  Alcotest.(check int) "text and diagram stayed together" psu_without_l1_rows
    (member_num "rows" dropped)

(* ---------- changed rows ---------- *)

let test_changed_rows_order_and_duplicates () =
  let row component failure_mode dist =
    Fmea.Table.make_row ~component ~component_fit:10.0 ~failure_mode
      ~distribution_pct:dist ~safety_related:true ()
  in
  let tbl rows = { Fmea.Table.system_name = "t"; rows } in
  let previous =
    tbl
      [
        row "A" "open" 30.0;
        row "A" "open" 30.0;
        row "A" "open" 50.0;
        row "B" "short" 70.0;
      ]
  in
  let next =
    tbl
      [
        row "C" "open" 50.0;
        row "B" "short" 70.0;
        row "A" "open" 40.0;
        row "A" "open" 30.0;
        row "A" "open" 50.0;
        row "A" "open" 30.0;
        row "B" "open" 70.0;
      ]
  in
  let names =
    List.map (fun (r : Fmea.Table.row) ->
        Printf.sprintf "%s/%s/%g" r.Fmea.Table.component r.Fmea.Table.failure_mode
          r.Fmea.Table.distribution_pct)
  in
  Alcotest.(check (list string))
    "new and moved rows, in analysis order; repeats of an old row are unchanged"
    [ "C/open/50"; "A/open/40"; "B/open/70" ]
    (names (Serve.Server.changed_rows ~previous next))

let suite =
  [
    Alcotest.test_case "protocol: request round-trip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "protocol: framing rejects newlines" `Quick
      test_protocol_framing_rejects_newline;
    Alcotest.test_case "protocol: canonical fingerprint" `Quick
      test_fingerprint_canonical;
    Alcotest.test_case "singleflight: concurrent callers coalesce" `Quick
      test_singleflight_coalesces;
    Alcotest.test_case "singleflight: distinct keys independent" `Quick
      test_singleflight_distinct_keys_do_not_coalesce;
    Alcotest.test_case "server: ping and stats" `Quick test_server_ping_and_stats;
    Alcotest.test_case "server: analyse, replay from cache" `Quick
      test_server_analyse_and_cache;
    Alcotest.test_case "server: concurrent identical requests, one solve" `Quick
      test_server_coalesces_concurrent;
    Alcotest.test_case "server: incremental session reuses rows" `Quick
      test_server_incremental_session;
    Alcotest.test_case "session: resent diagram equals omitted" `Quick
      test_session_resend_equals_omit;
    Alcotest.test_case "session: failed edit keeps state" `Quick
      test_session_failed_edit_keeps_state;
    Alcotest.test_case "session: electrical edit after resend" `Quick
      test_session_electrical_edit_after_resend;
    Alcotest.test_case "session: concurrent edits to one session" `Quick
      test_session_concurrent_edits;
    Alcotest.test_case "changed rows: order and duplicates" `Quick
      test_changed_rows_order_and_duplicates;
  ]
