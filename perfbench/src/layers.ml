(* Calls into the program's layers, each wrapped in a span named after
   the layer.  The traced replays and the layer probes are built from
   these; with tracing off they are plain calls. *)

let tracer = Trace.create ()

let span name f = Trace.span tracer name f

(* Work counts taken at the same boundaries, during traced passes only. *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 16

let count name v =
  if tracer.Trace.enabled then
    Hashtbl.replace counts name (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let maximum name v =
  if tracer.Trace.enabled then
    Hashtbl.replace counts name (Float.max v (Option.value ~default:0.0 (Hashtbl.find_opt counts name)))

(* ---------- blockdiag / modelio ---------- *)

let parse_diagram text = span "blockdiag.parse" (fun () -> Blockdiag.Text_format.parse text)

let read_diagram path =
  span "blockdiag.parse" (fun () -> Blockdiag.Text_format.parse_file path)

let to_netlist d = span "blockdiag.to_netlist" (fun () -> Blockdiag.To_netlist.convert d)

let to_ssam d = span "blockdiag.to_ssam" (fun () -> Blockdiag.Transform.to_ssam_model d)

let parse_reliability text =
  span "modelio.reliability_csv" (fun () ->
      Reliability.Reliability_model.of_spreadsheet
        (Modelio.Spreadsheet.of_csv ~name:"reliability" (Modelio.Csv.parse text)))

(* Frame encode + decode of a request, as client and daemon do it. *)
let frame_roundtrip request =
  span "modelio.json" (fun () ->
      let line = Modelio.Json.to_string (Serve.Protocol.request_to_json request) in
      match Serve.Protocol.request_of_json (Modelio.Json.parse line) with
      | Ok r -> r
      | Error m -> failwith ("frame decode: " ^ m))

let encode_response json = span "modelio.json" (fun () -> Modelio.Json.to_string json)

(* ---------- engine ---------- *)

let fingerprints d r (netlist : Circuit.Netlist.t) =
  span "engine.fingerprint" (fun () ->
      ignore (Engine.Fingerprint.diagram d);
      ignore (Engine.Fingerprint.reliability_model r);
      ignore (Engine.Fingerprint.netlist netlist))

let protocol_fingerprint a =
  span "engine.protocol_fingerprint" (fun () -> Serve.Protocol.fingerprint a)

let injection_fmea engine ?previous ~options d r =
  let table =
    span "engine.injection_fmea" (fun () ->
        Engine.Pipeline.injection_fmea engine ?previous ~options d r)
  in
  count "fmea.rows" (float_of_int (List.length table.Fmea.Table.rows));
  table

(* ---------- ssam ---------- *)

let diff ~old_model ~new_model =
  span "ssam.diff" (fun () -> Ssam.Diff.analyse ~old_model ~new_model)

(* ---------- circuit / numeric ---------- *)

let circuit_prepare netlist =
  let p = span "circuit.prepare" (fun () -> Circuit.Dc.prepare netlist) in
  let dense = Circuit.Dc.backend_used p = `Dense in
  count "circuit.dense_prepares" (if dense then 1.0 else 0.0);
  count "circuit.sparse_prepares" (if dense then 0.0 else 1.0);
  maximum "circuit.unknowns" (float_of_int (Circuit.Dc.size p));
  p

let circuit_factorise p =
  span "circuit.factorise" (fun () ->
      match Circuit.Dc.factorise p with
      | Ok g -> g
      | Error e -> Format.kasprintf failwith "golden solve: %a" Circuit.Dc.pp_error e)

let circuit_inject g ~element_id fault =
  span "circuit.inject" (fun () -> Circuit.Dc.inject g ~element_id fault)

(* A few injections spread over the netlist's resistive elements. *)
let sample_injections g (netlist : Circuit.Netlist.t) ~count =
  let candidates =
    List.filter_map
      (fun (e : Circuit.Element.t) ->
        match e.Circuit.Element.kind with
        | Circuit.Element.Resistor _ | Circuit.Element.Load _ -> Some e.Circuit.Element.id
        | _ -> None)
      (Circuit.Netlist.elements netlist)
    |> Array.of_list
  in
  let n = Array.length candidates in
  if n > 0 then
    for k = 0 to count - 1 do
      let id = candidates.(k * n / count) in
      ignore (circuit_inject g ~element_id:id Circuit.Fault.Open_circuit)
    done

(* ---------- fmea ---------- *)

let fmea_prepare ~options netlist =
  span "fmea.prepare" (fun () -> Fmea.Injection_fmea.prepare ~options netlist)

let fmea_classify ~options ?element_types ~prepared netlist r =
  let table =
    span "fmea.classify" (fun () ->
        Fmea.Injection_fmea.analyse ~options ?element_types ~prepared netlist r)
  in
  count "fmea.rows" (float_of_int (List.length table.Fmea.Table.rows));
  table

let fmea_render table = span "fmea.render" (fun () -> Serve.Handlers.table_report table)

(* Rows classified one by one on the calling domain. *)
let fmea_rows ~prepared injections =
  List.map
    (fun inj -> span "fmea.row" (fun () -> Fmea.Injection_fmea.injection_row prepared inj))
    injections

(* ---------- fta / assess ---------- *)

let fta_lower_diagram ~reliability d =
  span "fta.lower" (fun () ->
      match Fta.From_ssam.of_diagram ~reliability d with
      | tree -> tree
      | exception Fta.From_ssam.Cyclic _ ->
          Fta.From_ssam.generate (Decisive.Api.functional_root ~reliability d))

let assess_compile tree = span "assess.compile" (fun () -> Assess.Program.compile tree)

let assess_run config tree = span "assess.mc" (fun () -> Assess.Mc.run config tree)

(* [words] tape passes over fixed indicator words. *)
let assess_eval program ~words =
  let n = Array.length (Assess.Program.events program) in
  let rng = Rng.make 1 in
  let vars = Array.init n (fun _ -> Int64.to_int (Rng.next64 rng) land Assess.Program.all_lanes) in
  let scratch = Assess.Program.scratch program in
  span "assess.eval" (fun () ->
      let acc = ref 0 in
      for _ = 1 to words do
        acc := !acc lxor Assess.Program.eval program scratch ~vars
      done;
      !acc)
