type options = {
  disturbance_source : string;
  disturbance_amplitude : float;
  disturbance_hz : float;
  dt : float;
  duration : float;
  ripple_factor : float;
  exclude : string list;
  monitored_sensors : string list option;
}

let default_options ~disturbance_source =
  {
    disturbance_source;
    disturbance_amplitude = 0.3;
    disturbance_hz = 5000.0;
    dt = 1e-6;
    duration = 5e-3;
    ripple_factor = 2.0;
    exclude = [];
    monitored_sensors = None;
  }

type finding = {
  component : string;
  failure_mode : string;
  sensor : string;
  golden_ripple : float;
  faulty_ripple : float;
  ratio : float;
}
[@@deriving show]

exception Golden_transient_failed of string

let nominal_of netlist id =
  match Circuit.Netlist.find netlist id with
  | Some { Circuit.Element.kind = Circuit.Element.Vsource v; _ } -> v
  | Some { Circuit.Element.kind = Circuit.Element.Isource i; _ } -> i
  | Some _ | None -> 0.0

let sensor_ids options netlist =
  let all =
    List.filter_map
      (fun (e : Circuit.Element.t) ->
        match e.Circuit.Element.kind with
        | Circuit.Element.Current_sensor | Circuit.Element.Voltage_sensor ->
            Some e.Circuit.Element.id
        | _ -> None)
      (Circuit.Netlist.elements netlist)
  in
  match options.monitored_sensors with
  | None -> all
  | Some ids -> List.filter (fun id -> List.exists (String.equal id) ids) all

let run options netlist =
  let nominal = nominal_of netlist options.disturbance_source in
  let wave t =
    nominal
    +. options.disturbance_amplitude
       *. sin (2.0 *. Float.pi *. options.disturbance_hz *. t)
  in
  Circuit.Transient.simulate
    ~waveforms:[ (options.disturbance_source, wave) ]
    netlist ~dt:options.dt ~duration:options.duration

let analyse ?(element_types = []) ~options netlist reliability =
  let golden =
    match run options netlist with
    | Ok r -> r
    | Error e ->
        raise (Golden_transient_failed (Format.asprintf "%a" Circuit.Dc.pp_error e))
  in
  let sensors = sensor_ids options netlist in
  let golden_traces =
    List.map (fun id -> (id, Circuit.Transient.sensor_trace golden id)) sensors
  in
  let type_of = Injection_fmea.type_resolver element_types in
  List.concat_map
    (fun (e : Circuit.Element.t) ->
      let id = e.Circuit.Element.id in
      if
        List.exists (String.equal id) options.exclude
        || String.equal id options.disturbance_source
      then []
      else
        match Reliability.Reliability_model.find reliability (type_of e) with
        | None -> []
        | Some entry ->
            List.concat_map
              (fun (fm : Reliability.Reliability_model.failure_mode) ->
                match fm.Reliability.Reliability_model.fault with
                | None -> []
                | Some fault -> (
                    match Circuit.Fault.inject netlist ~element_id:id fault with
                    | exception Circuit.Fault.Not_applicable _ -> []
                    | faulted -> (
                        match run options faulted with
                        | Error _ -> []
                        | Ok faulty ->
                            List.filter_map
                              (fun (sensor, golden_trace) ->
                                match
                                  Circuit.Transient.sensor_trace faulty sensor
                                with
                                | exception Not_found -> None
                                | faulty_trace ->
                                    let golden_final =
                                      Circuit.Transient.final_value golden_trace
                                    in
                                    let faulty_final =
                                      Circuit.Transient.final_value faulty_trace
                                    in
                                    let dc_shift =
                                      Float.abs (faulty_final -. golden_final)
                                      /. Float.max (Float.abs golden_final) 1e-9
                                    in
                                    (* DC-visible failures are Injection_fmea's
                                       business; only pure degradations here. *)
                                    if dc_shift > 0.2 then None
                                    else begin
                                      let golden_ripple =
                                        Circuit.Transient.ripple golden_trace
                                      in
                                      let faulty_ripple =
                                        Circuit.Transient.ripple faulty_trace
                                      in
                                      let ratio =
                                        faulty_ripple
                                        /. Float.max golden_ripple 1e-12
                                      in
                                      if ratio > options.ripple_factor then
                                        Some
                                          {
                                            component = id;
                                            failure_mode =
                                              fm.Reliability.Reliability_model.fm_name;
                                            sensor;
                                            golden_ripple;
                                            faulty_ripple;
                                            ratio;
                                          }
                                      else None
                                    end)
                              golden_traces)))
              entry.Reliability.Reliability_model.failure_modes)
    (Circuit.Netlist.elements netlist)

let pp_findings ppf findings =
  Format.fprintf ppf "@[<v>";
  if findings = [] then Format.fprintf ppf "no degradation findings@,"
  else
    List.iter
      (fun f ->
        Format.fprintf ppf
          "%s/%s degrades %s: ripple %.3g -> %.3g (x%.1f)@," f.component
          f.failure_mode f.sensor f.golden_ripple f.faulty_ripple f.ratio)
      findings;
  Format.fprintf ppf "@]"
