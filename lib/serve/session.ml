type session = {
  s_id : string;
  s_lock : Mutex.t;
  s_options : Fmea.Injection_fmea.options;
  mutable s_diagram : Blockdiag.Diagram.t;
  mutable s_diagram_text : string;
  mutable s_reliability : Reliability.Reliability_model.t;
  mutable s_table : Fmea.Table.t;
  mutable s_revision : int;
}

type t = {
  lock : Mutex.t;
  sessions : (string, session) Hashtbl.t;
  mutable next : int;
}

let create () =
  { lock = Mutex.create (); sessions = Hashtbl.create 16; next = 0 }

let open_session t ~options ~diagram ~diagram_text ~reliability ~table =
  Mutex.lock t.lock;
  t.next <- t.next + 1;
  let s =
    {
      s_id = Printf.sprintf "s%d" t.next;
      s_lock = Mutex.create ();
      s_options = options;
      s_diagram = diagram;
      s_diagram_text = diagram_text;
      s_reliability = reliability;
      s_table = table;
      s_revision = 0;
    }
  in
  Hashtbl.add t.sessions s.s_id s;
  Mutex.unlock t.lock;
  s

let find t id =
  Mutex.lock t.lock;
  let s = Hashtbl.find_opt t.sessions id in
  Mutex.unlock t.lock;
  s

let close t id =
  Mutex.lock t.lock;
  let existed = Hashtbl.mem t.sessions id in
  Hashtbl.remove t.sessions id;
  Mutex.unlock t.lock;
  existed

let count t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.sessions in
  Mutex.unlock t.lock;
  n
