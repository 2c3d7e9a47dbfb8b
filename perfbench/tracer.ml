(* Spans recorded by the benchmark around its calls into the program's
   layers: name, start, end, parent and the seed (or transaction, or
   check) they belong to.  Spans live in growable parallel arrays, so
   recording one allocates nothing; they are written out once, at the
   end of the run.  A disabled tracer records nothing, which gives the
   untraced twin of every traced decomposition. *)

external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

type t = {
  enabled : bool;
  mutable len : int;
  mutable current : int;  (** innermost open span, -1 at top level *)
  mutable names : string array;
  mutable keys : int array;
  mutable parents : int array;
  mutable starts : int array;
  mutable stops : int array;
}

let create ~enabled =
  let cap = if enabled then 4096 else 0 in
  {
    enabled;
    len = 0;
    current = -1;
    names = Array.make cap "";
    keys = Array.make cap 0;
    parents = Array.make cap 0;
    starts = Array.make cap 0;
    stops = Array.make cap 0;
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill = Array.append a (Array.make (cap - Array.length a) fill) in
  t.names <- extend t.names "";
  t.keys <- extend t.keys 0;
  t.parents <- extend t.parents 0;
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0

let enter t name ~key =
  if not t.enabled then -1
  else begin
    if t.len = Array.length t.names then grow t;
    let id = t.len in
    t.names.(id) <- name;
    t.keys.(id) <- key;
    t.parents.(id) <- t.current;
    t.stops.(id) <- -1;
    t.len <- id + 1;
    t.current <- id;
    t.starts.(id) <- now_ns ();
    id
  end

let leave t id =
  if id >= 0 then begin
    t.stops.(id) <- now_ns ();
    t.current <- t.parents.(id)
  end

let span t name ~key f =
  let id = enter t name ~key in
  let v = f () in
  leave t id;
  v

let length t = t.len

(* Self time of every span in [from, until): its duration minus the part
   its children cover.  Children run sequentially inside their parent,
   so that part is the sum of their durations. *)
let self_times t ~from ~until =
  let self = Array.init (until - from) (fun i -> t.stops.(from + i) - t.starts.(from + i)) in
  for i = from to until - 1 do
    let p = t.parents.(i) in
    if p >= from then self.(p - from) <- self.(p - from) - (t.stops.(i) - t.starts.(i))
  done;
  self

(* Per span name over [from, until): (total self ns, span count). *)
let totals t ~from ~until =
  let self = self_times t ~from ~until in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i ns ->
      let name = t.names.(from + i) in
      let total, count = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl name) in
      Hashtbl.replace tbl name (total + ns, count + 1))
    self;
  tbl

let self_ns tbl name = match Hashtbl.find_opt tbl name with Some (ns, _) -> ns | None -> 0

let write t path =
  let self = self_times t ~from:0 ~until:t.len in
  let oc = open_out path in
  output_string oc "id\tparent\tname\tkey\tstart_ns\tend_ns\tself_ns\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%d\n" i t.parents.(i) t.names.(i) t.keys.(i)
      t.starts.(i) t.stops.(i) self.(i)
  done;
  close_out oc
