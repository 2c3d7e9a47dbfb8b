(* The benchmark's measuring process; perfbench/run.py drives it.

     main.exe run --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
     main.exe mem --workload W --seed N

   [run] sets the workload up, times it for S seconds and checks its
   outputs; with [--trace 1] it reports per-layer figures from spans and
   writes the spans to FILE.  [mem] does one fixed pass of the workload
   for the memory and GC accounting; run it in a fresh process.  Either
   prints one JSON object as its last line. *)

module J = Sim.Json
module W = Perfbench.Workloads

let metrics_json l =
  J.Obj
    (List.map
       (fun (x : W.metric) -> (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.Str x.unit_) ]))
       l)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> failwith ("unexpected argument " ^ x)
  in
  let mode, kvs =
    match args with m :: rest -> (m, opts [] rest) | [] -> failwith "usage: main.exe run|mem ..."
  in
  let get k = match List.assoc_opt k kvs with Some v -> v | None -> failwith ("missing --" ^ k) in
  let workload = get "workload" and seed = int_of_string (get "seed") in
  if not (List.mem workload W.names) then failwith ("unknown workload " ^ workload);
  let out =
    match mode with
    | "mem" -> J.Obj [ ("metrics", metrics_json (W.mem workload ~seed)) ]
    | "run" ->
        let trace = get "trace" = "1" in
        let r, spans =
          W.run workload ~seed ~seconds:(float_of_string (get "seconds")) ~trace
        in
        (match (spans, List.assoc_opt "spans" kvs) with
        | Some tr, Some path -> Perfbench.Tracer.write tr path
        | _ -> ());
        J.Obj
          [
            ("metrics", metrics_json r.metrics);
            ( "checks",
              J.List
                (List.map
                   (fun (c : W.check) ->
                     J.Obj [ ("check", J.Str c.check); ("ok", J.Bool c.ok); ("detail", J.Str c.detail) ])
                   r.checks) );
            ("attempted", J.Int r.attempted);
            ("failed", J.Int r.failed);
            ("failures", J.List (List.map (fun s -> J.Str s) r.failures));
            ("rounds", J.Int r.rounds);
          ]
    | other -> failwith ("unknown mode " ^ other)
  in
  print_endline (J.to_string out)
