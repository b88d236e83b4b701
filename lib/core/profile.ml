include Repro_profile

let record_counters counters =
  List.iter
    (fun { stage; ns; minor_words; calls } ->
      if calls > 0 then begin
        let add suffix v = Trace.Counters.add counters (counter_name stage suffix) v in
        add "_ns" (Int64.to_int ns);
        add "_minor_words" minor_words;
        add "_calls" calls
      end)
    (snapshot ())

let report () = render (snapshot ())
