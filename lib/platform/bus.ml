module Prng = Repro_rng.Prng

type t = {
  transfer : int;
  contenders : float array;
  mutable transactions : int;
}

let create ~latencies ~contenders =
  List.iter
    (fun p ->
      if not (p >= 0. && p <= 1.) then
        invalid_arg
          (Printf.sprintf "Bus.create: contention probability %g outside [0, 1]" p))
    contenders;
  {
    transfer = latencies.Config.bus_transfer;
    contenders = Array.of_list contenders;
    transactions = 0;
  }

let transaction t ~prng =
  t.transactions <- t.transactions + 1;
  let contenders = t.contenders in
  let interference = ref 0 in
  for i = 0 to Array.length contenders - 1 do
    if Prng.float prng < Array.unsafe_get contenders i then
      interference := !interference + t.transfer
  done;
  t.transfer + !interference

let count t = t.transactions

let reset t = t.transactions <- 0
