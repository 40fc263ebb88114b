(* Seeded violation for retired R9, now F3: the certification harness
   aliasing a noise stream with Prng.copy instead of splitting fresh
   streams from its own seed. An audit that shares the privacy stream
   it is testing certifies nothing. Never compiled. *)

let shadow_stream engine_stream =
  let g = Dp_rng.Prng.copy engine_stream in
  Certify.collect ~trials:1000 source g
