(* F3 case: a composition root is one function, not its module.
   [worker_main] is the pool's declared root (Spec.composition_roots):
   a forked worker's entry point wires its engine into its Server the
   way bin/ does for one process. [respawn] makes the same hand-off
   from an ordinary pool function, so the engine-owned stream still
   crosses into the net subsystem there. Never compiled. *)

type shard = { rng : Prng.t; index : int }

let shard seed index = { rng = Prng.create seed; index }

let worker_main seed index = Server.run (Server.detached (shard seed index))

let respawn seed index = Server.detached (shard seed index)
