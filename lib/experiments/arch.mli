(** Experiments E4/E5: render Figures 1 and 2.

    Both paper figures are architecture diagrams; here they are regenerated
    as structured text derived from the code itself — the stack model's
    stage names come from the simulator's actual components and the Stob
    diagram's hook points come from the fields of
    {!Stob_tcp.Hooks.decision}, so the renderings cannot silently drift
    from the implementation. *)

val figure1 : unit -> string
(** The stack model: TLS/TCP, kTLS/TCP and QUIC/UDP organizations, with the
    in-stack (shaded) asynchronous stages marked. *)

val figure2 : unit -> string
(** The Stob architecture: policy table, controller, and the three
    intercepted decisions. *)
