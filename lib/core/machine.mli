(** Probabilistic defense state machines (a Maybenot-style framework on top
    of Stob's hook).

    The paper's related work (Pulls & Witwer's Maybenot) frames traffic-
    analysis defenses as state machines: states carry actions, transitions
    fire probabilistically on traffic events.  Stob can host exactly that
    in-stack: each state carries an ordinary {!Policy.t}; on every committed
    segment the machine first applies the current state's policy, then takes
    a weighted random transition.  Multi-state policies obfuscate
    {e intermittently} — which also makes the defense itself harder to
    fingerprint than an always-on transform.

    Everything a machine emits still flows through the endpoint clamp: no
    state can make traffic more aggressive than the CCA decided. *)

type transition = { target : int; weight : float }
(** Weighted edge to [states.(target)]; weights need not normalize. *)

type state = {
  name : string;
  policy : Policy.t;  (** Applied to every segment while in this state. *)
  transitions : transition list;
      (** Evaluated after each segment; empty = absorbing state. *)
}

type t = { states : state array; start : int }

val validate : t -> (unit, string) result
(** Checks: non-empty, start in range, transition targets in range,
    non-negative weights, every state's policy validates. *)

type controller

val create : ?seed:int -> t -> controller
(** Raises [Invalid_argument] on an invalid machine. *)

val hooks : controller -> Stob_tcp.Hooks.t

val current_state : controller -> string
(** Test seam: the state the machine is in. *)

val segments_in_state : controller -> (string * int) list
(** How many segment decisions each state handled. *)

val intermittent : on:Policy.t -> ?p_enter:float -> ?p_exit:float -> unit -> t
(** Two-state machine: "idle" (unmodified) entering the obfuscating state
    with probability [p_enter] per segment (default 0.1), leaving with
    [p_exit] (default 0.2). *)
