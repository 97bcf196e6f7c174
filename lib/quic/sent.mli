(** The sender's outstanding ack-eliciting packets, and the index of their
    holes that loss detection walks.

    The packets sit in a ring indexed by packet number, which doubles
    whenever a new packet's slot is still taken, so finding, adding and
    removing one costs an array access and hashes nothing.

    A {e hole} is an outstanding packet whose number is below the largest
    acknowledged one.  The index holds them in ascending packet-number
    order.  It grows when the largest acknowledgement advances, walking
    each packet number once in its life, and drops acknowledged or lost
    packets lazily, the next time loss detection reads it.  So a loss
    check costs the holes it examines, not the packets in flight. *)

type packet = { pn : int; payload : int; frames : Frame.t list; sent_at : float }

type t

val create : unit -> t

val add : t -> packet -> unit
(** Register a packet just sent.  Its number must exceed every number
    added before. *)

val find_opt : t -> int -> packet option

val remove : t -> int -> unit
(** Forget an acknowledged or lost packet.  A no-op when it is not
    outstanding. *)

val lowest : t -> pn_next:int -> int
(** The lowest outstanding packet number, or [pn_next] when nothing is
    outstanding.  Amortised O(1): the low-water mark below it only moves
    up. *)

val detect_losses :
  t ->
  largest_acked:int ->
  packet_threshold:int ->
  time_threshold:float option ->
  now:float ->
  packet list * float * int
(** RFC 9002 §6.1 over the holes below [largest_acked]: a hole at least
    [packet_threshold] numbers below it is lost, and so is one sent at
    least [time_threshold] before [now].  Returns the lost packets in
    declaration order, the earliest deadline of a hole not yet lost by
    time ([infinity] if none, or if [time_threshold] is [None]), and how
    many were lost by time.  The caller declares each loss and then calls
    {!remove}.

    {b Declaration order.}  The packets come in {e descending} bucket
    [Hashtbl.hash pn land (buckets - 1)], and in {e ascending} [pn]
    within a bucket.  [buckets] is a modelled count, not a property of
    how the packets are stored: it starts at 256 and doubles whenever an
    {!add} leaves more than [2 * buckets] packets outstanding, and it
    never shrinks.  The rule reproduces the order of the earliest loss
    check, a [Hashtbl.iter] over a [Hashtbl.create 256] of the
    outstanding packets under OCaml 5.1's stdlib, which inserts at a
    bucket's head and keeps bucket order on resize.  The sender pushes
    each lost chunk onto its stream's retransmission queue in this order,
    so it decides which bytes each retransmission carries. *)

(** {1 Invariant-monitor surface} *)

val fold : (packet -> 'a -> 'a) -> t -> 'a -> 'a
(** Over the outstanding packets, in no particular order. *)

val low_water : t -> int

val unindexed : t -> int list
(** Recomputed: the outstanding packet numbers below the index's edge
    that the index lacks, ascending.  Empty unless the index is broken. *)

val loss_visits : t -> int
(** Work done by {!detect_losses} so far: index entries examined plus
    packet numbers walked to extend the index. *)
