let incremental_packet_reduction ~alpha =
  Policy.make
    ~name:(Printf.sprintf "incr-pkt(a=%d)" alpha)
    ~size:(Policy.Cycle_reduction { step = alpha; max_steps = 10 })
    ()

let incremental_tso_reduction ~alpha =
  Policy.make
    ~name:(Printf.sprintf "incr-tso(a=%d)" alpha)
    ~tso:(Policy.Cycle_tso_reduction { step = Int.max 1 (alpha / 4); max_steps = 8 })
    ()

let incremental_combined ~alpha =
  Policy.make
    ~name:(Printf.sprintf "incr-both(a=%d)" alpha)
    ~size:(Policy.Cycle_reduction { step = alpha; max_steps = 10 })
    ~tso:(Policy.Cycle_tso_reduction { step = Int.max 1 (alpha / 4); max_steps = 8 })
    ()

let stack_split ?(threshold = 1200) () =
  Policy.make
    ~name:(Printf.sprintf "split(>%dB)" threshold)
    ~size:(Policy.Split_above threshold)
      (* Splitting a segment's packets doubles their count; keep the TSO
         budget in packets rather than bytes so the burst length matches a
         kernel that splits at packetization time. *)
    ()

let stack_delay ?(lo = 0.1) ?(hi = 0.3) () =
  Policy.make
    ~name:(Printf.sprintf "delay(%g-%g)" lo hi)
    ~timing:(Policy.Stretch_gap (lo, hi))
    ()

let stack_combined ?(threshold = 1200) ?(lo = 0.1) ?(hi = 0.3) () =
  Policy.make
    ~name:(Printf.sprintf "split+delay(>%dB,%g-%g)" threshold lo hi)
    ~size:(Policy.Split_above threshold)
    ~timing:(Policy.Stretch_gap (lo, hi))
    ()

let rate_floor ~rate_bps =
  Policy.make
    ~name:(Printf.sprintf "pace@%.0fMb/s" (rate_bps /. 1e6))
    ~timing:(Policy.Pace_at rate_bps)
    ()

let bbr_respecting p =
  {
    p with
    Policy.name = p.Policy.name ^ "+bbr-exempt";
    exempt_phases = Stob_tcp.Cc.[ Startup; Drain ];
  }

let all_named () =
  [
    ("unmodified", Policy.unmodified);
    ("split", stack_split ());
    ("delay", stack_delay ());
    ("combined", stack_combined ());
    ("incr-pkt-20", incremental_packet_reduction ~alpha:20);
    ("incr-tso-20", incremental_tso_reduction ~alpha:20);
    ("incr-both-20", incremental_combined ~alpha:20);
    ("pace-25", rate_floor ~rate_bps:25e6);
  ]
