type kind = Html | Stylesheet | Script | Font | Image | Media | Api

type t = { kind : kind; size : int; request_bytes : int; think : float }

type page = { html : t; head_wave : t list; body_wave : t list }
