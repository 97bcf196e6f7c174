(** Web resources: the objects a page load fetches.

    A page is an HTML document plus dependent resources fetched in waves:
    head resources (stylesheets, scripts, fonts) unblock before body
    resources (images, media, API calls), which is what gives page-load
    traces their characteristic burst structure. *)

type kind = Html | Stylesheet | Script | Font | Image | Media | Api

type t = {
  kind : kind;
  size : int;  (** Response body bytes. *)
  request_bytes : int;  (** HTTP request size (method, path, headers). *)
  think : float;  (** Server processing time before the response, seconds. *)
}

type page = {
  html : t;
  head_wave : t list;  (** Fetched as soon as the HTML arrives. *)
  body_wave : t list;  (** Fetched after the head wave completes. *)
}
