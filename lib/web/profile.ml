module Rng = Stob_util.Rng

type size_dist = { median : float; sigma : float }

type class_spec = { mean_count : float; size : size_dist }

type t = {
  name : string;
  html : size_dist;
  css : class_spec;
  js : class_spec;
  fonts : class_spec;
  images : class_spec;
  media : class_spec;
  api : class_spec;
  think : size_dist;
  tls_flight : size_dist;
  rtt_ms : float * float;
  rate_mbps : float * float;
  parallel_connections : int;
}

let sample_size dist rng =
  Int.max 1 (int_of_float (Rng.lognormal rng ~mu:(log dist.median) ~sigma:dist.sigma))

let sample_think dist rng = Rng.lognormal rng ~mu:(log dist.median) ~sigma:dist.sigma

let request_bytes rng = Rng.int_in rng 350 650

let draw_class t spec rng kind =
  let n = Rng.poisson rng ~lambda:spec.mean_count in
  List.init n (fun _ ->
      {
        Resource.kind;
        size = sample_size spec.size rng;
        request_bytes = request_bytes rng;
        think = sample_think t.think rng;
      })

let generate_page t rng =
  let html =
    {
      Resource.kind = Resource.Html;
      size = sample_size t.html rng;
      request_bytes = request_bytes rng;
      think = sample_think t.think rng;
    }
  in
  let head_wave =
    draw_class t t.css rng Resource.Stylesheet
    @ draw_class t t.js rng Resource.Script
    @ draw_class t t.fonts rng Resource.Font
  in
  let body_wave =
    draw_class t t.images rng Resource.Image
    @ draw_class t t.media rng Resource.Media
    @ draw_class t t.api rng Resource.Api
  in
  { Resource.html; head_wave; body_wave }

let sample_network t rng =
  let rate_lo, rate_hi = t.rate_mbps in
  let rtt_lo, rtt_hi = t.rtt_ms in
  let rate_bps = Rng.uniform rng rate_lo rate_hi *. 1e6 in
  let one_way = Rng.uniform rng rtt_lo rtt_hi *. 1e-3 /. 2.0 in
  (rate_bps, one_way)
