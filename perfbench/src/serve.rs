//! `serve-live`: `st-serve` on a trained Rivertown model, fed by one load
//! generator thread against one worker.
//!
//! - **Open loop.** Seeded Poisson arrivals at the fixed rate [`RATE_HZ`]
//!   for [`OPEN_SHARE`] of the run, with the dataset's whole `TrafficFeed`
//!   (observations, incidents, closures) ingested on its own even schedule
//!   over the same window. Latency is timed from each request's due time.
//! - **Closed loop.** With the feed finished, one request in flight at a
//!   time, in whole passes over the pool in orders drawn by the seed, for
//!   [`CLOSED_SHARE`] of the run. Latency is timed from enqueue to response.
//! - **Bursts.** The whole request pool enqueued at once, in an order drawn
//!   by the seed, with the feed finished; whole bursts until the time is
//!   up, routes per second over all bursts.
//!
//! The end-to-end latency is the closed loop's; throughput is the bursts'.
//! The held-out loss is the model's on the pool's trips. About 30% of
//! requests continue a 4-segment prefix. The degradation ladder is out of
//! reach and deadlines are generous, so every response should be full
//! quality; a typed error or a degraded response is a failed operation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use st_baselines::{beam_decode_closed, DeepStDecoder};
use st_core::{CancelToken, DeepSt, TrafficEvent, VersionedTraffic};
use st_roadnet::{RoadNetwork, SegmentId};
use st_serve::{Degradation, PendingResponse, RouteRequest, RouteResponse, ServeConfig, Server};
use st_sim::{poisson_arrivals, CityPreset, Dataset, TrafficFeed};

use crate::report::{
    item_medians, mean, median, overhead_pct, peak_rss_mb, percentile, repeat_setup, Outcome, Rate,
};
use crate::{heldout_loss, train_city, Args, TrainedCity, SETUPS};

/// Trips simulated for the city.
const TRIPS: usize = 1200;
/// Fixed open-loop arrival rate. See the README for the capacity it was
/// sized against.
const RATE_HZ: f64 = 40.0;
/// Share of the run spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.5;
/// Share of the run spent in the closed loop; bursts fill the rest.
const CLOSED_SHARE: f64 = 0.25;
/// Held-out trips in the request pool (every burst sends all of them).
const POOL: usize = 200;
/// Beam width of every full-quality response.
const BEAM: usize = 8;
/// Burst responses re-decoded serially for the parity check.
const PARITY_SAMPLE: usize = 12;
/// Segments of a continuation request's prefix.
const PREFIX_LEN: usize = 4;
/// Bound on waiting for any one response; past it the request counts as
/// failed.
const WAIT_BOUND: Duration = Duration::from_secs(60);

struct Setup {
    ds: Dataset,
    model: Arc<DeepSt>,
    net: Arc<RoadNetwork>,
    /// Dataset indices of the pool's trips.
    pool_trips: Vec<usize>,
    pool: Vec<RouteRequest>,
    feed: TrafficFeed,
    generate_s: f64,
}

fn build() -> Setup {
    let TrainedCity {
        ds,
        model,
        generate_s,
    } = train_city(&CityPreset::rivertown(), TRIPS);
    let pool_trips: Vec<usize> = ds.default_split().test.into_iter().take(POOL).collect();
    let pool = pool_trips
        .iter()
        .enumerate()
        .map(|(k, &i)| {
            let trip = &ds.trips[i];
            let slot = ds.slot_of(trip.start_time);
            let continuation = k % 10 < 3 && trip.route.len() > PREFIX_LEN + 1;
            let prefix = if continuation {
                trip.route[..PREFIX_LEN].to_vec()
            } else {
                vec![trip.origin_segment()]
            };
            RouteRequest {
                prefix,
                dest_coord: trip.dest_coord,
                dest_norm: ds.unit_coord(&trip.dest_coord),
                traffic: Some(ds.traffic_tensor(slot).to_vec()),
                slot_id: slot,
                deadline: None,
            }
        })
        .collect();
    let feed = TrafficFeed::from_dataset(&ds);
    Setup {
        net: Arc::new(ds.net.clone()),
        model: Arc::new(model),
        ds,
        pool_trips,
        pool,
        feed,
        generate_s,
    }
}

fn serve_config(ds: &Dataset) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_cap: 4096,
        max_batch_rows: 128,
        default_deadline: WAIT_BOUND,
        beam_width: BEAM,
        degraded_beam_width: 3,
        degrade_queue_depth: usize::MAX,
        greedy_queue_depth: usize::MAX,
        degrade_p99_ms: f64::INFINITY,
        greedy_p99_ms: f64::INFINITY,
        max_retries: 2,
        retry_backoff: Duration::from_millis(2),
        traffic_slots: Some(ds.num_slots()),
    }
}

/// A request in flight: which pool entry, and the closure set in force
/// when it was sent.
struct Sent {
    pool_idx: usize,
    closed: Arc<Vec<SegmentId>>,
    due: Instant,
    sent: Instant,
    pending: PendingResponse,
}

/// A completed request.
struct Done {
    pool_idx: usize,
    closed: Arc<Vec<SegmentId>>,
    from_due_ms: f64,
    resp: RouteResponse,
}

/// Layer figures gathered while traced.
#[derive(Default)]
struct Probe {
    enqueue_us: Vec<f64>,
    ingest_us: Vec<f64>,
    queue_depth: Vec<f64>,
    batch_rows: Vec<f64>,
}

/// Wait for every request; failed ones (typed error, timeout, degraded)
/// are counted, the rest returned.
fn collect(sent: Vec<Sent>, failed: &mut u64, mut poll: Option<&mut Vec<f64>>) -> Vec<Done> {
    let bound = Instant::now() + WAIT_BOUND;
    let mut done = Vec::with_capacity(sent.len());
    for s in sent {
        let result = match poll.as_deref_mut() {
            // Sample the batch-size gauge about once a millisecond while
            // the worker drains.
            Some(samples) => loop {
                let tick = (Instant::now() + Duration::from_millis(1)).min(bound);
                match s.pending.wait_until(tick) {
                    Some(r) => break Some(r),
                    None if Instant::now() >= bound => break None,
                    None => samples.push(st_obs::gauge("serve.batch_rows").get()),
                }
            },
            None => s.pending.wait_until(bound),
        };
        match result {
            Some(Ok(resp)) if resp.degradation == Degradation::None => {
                let waited = s.sent.duration_since(s.due) + resp.latency;
                done.push(Done {
                    pool_idx: s.pool_idx,
                    closed: s.closed,
                    from_due_ms: waited.as_secs_f64() * 1e3,
                    resp,
                });
            }
            _ => *failed += 1,
        }
    }
    done
}

/// An open loop, a closed loop and whole bursts on a fresh server.
struct Phase {
    open: Vec<Done>,
    closed_loop: Vec<Done>,
    bursts: Vec<Done>,
    bursts_rate: Rate,
    attempted: u64,
    failed: u64,
    max_late_ms: f64,
    ingest_rejected: usize,
    fallbacks: u64,
    live: VersionedTraffic,
}

fn run_phase(setup: &Setup, seed: u64, secs: f64, mut probe: Option<&mut Probe>) -> Phase {
    let server = Server::new(
        Arc::clone(&setup.model),
        Arc::clone(&setup.net),
        serve_config(&setup.ds),
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E1F);
    let fallbacks0 = st_obs::counter("decode.closed.fallback").get();
    let mut failed = 0u64;
    // Warm the worker's arenas before anything is timed.
    for req in setup.pool.iter().take(4) {
        if server.predict(req.clone()).is_err() {
            failed += 1;
        }
    }
    let mut attempted = 4u64;

    // Merged schedule: requests at Poisson times, feed events evenly spread.
    // Requests walk the pool in shuffled passes, so every pool entry is sent
    // equally often.
    let open_s = secs * OPEN_SHARE;
    let events = setup.feed.events();
    let arrivals = poisson_arrivals(RATE_HZ, open_s, seed);
    let mut picks = Vec::with_capacity(arrivals.len() + setup.pool.len());
    while picks.len() < arrivals.len() {
        let start = picks.len();
        picks.extend(0..setup.pool.len());
        picks[start..].shuffle(&mut rng);
    }
    let mut schedule: Vec<(f64, Option<usize>)> = arrivals
        .into_iter()
        .zip(picks)
        .map(|(t, idx)| (t, Some(idx)))
        .collect();
    let feed_gap = open_s / events.len() as f64;
    let mut next_event = 0usize;
    schedule.extend((0..events.len()).map(|i| ((i as f64 + 0.5) * feed_gap, None)));
    schedule.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut live = VersionedTraffic::with_horizon(setup.ds.num_slots());
    let mut closed = Arc::new(Vec::new());
    let mut ingest_rejected = 0usize;
    let mut max_late = Duration::ZERO;
    let mut sent = Vec::new();
    let t0 = Instant::now();
    for &(at, item) in &schedule {
        let due = t0 + Duration::from_secs_f64(at);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        max_late = max_late.max(Instant::now().saturating_duration_since(due));
        match item {
            Some(idx) => {
                attempted += 1;
                if let Some(p) = probe.as_deref_mut() {
                    p.queue_depth.push(server.queue_depth() as f64);
                }
                let req = setup.pool[idx].clone();
                let sent_at = Instant::now();
                let res = {
                    let _span = st_obs::span("st-serve/enqueue");
                    server.enqueue(req)
                };
                if let Some(p) = probe.as_deref_mut() {
                    p.enqueue_us.push(sent_at.elapsed().as_secs_f64() * 1e6);
                }
                match res {
                    Ok(pending) => sent.push(Sent {
                        pool_idx: idx,
                        closed: Arc::clone(&closed),
                        due,
                        sent: sent_at,
                        pending,
                    }),
                    Err(_) => failed += 1,
                }
            }
            None => {
                let ev: &TrafficEvent = &events[next_event];
                next_event += 1;
                let t = Instant::now();
                let outcome = {
                    let _span = st_obs::span("st-serve/ingest");
                    server.ingest_traffic(ev)
                };
                if let Some(p) = probe.as_deref_mut() {
                    p.ingest_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                if !outcome.is_applied() {
                    ingest_rejected += 1;
                }
                live.apply(ev);
                if closed.len() != live.closed_segments().len() {
                    closed = Arc::new(live.closed_segments());
                }
            }
        }
    }
    let open = collect(sent, &mut failed, None);

    // Closed loop, with the feed finished: whole passes over the pool, one
    // request in flight at a time.
    let tc = Instant::now();
    let mut closed_loop = Vec::new();
    while closed_loop.is_empty() || tc.elapsed().as_secs_f64() < secs * CLOSED_SHARE {
        let mut order: Vec<usize> = (0..setup.pool.len()).collect();
        order.shuffle(&mut rng);
        for idx in order {
            attempted += 1;
            let start = Instant::now();
            match server.enqueue(setup.pool[idx].clone()) {
                Ok(pending) => closed_loop.extend(collect(
                    vec![Sent {
                        pool_idx: idx,
                        closed: Arc::clone(&closed),
                        due: start,
                        sent: start,
                        pending,
                    }],
                    &mut failed,
                    None,
                )),
                Err(_) => failed += 1,
            }
        }
    }

    // Bursts, with the feed finished.
    let burst_budget = secs - t0.elapsed().as_secs_f64();
    let tb = Instant::now();
    let mut bursts = Vec::new();
    let mut bursts_rate = Rate::default();
    while bursts_rate.rounds() == 0 || tb.elapsed().as_secs_f64() < burst_budget {
        let start = Instant::now();
        let mut order: Vec<usize> = (0..setup.pool.len()).collect();
        order.shuffle(&mut rng);
        let mut sent = Vec::with_capacity(order.len());
        for idx in order {
            attempted += 1;
            match server.enqueue(setup.pool[idx].clone()) {
                Ok(pending) => sent.push(Sent {
                    pool_idx: idx,
                    closed: Arc::clone(&closed),
                    due: start,
                    sent: start,
                    pending,
                }),
                Err(_) => failed += 1,
            }
        }
        let poll = probe.as_deref_mut().map(|p| &mut p.batch_rows);
        let done = collect(sent, &mut failed, poll);
        bursts_rate.add(done.len() as f64, start.elapsed().as_secs_f64());
        bursts.extend(done);
    }
    server.shutdown();
    Phase {
        open,
        closed_loop,
        bursts,
        bursts_rate,
        attempted,
        failed,
        max_late_ms: max_late.as_secs_f64() * 1e3,
        ingest_rejected,
        fallbacks: st_obs::counter("decode.closed.fallback").get() - fallbacks0,
        live,
    }
}

/// Output checks over one phase's responses.
fn check_phase(setup: &Setup, phase: &Phase, out: &mut Outcome) {
    out.check(phase.ingest_rejected == 0, || {
        format!("{} clean feed events were rejected", phase.ingest_rejected)
    });
    let mut invalid = 0usize;
    let mut bad_prefix = 0usize;
    let mut closed_used = 0u64;
    for d in phase
        .open
        .iter()
        .chain(&phase.closed_loop)
        .chain(&phase.bursts)
    {
        let req = &setup.pool[d.pool_idx];
        let route = &d.resp.route;
        if !setup.net.is_valid_route(route) {
            invalid += 1;
        }
        if !route.starts_with(&req.prefix) {
            bad_prefix += 1;
        }
        let extension = &route[req.prefix.len().min(route.len())..];
        if extension.iter().any(|s| d.closed.binary_search(s).is_ok()) {
            closed_used += 1;
        }
    }
    out.check(invalid == 0, || {
        format!("{invalid} served routes are not connected paths")
    });
    out.check(bad_prefix == 0, || {
        format!("{bad_prefix} served routes do not start with their prefix")
    });
    out.check(closed_used <= phase.fallbacks, || {
        format!(
            "{closed_used} served routes use a closed segment, {} closed-set fallbacks counted",
            phase.fallbacks
        )
    });

    // A sample of burst responses against serial decoding under the final
    // live state: every burst ran after the whole feed was ingested.
    let closed = phase.live.closed_segments();
    let model = &*setup.model;
    let mut mismatches = 0usize;
    for d in phase.bursts.iter().take(PARITY_SAMPLE) {
        let req = &setup.pool[d.pool_idx];
        let c = req
            .traffic
            .as_ref()
            .map(|t| model.encode_traffic(phase.live.tensor(req.slot_id).unwrap_or(t)));
        let ctx = model.encode_context(req.dest_norm, c);
        let mut dec = DeepStDecoder::new(model, &ctx);
        let serial = beam_decode_closed(
            &setup.net,
            &mut dec,
            &req.prefix,
            &req.dest_coord,
            BEAM,
            model.cfg.max_route_len,
            &closed,
            &CancelToken::new(),
        );
        if serial.as_ref().ok() != Some(&d.resp.route) {
            mismatches += 1;
        }
    }
    out.check(mismatches == 0, || {
        format!("{mismatches} of {PARITY_SAMPLE} burst routes differ from serial decoding")
    });
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s) = repeat_setup(SETUPS, build);
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = run_phase(&setup, args.seed, secs, None);
    out.ops(plain.attempted, plain.failed);
    check_phase(&setup, &plain, &mut out);
    let burst_rate = plain.bursts_rate.per_s();
    if !args.trace {
        let typical = item_medians(
            plain
                .closed_loop
                .iter()
                .map(|d| (d.pool_idx, d.from_due_ms)),
        );
        let loss = heldout_loss(&setup.ds, &setup.model, &setup.pool_trips);
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
        out.metric("throughput_per_s", burst_rate, "1/s");
        out.metric("latency_p50_ms", percentile(&typical, 0.50), "ms");
        out.metric("latency_p95_ms", percentile(&typical, 0.95), "ms");
        out.metric("heldout_loss", loss, "nats/trip");
        return out;
    }

    let counter = |name: &str| st_obs::counter(name).get();
    let before = [
        counter("predict.traffic_cache.hit"),
        counter("predict.traffic_cache.miss"),
        counter("predict.traffic_cache.invalidate"),
    ];
    let mut probe = Probe::default();
    st_obs::start_recording();
    let traced = run_phase(&setup, args.seed, secs, Some(&mut probe));
    st_obs::stop_recording();
    out.ops(traced.attempted, traced.failed);
    check_phase(&setup, &traced, &mut out);
    let server_ms: Vec<f64> = traced
        .open
        .iter()
        .map(|d| d.resp.latency.as_secs_f64() * 1e3)
        .collect();
    out.metric("st-sim.generate_s", setup.generate_s, "s");
    out.metric("st-serve.enqueue_us", median(&probe.enqueue_us), "us");
    out.metric("st-serve.ingest_us", median(&probe.ingest_us), "us");
    out.metric(
        "st-serve.ingest_events",
        probe.ingest_us.len() as f64,
        "count",
    );
    out.metric("st-serve.server_latency_ms", median(&server_ms), "ms");
    out.metric(
        "st-serve.queue_depth_p99",
        percentile(&probe.queue_depth, 0.99),
        "count",
    );
    out.metric("st-serve.batch_rows", mean(&probe.batch_rows), "rows");
    out.metric(
        "st-core.traffic_cache_hits",
        (counter("predict.traffic_cache.hit") - before[0]) as f64,
        "count",
    );
    out.metric(
        "st-core.traffic_cache_misses",
        (counter("predict.traffic_cache.miss") - before[1]) as f64,
        "count",
    );
    out.metric(
        "st-core.traffic_cache_invalidations",
        (counter("predict.traffic_cache.invalidate") - before[2]) as f64,
        "count",
    );
    out.metric(
        "st-baselines.closed_fallbacks",
        traced.fallbacks as f64,
        "count",
    );
    out.metric("loadgen.max_late_ms", traced.max_late_ms, "ms");
    out.metric(
        "st-obs.trace_overhead_pct",
        overhead_pct(burst_rate, traced.bursts_rate.per_s()),
        "%",
    );
    crate::write_trace(args, "serve-live", &mut out);
    out
}
