//! `eval-offline`: Table IV decoding and Table V STRS+ recovery on a
//! trained Northport model, one thread.
//!
//! A round is one pass of beam-8 `beam_decode` over [`QUERIES`] held-out
//! trips followed by one pass of `Recovery::recover` (with `DeepStSpatial`)
//! over the same trips' GPS downsampled to [`SAMPLE_S`]. Whole rounds run
//! until the time is up. One trip, decoded and recovered, is the unit of
//! throughput and latency; throughput is a total over all rounds.

use std::cell::Cell;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use st_baselines::{beam_decode, DeepStDecoder, StepDecoder};
use st_core::{DeepSt, TripContext};
use st_mapmatch::MapMatcher;
use st_recovery::{DeepStSpatial, Recovery, RecoveryConfig, SpatialModel, TravelTimeModel};
use st_roadnet::{k_shortest_routes, Route};
use st_sim::{downsample, CityPreset, Dataset, GpsPoint};

use crate::layers::{Stopwatch, TimedDecoder, TimedSpatial};
use crate::report::{
    item_medians, overhead_pct, peak_rss_mb, percentile, repeat_setup, Outcome, Rate,
};
use crate::{heldout_loss, train_city, Args, TrainedCity, SETUPS};

/// Trips simulated for the city.
const TRIPS: usize = 1200;
/// Held-out trips, drawn by `--seed`, decoded (and recovered) per round.
const QUERIES: usize = 300;
/// Beam width, as in Table IV.
const BEAM: usize = 8;
/// GPS sampling period of the recovery input (s).
const SAMPLE_S: f64 = 180.0;
/// Queries also decoded through the unpacked generic step.
const GENERIC_SAMPLE: usize = 8;

struct Setup {
    ds: Dataset,
    model: DeepSt,
    ttime: TravelTimeModel,
    /// Test-trip indices drawn by the seed; every one has at least two
    /// sparse GPS points.
    queries: Vec<usize>,
    sparse: Vec<Vec<GpsPoint>>,
    generate_s: f64,
}

fn build(seed: u64) -> Setup {
    let TrainedCity {
        ds,
        model,
        generate_s,
    } = train_city(&CityPreset::northport(), TRIPS);
    let split = ds.default_split();
    let ttime = TravelTimeModel::fit(
        &ds.net,
        split
            .train
            .iter()
            .map(|&i| (&ds.trips[i].route, ds.trips[i].duration())),
    );
    let mut eligible: Vec<(usize, Vec<GpsPoint>)> = split
        .test
        .iter()
        .map(|&i| (i, downsample(&ds.trips[i].gps, SAMPLE_S)))
        .filter(|(_, s)| s.len() >= 2)
        .collect();
    eligible.shuffle(&mut StdRng::seed_from_u64(seed));
    let (queries, sparse) = eligible.into_iter().take(QUERIES).unzip();
    Setup {
        ds,
        model,
        ttime,
        queries,
        sparse,
        generate_s,
    }
}

/// The decoding context of a query trip.
fn context(setup: &Setup, i: usize) -> TripContext {
    let trip = &setup.ds.trips[i];
    let slot = setup.ds.slot_of(trip.start_time);
    let c = setup.model.encode_traffic(setup.ds.traffic_tensor(slot));
    setup
        .model
        .encode_context(setup.ds.unit_coord(&trip.dest_coord), Some(c))
}

fn decode<D: StepDecoder>(setup: &Setup, i: usize, dec: &mut D) -> Route {
    let trip = &setup.ds.trips[i];
    beam_decode(
        &setup.ds.net,
        dec,
        trip.route[0],
        &trip.dest_coord,
        BEAM,
        setup.model.cfg.max_route_len,
    )
}

fn recover<S: SpatialModel>(setup: &Setup, rec: &Recovery<'_, S>, q: usize) -> Option<Route> {
    let trip = &setup.ds.trips[setup.queries[q]];
    let slot = setup.ds.slot_of(trip.start_time);
    rec.recover(
        &setup.sparse[q],
        setup.ds.unit_coord(&trip.dest_coord),
        setup.ds.traffic_tensor(slot),
        slot,
    )
}

/// Layer timings of the traced rounds.
#[derive(Default)]
struct Layers {
    encode: Stopwatch,
    step: Stopwatch,
    gather: Stopwatch,
    rows: Cell<u64>,
    beam: Stopwatch,
    score: Stopwatch,
    matching: Stopwatch,
    ksp: Stopwatch,
    gaps: Cell<u64>,
}

/// Figures of the measured rounds.
#[derive(Default)]
struct Rounds {
    trips: Rate,
    /// (query, its decode time plus its recovery time in ms), every round.
    trip_ms: Vec<(usize, f64)>,
    routes: Vec<Route>,
    recovered: Vec<Option<Route>>,
    nondeterministic: usize,
}

/// Recover every query's trajectory with `rec`, adding each recovery's
/// time to its trip's entry of `trip_ms`. Returns the routes and the time
/// of the whole pass.
fn recover_all<S: SpatialModel>(
    setup: &Setup,
    rec: &Recovery<'_, S>,
    traced: bool,
    trip_ms: &mut [f64],
) -> (Vec<Option<Route>>, f64) {
    let t0 = Instant::now();
    let got = trip_ms
        .iter_mut()
        .enumerate()
        .map(|(q, ms)| {
            let t = Instant::now();
            let route = if traced {
                let _span = st_obs::span("st-recovery/recover");
                recover(setup, rec, q)
            } else {
                recover(setup, rec, q)
            };
            *ms += t.elapsed().as_secs_f64() * 1e3;
            route
        })
        .collect();
    (got, t0.elapsed().as_secs_f64())
}

fn run_rounds(setup: &Setup, budget_s: f64, layers: Option<&Layers>) -> Rounds {
    let mut r = Rounds::default();
    let rcfg = RecoveryConfig::default();
    let t_start = Instant::now();
    while r.trips.rounds() == 0 || t_start.elapsed().as_secs_f64() < budget_s {
        let mut trip_ms = vec![0.0; setup.queries.len()];
        // Decode.
        let t0 = Instant::now();
        let routes: Vec<Route> = setup
            .queries
            .iter()
            .zip(&mut trip_ms)
            .map(|(&i, ms)| {
                let t = Instant::now();
                let route = match layers {
                    None => decode(
                        setup,
                        i,
                        &mut DeepStDecoder::new(&setup.model, &context(setup, i)),
                    ),
                    Some(l) => {
                        let ctx = l
                            .encode
                            .time("st-core/encode_context", || context(setup, i));
                        let inner = DeepStDecoder::new(&setup.model, &ctx);
                        let mut dec = TimedDecoder::new(inner, &l.step, &l.gather, &l.rows);
                        l.beam
                            .time("st-baselines/beam_decode", || decode(setup, i, &mut dec))
                    }
                };
                *ms += t.elapsed().as_secs_f64() * 1e3;
                route
            })
            .collect();
        let decode_s = t0.elapsed().as_secs_f64();

        // Recover, with a fresh spatial module so its context cache starts
        // cold every round.
        let plain = DeepStSpatial::new(&setup.model);
        let (recovered, recover_s) = match layers {
            None => {
                let rec = Recovery::new(&setup.ds.net, &setup.ttime, &plain, rcfg.clone());
                recover_all(setup, &rec, false, &mut trip_ms)
            }
            Some(l) => {
                let timed = TimedSpatial::new(plain, &l.score);
                let rec = Recovery::new(&setup.ds.net, &setup.ttime, &timed, rcfg.clone());
                let pass = recover_all(setup, &rec, true, &mut trip_ms);
                replay_matching_and_ksp(setup, &rcfg, l);
                pass
            }
        };
        r.trips.add(trip_ms.len() as f64, decode_s + recover_s);
        r.trip_ms.extend(trip_ms.into_iter().enumerate());

        if r.routes.is_empty() {
            r.routes = routes;
            r.recovered = recovered;
        } else if routes != r.routes || recovered != r.recovered {
            r.nondeterministic += 1;
        }
    }
    r
}

/// Time the map matching and candidate generation that `Recovery::recover`
/// runs internally, by calling the same public functions on the same
/// inputs: matching each sparse trajectory, then Yen's k shortest routes
/// for every gap between consecutive distinct anchors.
fn replay_matching_and_ksp(setup: &Setup, rcfg: &RecoveryConfig, l: &Layers) {
    let net = &setup.ds.net;
    let matcher = MapMatcher::new(net, rcfg.matching.clone());
    let cost = |s| setup.ttime.mean(s);
    for traj in &setup.sparse {
        let Some(anchors) = l
            .matching
            .time("st-mapmatch/match", || matcher.match_points(traj))
        else {
            continue;
        };
        for w in anchors.windows(2) {
            if w[0] == w[1] {
                continue;
            }
            l.gaps.set(l.gaps.get() + 1);
            l.ksp.time("st-roadnet/ksp", || {
                k_shortest_routes(net, w[0], w[1], rcfg.k_candidates, &cost)
            });
        }
    }
}

fn check_rounds(setup: &Setup, r: &Rounds, out: &mut Outcome) {
    let net = &setup.ds.net;
    let bad_decodes = setup
        .queries
        .iter()
        .zip(&r.routes)
        .filter(|(&i, route)| {
            !net.is_valid_route(route) || route.first() != Some(&setup.ds.trips[i].route[0])
        })
        .count();
    out.check(bad_decodes == 0, || {
        format!("{bad_decodes} decoded routes are not connected paths from the origin")
    });
    let bad_recoveries = r
        .recovered
        .iter()
        .flatten()
        .filter(|route| !net.is_valid_route(route))
        .count();
    out.check(bad_recoveries == 0, || {
        format!("{bad_recoveries} recovered routes are not connected paths")
    });
    out.check(r.nondeterministic == 0, || {
        format!(
            "{} rounds gave other routes than the first",
            r.nondeterministic
        )
    });
    let generic_mismatch = setup
        .queries
        .iter()
        .zip(&r.routes)
        .take(GENERIC_SAMPLE)
        .filter(|&(&i, route)| {
            let ctx = context(setup, i);
            decode(
                setup,
                i,
                &mut DeepStDecoder::new_generic(&setup.model, &ctx),
            ) != *route
        })
        .count();
    out.check(generic_mismatch == 0, || {
        format!(
            "{generic_mismatch} of {GENERIC_SAMPLE} packed decodes differ from the generic step"
        )
    });
}

fn count_ops(r: &Rounds, out: &mut Outcome) {
    let rounds = r.trips.rounds() as u64;
    let lost = r.recovered.iter().filter(|x| x.is_none()).count() as u64;
    out.ops(rounds * r.routes.len() as u64, 0);
    out.ops(rounds * r.recovered.len() as u64, rounds * lost);
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s) = repeat_setup(SETUPS, || build(args.seed));
    out.check(setup.queries.len() == QUERIES, || {
        format!(
            "only {} held-out trips have two sparse GPS points",
            setup.queries.len()
        )
    });
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = run_rounds(&setup, budget, None);
    check_rounds(&setup, &plain, &mut out);
    count_ops(&plain, &mut out);
    let rate = plain.trips.per_s();
    if !args.trace {
        let loss = heldout_loss(&setup.ds, &setup.model, &setup.ds.default_split().test);
        let typical = item_medians(plain.trip_ms.iter().copied());
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
        out.metric("throughput_per_s", rate, "1/s");
        out.metric("latency_p50_ms", percentile(&typical, 0.50), "ms");
        out.metric("latency_p95_ms", percentile(&typical, 0.95), "ms");
        out.metric("heldout_loss", loss, "nats/trip");
        return out;
    }

    let l = Layers::default();
    st_obs::start_recording();
    let traced = run_rounds(&setup, budget, Some(&l));
    st_obs::stop_recording();
    check_rounds(&setup, &traced, &mut out);
    count_ops(&traced, &mut out);
    out.check(
        traced.routes == plain.routes && traced.recovered == plain.recovered,
        || "traced rounds gave other routes than untraced ones".into(),
    );
    let rounds = traced.trips.rounds() as f64;
    let per_round = |w: &Stopwatch| w.secs() / rounds;
    out.metric("st-sim.generate_s", setup.generate_s, "s");
    out.metric("st-core.encode_context_s", per_round(&l.encode), "s");
    out.metric("st-core.infer_step_s", per_round(&l.step), "s");
    out.metric("st-core.infer_rows", l.rows.get() as f64 / rounds, "count");
    out.metric(
        "st-baselines.beam_s",
        (l.beam.secs() - l.step.secs() - l.gather.secs()) / rounds,
        "s",
    );
    out.metric("st-core.score_route_s", per_round(&l.score), "s");
    out.metric(
        "st-core.routes_scored",
        l.score.calls() as f64 / rounds,
        "count",
    );
    out.metric("st-mapmatch.match_s", per_round(&l.matching), "s");
    out.metric("st-roadnet.ksp_s", per_round(&l.ksp), "s");
    out.metric(
        "st-roadnet.ksp_calls",
        l.ksp.calls() as f64 / rounds,
        "count",
    );
    out.metric("st-recovery.gaps", l.gaps.get() as f64 / rounds, "count");
    out.metric(
        "st-obs.trace_overhead_pct",
        overhead_pct(rate, traced.trips.per_s()),
        "%",
    );
    crate::write_trace(args, "eval-offline", &mut out);
    out
}
