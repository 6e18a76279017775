//! `train-megacity`: streamed, serial DeepST training on a 10k-segment
//! megacity whose trips live in an on-disk `TripStore`.
//!
//! Set-up builds the world, streams its trips to disk, and holds the last
//! [`HELDOUT_TRIPS`] of the store out of training. The measured loop then
//! runs whole epochs over the first [`TRAIN_BATCHES`] minibatches of the
//! store through `Trainer::train_epoch_stream`, one Trainer for the whole
//! run, until the time is up. One epoch is one round; its batches are the
//! operations counted, and a batch's latency is the time from the trainer
//! asking for it to the trainer asking for the next one: the store read,
//! the conversion to examples, and the training step.

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use st_core::{DeepSt, DeepStConfig, Example, TrainConfig, Trainer};
use st_sim::{Megacity, MegacityConfig, Trip, TripStore, TripStoreWriter};

use crate::layers::{Stopwatch, TimedIter};
use crate::report::{
    median, overhead_pct, peak_rss_mb, percentile, repeat_setup, Outcome, Rate, MB,
};
use crate::{eval_rng, Args, CITY_SEED, SETUPS};

/// Directed segments the megacity is sized to.
const TARGET_SEGMENTS: usize = 10_000;
/// Minibatch (and shard) size.
const BATCH: usize = 32;
/// Minibatches per epoch.
const TRAIN_BATCHES: usize = 10;
/// Trips kept out of training for the held-out loss.
const HELDOUT_TRIPS: usize = 32;
/// Trips per `TripStore` shard file.
const TRIPS_PER_SHARD: usize = 64;
/// Rows per embedding block: the table is a `BlockedParam` of ~35 blocks.
const BLOCK_ROWS: usize = 256;
/// Destination proxies.
const K_PROXIES: usize = 8;

struct World {
    mega: Megacity,
    store: TripStore,
    tensors: Vec<std::sync::Arc<Vec<f32>>>,
    heldout: Vec<Example>,
    generate_s: f64,
}

fn build_world(store_dir: &Path) -> Result<World, String> {
    let t0 = Instant::now();
    let mega = Megacity::generate(
        &MegacityConfig::with_target_segments(TARGET_SEGMENTS),
        CITY_SEED,
    );
    if store_dir.exists() {
        std::fs::remove_dir_all(store_dir).map_err(|e| format!("clearing the store: {e}"))?;
    }
    let n_trips = BATCH * TRAIN_BATCHES + HELDOUT_TRIPS;
    let mut writer =
        TripStoreWriter::create(store_dir, TRIPS_PER_SHARD).map_err(|e| e.to_string())?;
    let summary = mega
        .stream_trips(n_trips, CITY_SEED, &mut writer)
        .map_err(|e| e.to_string())?;
    writer.finish().map_err(|e| e.to_string())?;
    let generate_s = t0.elapsed().as_secs_f64();
    let tensors = summary.slot_obs.tensors(mega.max_speed);
    let store = TripStore::open(store_dir).map_err(|e| e.to_string())?;
    if store.len() != n_trips {
        return Err(format!(
            "store holds {} trips, wanted {n_trips}",
            store.len()
        ));
    }
    let mut heldout = Vec::with_capacity(HELDOUT_TRIPS);
    for trip in store.iter().skip(BATCH * TRAIN_BATCHES) {
        let trip = trip.map_err(|e| e.to_string())?;
        heldout.push(
            mega.example(&trip, &tensors)
                .ok_or("a held-out trip is not a connected route")?,
        );
    }
    Ok(World {
        mega,
        store,
        tensors,
        heldout,
        generate_s,
    })
}

/// Every file of `a` equals the file of the same name in `b`.
fn same_files(a: &Path, b: &Path) -> std::io::Result<bool> {
    let names = |d: &Path| -> std::io::Result<Vec<std::ffi::OsString>> {
        let mut v: Vec<_> = std::fs::read_dir(d)?
            .map(|e| e.map(|e| e.file_name()))
            .collect::<Result<_, _>>()?;
        v.sort();
        Ok(v)
    };
    let (na, nb) = (names(a)?, names(b)?);
    if na != nb {
        return Ok(false);
    }
    for n in &na {
        if std::fs::read(a.join(n))? != std::fs::read(b.join(n))? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Read the whole store back, check every trip, and write it again: the
/// rewritten files must equal the written ones byte for byte.
fn check_store(world: &World, scratch: &Path, out: &mut Outcome) {
    let trips: Vec<Trip> = match world.store.iter().collect() {
        Ok(t) => t,
        Err(e) => {
            out.check(false, || format!("reading the trip store back: {e}"));
            return;
        }
    };
    out.check(trips.len() == world.store.len(), || {
        format!("read {} trips of {}", trips.len(), world.store.len())
    });
    let bad = trips
        .iter()
        .filter(|t| !world.mega.net.is_valid_route(&t.route) || t.gps.is_empty())
        .count();
    out.check(bad == 0, || {
        format!("{bad} stored trips are not connected routes with GPS")
    });
    let again = scratch.join("rewritten");
    let rewrite = (|| -> Result<bool, String> {
        if again.exists() {
            std::fs::remove_dir_all(&again).map_err(|e| e.to_string())?;
        }
        let mut w = TripStoreWriter::create(&again, TRIPS_PER_SHARD).map_err(|e| e.to_string())?;
        for t in &trips {
            w.append(t).map_err(|e| e.to_string())?;
        }
        w.finish().map_err(|e| e.to_string())?;
        same_files(&scratch.join("store"), &again).map_err(|e| e.to_string())
    })();
    match rewrite {
        Ok(same) => out.check(same, || {
            "trips read back from the store differ from the trips written".into()
        }),
        Err(e) => out.check(false, || format!("rewriting the store: {e}")),
    }
}

/// Per-epoch figures of the measured loop.
#[derive(Default)]
struct Epochs {
    examples: Rate,
    /// Every batch's latency (ms). Each spans a whole training step, long
    /// enough that a stall of the host is a small part of it, so the
    /// percentiles are over all of them, not over per-batch medians: an
    /// epoch has only 10 batches.
    batch_ms: Vec<f64>,
    batch_read_s: Vec<f64>,
    epoch_s: Vec<f64>,
    batches: u64,
    failed_batches: u64,
}

/// Run whole epochs until `budget_s` has passed (at least one). With a
/// stopwatch the batch stream is timed and every epoch is traced.
fn run_epochs(
    trainer: &mut Trainer,
    world: &World,
    rng: &mut StdRng,
    budget_s: f64,
    timed: bool,
    mut after_first: impl FnMut(&Trainer, f32),
) -> Epochs {
    let mut ep = Epochs::default();
    let t_start = Instant::now();
    while ep.epoch_s.is_empty() || t_start.elapsed().as_secs_f64() < budget_s {
        let examples = Cell::new(0usize);
        let yielded = Cell::new(0u64);
        let failed = Cell::new(0u64);
        let mut source = world
            .store
            .batches(BATCH)
            .take(TRAIN_BATCHES)
            .inspect(|_| yielded.set(yielded.get() + 1))
            .map(|b| match b {
                Ok(trips) => {
                    let exs: Vec<Example> = trips
                        .iter()
                        .filter_map(|t| world.mega.example(t, &world.tensors))
                        .collect();
                    if exs.len() != trips.len() {
                        failed.set(failed.get() + 1);
                    }
                    examples.set(examples.get() + exs.len());
                    exs
                }
                Err(_) => {
                    failed.set(failed.get() + 1);
                    Vec::new()
                }
            });
        // When the trainer asks for each batch.
        let asked = RefCell::new(Vec::with_capacity(TRAIN_BATCHES + 1));
        let batches = std::iter::from_fn(|| {
            asked.borrow_mut().push(Instant::now());
            source.next()
        });
        let read = Stopwatch::default();
        let t0 = Instant::now();
        let loss = if timed {
            let _span = st_obs::span("bench/train_epoch");
            trainer.train_epoch_stream(TimedIter::new(batches, &read), rng)
        } else {
            trainer.train_epoch_stream(batches, rng)
        };
        let end = Instant::now();
        let secs = end.duration_since(t0).as_secs_f64();
        let mut asked = asked.into_inner();
        let n = yielded.get() as usize;
        asked.truncate(n + 1);
        if asked.len() == n {
            asked.push(end);
        }
        ep.batch_ms.extend(
            asked
                .windows(2)
                .map(|w| w[1].duration_since(w[0]).as_secs_f64() * 1e3),
        );
        ep.examples.add(examples.get() as f64, secs);
        ep.epoch_s.push(secs);
        // Includes the stream's final `None`, which reads nothing.
        ep.batch_read_s.push(read.secs());
        ep.batches += yielded.get();
        ep.failed_batches += failed.get();
        if ep.epoch_s.len() == 1 {
            after_first(trainer, loss);
        }
    }
    ep
}

/// Run the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let scratch: PathBuf = args
        .out_dir
        .join(format!("train-megacity-{}", std::process::id()));
    let store_dir = scratch.join("store");
    let (world, setup_s) = repeat_setup(SETUPS, || build_world(&store_dir));
    let world = match world {
        Ok(w) => w,
        Err(e) => {
            out.check(false, || format!("set-up failed: {e}"));
            let _ = std::fs::remove_dir_all(&scratch);
            return out;
        }
    };
    check_store(&world, &scratch, &mut out);

    let cfg = DeepStConfig::new(
        world.mega.net.num_segments(),
        world.mega.net.max_out_degree(),
        world.mega.grid.height,
        world.mega.grid.width,
    )
    .with_k(K_PROXIES)
    .with_emb_block_rows(BLOCK_ROWS);
    let tc = TrainConfig {
        epochs: 1,
        batch_size: BATCH,
        shard_size: BATCH,
        num_threads: 1,
        patience: None,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(DeepSt::new(cfg, args.seed), tc);
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7EA1);
    let loss_before = trainer
        .model
        .evaluate_loss(&world.heldout, BATCH, &mut eval_rng());
    let mut heldout_after = f32::NAN;
    let mut train_loss = f32::NAN;
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = run_epochs(&mut trainer, &world, &mut rng, budget, false, |t, loss| {
        heldout_after = t
            .model
            .evaluate_loss(&world.heldout, BATCH, &mut eval_rng());
        train_loss = loss;
    });
    out.ops(plain.batches, plain.failed_batches);
    out.check(train_loss.is_finite(), || {
        format!("epoch training loss is {train_loss}")
    });
    out.check(heldout_after < loss_before, || {
        format!("held-out loss did not drop over the epoch: {loss_before} -> {heldout_after}")
    });
    let rate = plain.examples.per_s();

    if !args.trace {
        out.metric("setup_s", setup_s, "s");
        out.metric("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB");
        out.metric("throughput_per_s", rate, "1/s");
        out.metric("latency_p50_ms", percentile(&plain.batch_ms, 0.50), "ms");
        out.metric("latency_p95_ms", percentile(&plain.batch_ms, 0.95), "ms");
        out.metric("heldout_loss", f64::from(heldout_after), "nats/trip");
    } else {
        st_obs::start_recording();
        let traced = run_epochs(&mut trainer, &world, &mut rng, budget, true, |_, _| {});
        st_obs::stop_recording();
        out.ops(traced.batches, traced.failed_batches);
        let steps: Vec<f64> = traced
            .epoch_s
            .iter()
            .zip(&traced.batch_read_s)
            .map(|(e, r)| e - r)
            .collect();
        let mem = trainer.model.emb_memory();
        out.metric("st-sim.generate_s", world.generate_s, "s");
        out.metric("st-sim.batch_read_s", median(&traced.batch_read_s), "s");
        out.metric("st-core.train_step_s", median(&steps), "s");
        let epochs = traced.epoch_s.len() as f64;
        out.metric(
            "st-core.train_batches",
            traced.batches as f64 / epochs,
            "count",
        );
        out.metric(
            "st-core.emb_grad_resident_mb",
            mem.resident_grad_bytes as f64 / MB,
            "MB",
        );
        out.metric(
            "st-tensor.peak_tape_mb",
            trainer.peak_tape_bytes as f64 / MB,
            "MB",
        );
        out.metric(
            "st-obs.trace_overhead_pct",
            overhead_pct(rate, traced.examples.per_s()),
            "%",
        );
        crate::write_trace(args, "train-megacity", &mut out);
    }
    if let Err(e) = std::fs::remove_dir_all(&scratch) {
        out.check(false, || format!("removing {}: {e}", scratch.display()));
    }
    out
}
