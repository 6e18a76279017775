//! End-to-end benchmark of DeepST: streamed training, live-feed serving,
//! and offline decoding and route recovery.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-megacity|serve-live|eval-offline> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its inputs from `--seed`, sets up [`SETUPS`] times
//! (reporting the median set-up), measures for `--seconds`, checks the
//! program's outputs, and prints one JSON object as its last line of
//! standard output. `--trace 0` reports every end-to-end metric of
//! [`END_TO_END`]; `--trace 1` spends half the time untraced and half
//! traced, reports every per-layer metric of [`PER_LAYER`] and writes an
//! st-obs JSONL trace under `perfbench/out/`. Every workload reports the
//! same metrics; a layer it does not run reads 0. A failed output check
//! exits with code 1 after naming the workload. See `perfbench/README.md`.

mod layers;
mod offline;
mod report;
mod serve;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;

use st_core::{DeepSt, TrainConfig, Trainer};
use st_eval::{build_examples, deepst_config};
use st_sim::{CityPreset, Dataset};

use report::Outcome;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Seed of the simulated cities and of model initialisation. The cities
/// and trained models are the same in every run; `--seed` draws the work
/// done on them (trips, requests, arrival times, queries).
pub const CITY_SEED: u64 = 7;

/// End-to-end metrics (name, unit) in `BENCHMARK.json` order. Every
/// workload reports each of them for its own operations.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("heldout_loss", "nats/trip"),
];

/// Per-layer metrics (name, unit) in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("st-sim.generate_s", "s"),
    ("st-sim.batch_read_s", "s"),
    ("st-core.train_step_s", "s"),
    ("st-core.train_batches", "count"),
    ("st-core.emb_grad_resident_mb", "MB"),
    ("st-tensor.peak_tape_mb", "MB"),
    ("st-core.encode_context_s", "s"),
    ("st-core.infer_step_s", "s"),
    ("st-core.infer_rows", "count"),
    ("st-baselines.beam_s", "s"),
    ("st-core.score_route_s", "s"),
    ("st-core.routes_scored", "count"),
    ("st-mapmatch.match_s", "s"),
    ("st-roadnet.ksp_s", "s"),
    ("st-roadnet.ksp_calls", "count"),
    ("st-recovery.gaps", "count"),
    ("st-baselines.closed_fallbacks", "count"),
    ("st-serve.enqueue_us", "us"),
    ("st-serve.ingest_us", "us"),
    ("st-serve.ingest_events", "count"),
    ("st-serve.server_latency_ms", "ms"),
    ("st-serve.queue_depth_p99", "count"),
    ("st-serve.batch_rows", "rows"),
    ("st-core.traffic_cache_hits", "count"),
    ("st-core.traffic_cache_misses", "count"),
    ("st-core.traffic_cache_invalidations", "count"),
    ("loadgen.max_late_ms", "ms"),
    ("st-obs.trace_overhead_pct", "%"),
];

/// Command-line arguments.
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed of every input.
    pub seed: u64,
    /// Seconds to measure.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Where traces and scratch files go.
    pub out_dir: PathBuf,
}

const WORKLOADS: [&str; 3] = ["train-megacity", "serve-live", "eval-offline"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

/// Minibatch size of training and of held-out loss evaluation.
pub const BATCH: usize = 32;

/// A city's simulated trips and the DeepST model trained on them.
pub struct TrainedCity {
    pub ds: Dataset,
    pub model: DeepSt,
    /// Wall time of `Dataset::generate`.
    pub generate_s: f64,
}

/// Simulate `n_trips` trips in a city and train DeepST on the training
/// split: 3 serial epochs of [`BATCH`]-trip minibatches.
pub fn train_city(preset: &CityPreset, n_trips: usize) -> TrainedCity {
    let seed = CITY_SEED;
    let t0 = std::time::Instant::now();
    let ds = Dataset::generate(preset, n_trips, seed);
    let generate_s = t0.elapsed().as_secs_f64();
    let split = ds.default_split();
    let train = build_examples(&ds, &split.train);
    let tc = TrainConfig {
        epochs: 3,
        batch_size: BATCH,
        shard_size: BATCH,
        num_threads: 1,
        patience: None,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(DeepSt::new(deepst_config(&ds, 24), seed), tc);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEE9);
    for _ in 0..3 {
        trainer.train_epoch(&train, &mut rng);
    }
    TrainedCity {
        ds,
        model: trainer.model,
        generate_s,
    }
}

/// The fixed RNG of every held-out loss evaluation, so the loss depends on
/// the model and the trips alone.
pub fn eval_rng() -> StdRng {
    StdRng::seed_from_u64(0x5EED_E7A1)
}

/// Mean negative ELBO per trip of `model` on the dataset trips at
/// `indices`.
pub fn heldout_loss(ds: &Dataset, model: &DeepSt, indices: &[usize]) -> f64 {
    let examples = build_examples(ds, indices);
    f64::from(model.evaluate_loss(&examples, BATCH, &mut eval_rng()))
}

/// Drain the st-obs recording into `out/trace-<workload>.jsonl` and check
/// it with the same validator as the `validate_trace` bin.
pub fn write_trace(args: &Args, workload: &str, out: &mut Outcome) {
    let path = args.out_dir.join(format!("trace-{workload}.jsonl"));
    let meta =
        serde_json::json!({"bench": "perfbench", "workload": workload, "seed": args.seed as f64});
    let written = st_obs::write_jsonl(&path, &meta, &st_obs::drain())
        .map_err(|e| e.to_string())
        .and_then(|()| std::fs::read_to_string(&path).map_err(|e| e.to_string()))
        .and_then(|text| st_obs::validate_jsonl(&text));
    out.check(written.is_ok(), || {
        format!(
            "trace {}: {}",
            path.display(),
            written.err().unwrap_or_default()
        )
    });
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "train-megacity" => train::run(&args),
        "serve-live" => serve::run(&args),
        _ => offline::run(&args),
    };
    if args.trace {
        out.conform(&PER_LAYER, true);
    } else {
        out.conform(&END_TO_END, false);
    }
    for (name, value, unit) in out.metrics() {
        println!(
            "{:<36} {value:>14.4} {unit}",
            format!("{}.{name}", args.workload)
        );
    }
    println!(
        "{}: {} operations, {} failed",
        args.workload, out.attempted, out.failed
    );
    for f in &out.check_failures {
        eprintln!("perfbench: workload {}: check failed: {f}", args.workload);
    }
    match serde_json::to_string(&out.to_json()) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: serializing the result: {e}");
            return ExitCode::FAILURE;
        }
    }
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn manifest() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
    }

    /// The `field` of every entry of the manifest's list `key`.
    fn fields(key: &str, field: &str) -> Vec<String> {
        manifest()
            .get(key)
            .and_then(Value::as_array)
            .expect("a list")
            .iter()
            .map(|e| {
                e.get(field)
                    .and_then(Value::as_str)
                    .expect("a string")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<&str> = list.iter().map(|m| m.0).collect();
            let units: Vec<&str> = list.iter().map(|m| m.1).collect();
            assert_eq!(fields(key, "name"), names, "{key} names");
            assert_eq!(fields(key, "unit"), units, "{key} units");
        }
    }

    #[test]
    fn workloads_match_the_manifest() {
        assert_eq!(fields("workloads", "name"), WORKLOADS);
    }
}
