//! Per-layer timing from outside the program: a stopwatch and decorators
//! around the public traits and iterators the layers meet at.
//!
//! Nothing here reaches inside a crate. [`TimedDecoder`] wraps any
//! [`StepDecoder`], [`TimedSpatial`] any [`SpatialModel`], and
//! [`TimedIter`] any iterator (the `TripStore` batch stream handed to the
//! trainer). Each forwards every call unchanged and adds its wall time to a
//! [`Stopwatch`]; while st-obs recording is on, each timed call is also an
//! st-obs span, so the traced run's JSONL shows the same boundaries.

use std::cell::Cell;
use std::time::Instant;

use st_baselines::StepDecoder;
use st_recovery::SpatialModel;
use st_roadnet::{RoadNetwork, SegmentId};

/// Accumulated wall time and call count of one layer boundary.
#[derive(Default)]
pub struct Stopwatch {
    secs: Cell<f64>,
    calls: Cell<u64>,
}

impl Stopwatch {
    /// Run `f` under the span `name`, adding its wall time to the total.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = {
            let _span = st_obs::span(name);
            f()
        };
        self.secs.set(self.secs.get() + t0.elapsed().as_secs_f64());
        self.calls.set(self.calls.get() + 1);
        out
    }

    /// Total seconds.
    pub fn secs(&self) -> f64 {
        self.secs.get()
    }

    /// Number of timed calls.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// A [`StepDecoder`] that times `step` and `gather` and counts the rows
/// stepped; results pass through untouched.
pub struct TimedDecoder<'w, D> {
    inner: D,
    step: &'w Stopwatch,
    gather: &'w Stopwatch,
    rows: &'w Cell<u64>,
}

impl<'w, D> TimedDecoder<'w, D> {
    /// Wrap `inner`, charging step time to `step`, gather time to `gather`
    /// and stepped rows to `rows`.
    pub fn new(inner: D, step: &'w Stopwatch, gather: &'w Stopwatch, rows: &'w Cell<u64>) -> Self {
        Self {
            inner,
            step,
            gather,
            rows,
        }
    }
}

impl<D: StepDecoder> StepDecoder for TimedDecoder<'_, D> {
    type State = D::State;

    fn width(&self) -> usize {
        self.inner.width()
    }

    fn init_state(&mut self, n: usize) -> Self::State {
        self.inner.init_state(n)
    }

    fn step(
        &mut self,
        net: &RoadNetwork,
        tokens: &[SegmentId],
        state: &mut Self::State,
        logp: &mut Vec<f64>,
    ) {
        self.rows.set(self.rows.get() + tokens.len() as u64);
        let inner = &mut self.inner;
        self.step.time("st-core/infer_step", || {
            inner.step(net, tokens, state, logp)
        });
    }

    fn gather(&mut self, state: &Self::State, rows: &[usize]) -> Self::State {
        let inner = &mut self.inner;
        self.gather
            .time("st-core/gather", || inner.gather(state, rows))
    }

    fn recycle(&mut self, state: Self::State) {
        self.inner.recycle(state);
    }
}

/// A [`SpatialModel`] that times every `log_prob` (one candidate route
/// scored); scores pass through untouched.
pub struct TimedSpatial<'w, S> {
    inner: S,
    watch: &'w Stopwatch,
}

impl<'w, S> TimedSpatial<'w, S> {
    /// Wrap `inner`, charging scoring time to `watch`.
    pub fn new(inner: S, watch: &'w Stopwatch) -> Self {
        Self { inner, watch }
    }
}

impl<S: SpatialModel> SpatialModel for TimedSpatial<'_, S> {
    fn log_prob(
        &self,
        net: &RoadNetwork,
        route: &[SegmentId],
        dest_norm: [f32; 2],
        traffic: &[f32],
        slot_id: usize,
    ) -> f64 {
        self.watch.time("st-core/score_route", || {
            self.inner.log_prob(net, route, dest_norm, traffic, slot_id)
        })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// An iterator whose every `next` is timed: wrapped around the minibatch
/// stream, it measures the time the trainer waits for batches.
pub struct TimedIter<'w, I> {
    inner: I,
    watch: &'w Stopwatch,
}

impl<'w, I> TimedIter<'w, I> {
    /// Wrap `inner`, charging each `next` to `watch`.
    pub fn new(inner: I, watch: &'w Stopwatch) -> Self {
        Self { inner, watch }
    }
}

impl<I: Iterator> Iterator for TimedIter<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let inner = &mut self.inner;
        self.watch.time("st-sim/batch_read", || inner.next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use st_baselines::{beam_decode, DeepStDecoder};
    use st_core::DeepSt;
    use st_eval::deepst_config;
    use st_recovery::DeepStSpatial;
    use st_sim::{CityPreset, Dataset};

    fn world() -> (Dataset, DeepSt) {
        let ds = Dataset::generate(&CityPreset::tiny_test(), 40, 3);
        let model = DeepSt::new(deepst_config(&ds, 8), 3);
        (ds, model)
    }

    #[test]
    fn timed_decoder_decodes_the_same_routes() {
        let (ds, model) = world();
        let (step, gather, rows) = (Stopwatch::default(), Stopwatch::default(), Cell::new(0));
        for trip in ds.trips.iter().take(6) {
            let slot = ds.slot_of(trip.start_time);
            let c = model.encode_traffic(ds.traffic_tensor(slot));
            let ctx = model.encode_context(ds.unit_coord(&trip.dest_coord), Some(c));
            let max_len = model.cfg.max_route_len;
            let mut plain = DeepStDecoder::new(&model, &ctx);
            let want = beam_decode(
                &ds.net,
                &mut plain,
                trip.route[0],
                &trip.dest_coord,
                4,
                max_len,
            );
            let mut timed =
                TimedDecoder::new(DeepStDecoder::new(&model, &ctx), &step, &gather, &rows);
            let got = beam_decode(
                &ds.net,
                &mut timed,
                trip.route[0],
                &trip.dest_coord,
                4,
                max_len,
            );
            assert_eq!(got, want);
        }
        assert!(step.calls() > 0 && rows.get() >= step.calls());
        assert!(step.secs() > 0.0);
    }

    #[test]
    fn timed_spatial_scores_the_same() {
        let (ds, model) = world();
        let watch = Stopwatch::default();
        let plain = DeepStSpatial::new(&model);
        let timed = TimedSpatial::new(DeepStSpatial::new(&model), &watch);
        for trip in ds.trips.iter().take(6) {
            let slot = ds.slot_of(trip.start_time);
            let tensor = ds.traffic_tensor(slot);
            let dest = ds.unit_coord(&trip.dest_coord);
            let want = plain.log_prob(&ds.net, &trip.route, dest, tensor, slot);
            let got = timed.log_prob(&ds.net, &trip.route, dest, tensor, slot);
            assert_eq!(got.to_bits(), want.to_bits());
        }
        assert_eq!(timed.name(), plain.name());
        assert_eq!(watch.calls(), 6);
    }

    #[test]
    fn timed_iter_yields_the_same_items() {
        let watch = Stopwatch::default();
        let got: Vec<u32> = TimedIter::new(0..5u32, &watch).collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        // Five items plus the final `None`.
        assert_eq!(watch.calls(), 6);
    }
}
