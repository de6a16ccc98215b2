//! Feature sources: where a shard's feature vectors come from.
//!
//! Experiment E11 simulated a remote feature store by sleeping inside the
//! model's `predict_proba`. That conflated two very different costs —
//! feature *fetch* latency (I/O, overlappable across shards) and model
//! *compute* — so the simulation is promoted to a first-class seam here:
//! a [`FeatureSource`] runs **once per micro-batch, before the model**,
//! turning the batch's routing keys and inline features into the matrix the
//! model scores. One batched fetch amortizes the round trip across the
//! whole micro-batch, exactly how a production feature store would be
//! called.
//!
//! [`InlineFeatures`] (the default wired by [`DecisionService::start`])
//! passes the request-supplied vectors through untouched. A
//! [`SimulatedRemoteSource`] adds a fixed per-batch latency in front, which
//! is what `exp_e11` now uses in place of its sleeping model wrapper.
//!
//! [`DecisionService::start`]: crate::service::DecisionService::start

use std::time::Duration;

use fact_data::{Matrix, Result};

/// A per-batch provider of model-ready feature matrices.
///
/// `keys` are the routing keys of the jobs in the micro-batch (one per
/// row); `inline` holds the feature vectors the requests carried. A real
/// implementation would look the keys up in a feature store and may ignore
/// the inline vectors entirely; the bundled implementations derive the
/// matrix from `inline`.
///
/// Implementations are shared across shard workers, so they must be
/// `Send + Sync`; a fetch error fails every job in the batch with
/// [`ServeError::Internal`](crate::ServeError::Internal).
pub trait FeatureSource: Send + Sync {
    /// Assemble the feature matrix for one micro-batch.
    fn fetch_batch(&self, keys: &[u64], inline: &[Vec<f64>]) -> Result<Matrix>;
}

/// The default source: requests already carry their features; batch
/// assembly is a row-copy with no I/O.
#[derive(Debug, Clone, Copy, Default)]
pub struct InlineFeatures;

impl FeatureSource for InlineFeatures {
    fn fetch_batch(&self, _keys: &[u64], inline: &[Vec<f64>]) -> Result<Matrix> {
        Matrix::from_rows(inline)
    }
}

/// A feature store simulated as a fixed round-trip latency per batched
/// fetch. The returned features are the inline ones — only the *cost* of a
/// remote call is modeled, which is all the serving experiments need.
#[derive(Debug, Clone, Copy)]
pub struct SimulatedRemoteSource {
    /// Round-trip latency charged once per `fetch_batch` call.
    pub latency: Duration,
}

impl SimulatedRemoteSource {
    /// A source charging `latency` per batched fetch.
    pub fn new(latency: Duration) -> Self {
        SimulatedRemoteSource { latency }
    }
}

impl FeatureSource for SimulatedRemoteSource {
    fn fetch_batch(&self, _keys: &[u64], inline: &[Vec<f64>]) -> Result<Matrix> {
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
        Matrix::from_rows(inline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn inline_source_is_a_passthrough() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let m = InlineFeatures.fetch_batch(&[7, 8], &rows).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn simulated_source_charges_latency_per_batch_not_per_row() {
        let src = SimulatedRemoteSource::new(Duration::from_millis(5));
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64]).collect();
        let keys: Vec<u64> = (0..50).collect();
        let t0 = Instant::now();
        let m = src.fetch_batch(&keys, &rows).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(m.rows(), 50);
        assert!(elapsed >= Duration::from_millis(5));
        assert!(
            elapsed < Duration::from_millis(100),
            "latency must not scale with rows: {elapsed:?}"
        );
    }
}
