//! Helpers the `fact-serve` integration tests share. Each test binary
//! compiles its own copy of this module and uses a subset of it.
#![allow(dead_code)]

use std::path::PathBuf;

use fact_data::{Matrix, Result};
use fact_ml::Classifier;

/// Probability = first feature, clamped to [0, 1].
pub struct StubModel;

impl Classifier for StubModel {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>> {
        Ok((0..x.rows()).map(|i| x.get(i, 0).clamp(0.0, 1.0)).collect())
    }
}

/// A pid-tagged path under the system temp dir, cleared of any leftover
/// from an earlier run.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fact-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
