//! Helpers the `fact-serve` integration tests share. Each test binary
//! compiles its own copy of this module and uses a subset of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use fact_data::{Matrix, Result};
use fact_ml::Classifier;
use fact_serve::{GuardCheckpoint, GuardState};

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

/// The slots of the guard-state document under `dir`; panics when there
/// is none or it does not load.
pub fn guard_slots(dir: &Path) -> Vec<Option<GuardCheckpoint>> {
    (GuardState::load(dir).expect("readable guard state"))
        .expect("a guard-state document")
        .shards
}

/// Write `checkpoints` under `dir` as one guard-state document, slot `k`
/// holding the `k`th.
pub fn write_guard_state(dir: &Path, checkpoints: Vec<GuardCheckpoint>) {
    let shards = checkpoints.into_iter().map(Some).collect();
    GuardState { shards }.write(dir).expect("write guard state");
}

/// Every file under `dir` with its bytes, by path; empty when `dir` does
/// not exist.
pub fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut files = BTreeMap::new();
    let Ok(listing) = std::fs::read_dir(dir) else {
        return files;
    };
    for entry in listing {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files.extend(tree(&path));
        } else {
            let bytes = std::fs::read(&path).expect("read scratch file");
            files.insert(path, bytes);
        }
    }
    files
}
