//! Guard-state checkpointing: periodic + on-shutdown serialization of each
//! shard's fairness window, ε ledger, and monitor counters to a sidecar
//! file, restored on restart so a respawned shard **resumes** instead of
//! silently resetting. [`GuardCheckpoint::capture`] and
//! [`GuardCheckpoint::restore_into`] decide what a shard's [`Guards`] keep.
//!
//! The fairness window travels as a [`WindowSummary`] — per-segment paired
//! count-vectors — so what a restart loses is *provable and bounded*: at
//! most the decisions since the last checkpoint, and within the restored
//! window at most one segment's worth of event ordering. The ε ledger is
//! exact (every recorded expenditure is replayed into a fresh accountant).
//! The drift monitor's recent-score window is deliberately *not*
//! checkpointed: its reference distribution is configuration, and its
//! sliding window refills within `window` decisions.
//!
//! Files are one JSON document per shard, `shard-N.json`, written with
//! [`write_atomic`] so a crash mid-write leaves the previous checkpoint
//! intact rather than a torn one.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use fact_core::runtime::Guards;
use fact_data::durable::write_atomic;
use fact_data::Result;
use fact_fairness::WindowSummary;
use serde::{Deserialize, Serialize};

/// When and where guard state is checkpointed.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding one `shard-N.json` per shard.
    pub dir: PathBuf,
    /// Decisions between periodic checkpoints (a final checkpoint is
    /// always written on clean worker exit regardless).
    pub every: u64,
    /// Segment resolution for the serialized fairness window: smaller
    /// segments mean finer restored ordering at more checkpoint bytes.
    pub segment_events: usize,
}

impl CheckpointConfig {
    /// Checkpoint every `every` decisions into `dir` at the default
    /// resolution (1/16 of nothing in particular — 128-event segments).
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every,
            segment_events: 128,
        }
    }
}

/// One recorded ε/δ expenditure, as serialized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Purpose label from the accountant's ledger.
    pub label: String,
    /// Epsilon spent.
    pub epsilon: f64,
    /// Delta spent.
    pub delta: f64,
}

/// Everything a shard's guard set needs to resume after a restart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuardCheckpoint {
    /// Shard index this checkpoint belongs to.
    pub shard: u64,
    /// Lifetime decisions served by the shard at checkpoint time
    /// (survives restarts: a restored shard keeps counting from here).
    pub decisions: u64,
    /// The fairness monitor's sliding window, segment-summarized.
    pub window: WindowSummary,
    /// The privacy accountant's full expenditure ledger.
    pub ledger: Vec<LedgerEntry>,
    /// The accountant's ε budget when the checkpoint was written; the
    /// reshard transform checks successor ledgers against it. Restore does
    /// not read it: it replays the ledger into the budget configured at
    /// restart, and fails when the ledger exceeds that budget.
    pub budget_epsilon: f64,
    /// The accountant's δ budget.
    pub budget_delta: f64,
    /// Decisions accumulated toward the DP counter's next release.
    pub dp_pending: u64,
    /// Whether the DP counter already reported budget exhaustion.
    pub dp_exhausted: bool,
}

impl GuardCheckpoint {
    /// Capture `guards`' resumable state: the fairness window as a segment
    /// summary, the full ε ledger, and the DP counter's counters. The drift
    /// monitor's score window is excluded by design (see the module docs).
    pub fn capture(
        guards: &Guards,
        shard: usize,
        decisions: u64,
        segment_events: usize,
    ) -> Result<Self> {
        let acc = &guards.accountant;
        Ok(GuardCheckpoint {
            shard: shard as u64,
            decisions,
            window: guards.fairness.summary(segment_events)?,
            ledger: acc
                .ledger()
                .iter()
                .map(|e| LedgerEntry {
                    label: e.label.clone(),
                    epsilon: e.epsilon,
                    delta: e.delta,
                })
                .collect(),
            budget_epsilon: acc.budget_epsilon(),
            budget_delta: acc.budget_delta(),
            dp_pending: guards.dp.pending() as u64,
            dp_exhausted: guards.dp.exhausted_reported(),
        })
    }

    /// Resume freshly built `guards`: the fairness window is resynthesized
    /// from the summary (exact per-segment counts), the DP counter resumes
    /// mid-interval, and the ledger is replayed into the budget configured
    /// now. A ledger over that budget fails with
    /// [`FactError::BudgetExhausted`] (startup fails; no ε is refunded); a
    /// larger budget keeps the spent ε. Call before the guards observe.
    ///
    /// [`FactError::BudgetExhausted`]: fact_data::FactError::BudgetExhausted
    pub fn restore_into(&self, guards: &mut Guards) -> Result<()> {
        guards.fairness.restore(&self.window);
        for e in &self.ledger {
            guards
                .accountant
                .spend(e.epsilon, e.delta, e.label.clone())?;
        }
        guards
            .dp
            .restore(self.dp_pending as usize, self.dp_exhausted);
        Ok(())
    }
}

/// `dir/shard-N.json`.
pub fn checkpoint_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.json"))
}

/// Durably write `ck` under `dir`, creating the directory if needed.
/// Atomic against crashes via [`write_atomic`]: a crash mid-write leaves
/// the previous checkpoint intact.
pub fn write_checkpoint(dir: &Path, ck: &GuardCheckpoint) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let json = serde_json::to_string(ck)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    write_atomic(&checkpoint_path(dir, ck.shard as usize), json.as_bytes())
}

/// Load shard `shard`'s checkpoint from `dir`; `Ok(None)` when none has
/// been written yet (first boot). A present-but-unparseable checkpoint is
/// an error, not a silent reset — resuming from nothing when state was
/// expected is exactly the failure checkpointing exists to prevent.
pub fn load_checkpoint(dir: &Path, shard: usize) -> io::Result<Option<GuardCheckpoint>> {
    let path = checkpoint_path(dir, shard);
    let json = match fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    serde_json::from_str(&json)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fact-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(shard: u64) -> GuardCheckpoint {
        let window =
            WindowSummary::from_events(100, 10, (0..37u64).map(|i| (i % 2 == 0, i % 3 == 0)))
                .unwrap();
        GuardCheckpoint {
            shard,
            decisions: 1234,
            window,
            ledger: vec![
                LedgerEntry {
                    label: "dp-release".into(),
                    epsilon: 0.01,
                    delta: 0.0,
                },
                LedgerEntry {
                    label: "dp-release".into(),
                    epsilon: 0.01,
                    delta: 0.0,
                },
            ],
            budget_epsilon: 1.0,
            budget_delta: 0.0,
            dp_pending: 42,
            dp_exhausted: false,
        }
    }

    #[test]
    fn roundtrips_through_disk() {
        let dir = temp_dir("roundtrip");
        let ck = sample(3);
        write_checkpoint(&dir, &ck).unwrap();
        let back = load_checkpoint(&dir, 3).unwrap().unwrap();
        assert_eq!(back, ck);
        // other shards are unaffected / absent
        assert!(load_checkpoint(&dir, 4).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_first_boot_not_error() {
        let dir = temp_dir("absent");
        assert!(load_checkpoint(&dir, 0).unwrap().is_none());
    }

    #[test]
    fn rewrite_replaces_atomically_and_corruption_is_loud() {
        let dir = temp_dir("rewrite");
        write_checkpoint(&dir, &sample(0)).unwrap();
        let mut newer = sample(0);
        newer.decisions = 9999;
        write_checkpoint(&dir, &newer).unwrap();
        assert_eq!(load_checkpoint(&dir, 0).unwrap().unwrap().decisions, 9999);
        // no stray tmp files left behind
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "tmp")
            })
            .collect();
        assert!(stray.is_empty());

        fs::write(checkpoint_path(&dir, 0), b"{ torn").unwrap();
        assert!(load_checkpoint(&dir, 0).is_err(), "corruption must be loud");
        let _ = fs::remove_dir_all(&dir);
    }
}
