//! Guard state on disk: periodic + on-shutdown serialization of each
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
//! intact rather than a torn one. This module is the only one that knows
//! that layout: one reader loads a topology's whole set, one builder makes
//! each local shard's restored [`Guards`] from it before any worker spawns,
//! a pure function turns N shards' state into M shards' with no I/O, and
//! [`transform_checkpoints`] runs it over a directory.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use fact_core::runtime::Guards;
use fact_data::durable::write_atomic;
use fact_data::Result;
use fact_fairness::{SegmentCounts, WindowSummary};
use serde::{Deserialize, Serialize};

use crate::service::{ServeConfig, ServeError};

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

/// The shard a `shard-N.json` file name belongs to: the inverse of
/// [`checkpoint_path`].
fn shard_of_file(name: &std::ffi::OsStr) -> Option<usize> {
    let stem = name.to_str()?.strip_prefix("shard-")?;
    stem.strip_suffix(".json")?.parse().ok()
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

/// A result whose error is a [`ServeError`].
type Served<T> = std::result::Result<T, ServeError>;

/// Read the sidecar set of a `shards`-shard topology from `dir`: entry
/// `k` is shard `k`'s checkpoint, `None` before its first write (a
/// missing directory is a first boot); an unreadable one fails the set.
/// A sidecar for a shard `>= shards` is refused with
/// [`ServeError::BadRequest`], files untouched: starting fewer shards than
/// wrote the set would drop those shards' fairness windows and ε ledgers,
/// refunding privacy budget. Reshard the set first.
fn load_sidecars(dir: &Path, shards: usize) -> Served<Vec<Option<GuardCheckpoint>>> {
    let listing = match fs::read_dir(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        listing => listing
            .and_then(|l| l.collect::<io::Result<Vec<_>>>())
            .map_err(failed(format!("listing {}", dir.display())))?,
    };
    let mut stale: Vec<usize> = (listing.iter())
        .filter_map(|entry| shard_of_file(&entry.file_name()))
        .filter(|&k| k >= shards)
        .collect();
    stale.sort_unstable();
    if let Some(last) = stale.last() {
        let files: Vec<String> = (stale.iter())
            .map(|&k| checkpoint_path(dir, k).display().to_string())
            .collect();
        return Err(ServeError::BadRequest(format!(
            "sidecars for shards past {shards} exist: {}; starting {shards} shard(s) would \
             drop their fairness windows and ε ledgers — reshard the directory to {shards} \
             first, or start {} shards",
            files.join(", "),
            last + 1
        )));
    }
    (0..shards)
        .map(|shard| {
            load_checkpoint(dir, shard).map_err(failed(format!("shard {shard} checkpoint load")))
        })
        .collect()
}

/// A local shard's guard set (`None` with guards off) and the lifetime
/// decisions its sidecar restored (0 without one).
pub(crate) type ShardState = (Option<Guards>, u64);

/// The [`ShardState`] of each shard in `local`, its guards seeded with
/// `config.seed + shard` and restored from its sidecar. The sidecar set is
/// read and checked as [`load_sidecars`] does first; nothing is written.
pub(crate) fn build_guard_state(
    config: &ServeConfig,
    shards: usize,
    local: &[usize],
) -> Served<Vec<ShardState>> {
    let Some(guard_config) = &config.guards else {
        return Ok(local.iter().map(|_| (None, 0)).collect());
    };
    let mut sidecars = match &config.checkpoint {
        Some(ck) => load_sidecars(&ck.dir, shards)?,
        None => vec![None; shards],
    };
    (local.iter())
        .map(|&shard| {
            let mut guards = Guards::new(guard_config, config.seed.wrapping_add(shard as u64))
                .map_err(|e| ServeError::BadRequest(e.to_string()))?;
            let ck = sidecars[shard].take();
            if let Some(ck) = &ck {
                (ck.restore_into(&mut guards))
                    .map_err(failed(format!("shard {shard} checkpoint restore")))?;
            }
            Ok((Some(guards), ck.map_or(0, |ck| ck.decisions)))
        })
        .collect()
}

/// What [`transform_checkpoints`] conserved, with the numbers to prove it.
#[derive(Debug, Clone)]
pub struct TransformReport {
    /// Summed window counts before the merge.
    pub pre_counts: SegmentCounts,
    /// Summed window counts after the split; equals `pre_counts`.
    pub post_counts: SegmentCounts,
    /// Summed lifetime decisions before.
    pub pre_decisions: u64,
    /// Summed lifetime decisions after; equals `pre_decisions`.
    pub post_decisions: u64,
    /// ε-ledger entries redistributed.
    pub ledger_entries: u64,
}

/// The transform behind [`transform_checkpoints`], over the shards that
/// have a sidecar (a shard that never served has none; one is needed).
/// Pure: it reads and writes nothing.
pub(crate) fn transform(
    checkpoints: &[GuardCheckpoint],
    to: usize,
    budget_epsilon: f64,
) -> Served<(Vec<GuardCheckpoint>, TransformReport)> {
    let merged = WindowSummary::merge_all(checkpoints.iter().map(|ck| &ck.window))
        .map_err(|e| ServeError::Internal(format!("window merge failed: {e}")))?
        .ok_or_else(|| ServeError::Internal("no sidecar to transform".into()))?;
    let parts = merged
        .split(to)
        .map_err(|e| ServeError::Internal(format!("window split failed: {e}")))?;

    // Deal the ledgers round-robin, preserving shard order, and check each
    // successor against the budget.
    let mut ledgers: Vec<Vec<LedgerEntry>> = vec![Vec::new(); to];
    for (j, entry) in checkpoints.iter().flat_map(|ck| &ck.ledger).enumerate() {
        ledgers[j % to].push(entry.clone());
    }
    for (i, ledger) in ledgers.iter().enumerate() {
        let eps: f64 = ledger.iter().map(|e| e.epsilon).sum();
        if eps > budget_epsilon {
            return Err(ServeError::BadRequest(format!(
                "reshard to {to} shards would replay ε={eps:.4} into successor {i}, \
                 over its budget {budget_epsilon:.4}; the ledger is conserved, not \
                 truncated — reshard to more shards or raise the budget"
            )));
        }
    }

    // Sum-then-split the scalar counters, remainder to the first parts.
    let total = |count: fn(&GuardCheckpoint) -> u64| checkpoints.iter().map(count).sum::<u64>();
    let (decisions, dp_pending) = (total(|ck| ck.decisions), total(|ck| ck.dp_pending));
    let share =
        |total: u64, i: usize| total / to as u64 + u64::from((i as u64) < total % to as u64);
    let ledger_entries = ledgers.iter().map(|l| l.len() as u64).sum();
    let successors: Vec<GuardCheckpoint> = (parts.into_iter().zip(ledgers).enumerate())
        .map(|(i, (window, ledger))| GuardCheckpoint {
            shard: i as u64,
            decisions: share(decisions, i),
            window,
            ledger,
            budget_epsilon,
            budget_delta: checkpoints[0].budget_delta,
            dp_pending: share(dp_pending, i),
            dp_exhausted: checkpoints.iter().any(|ck| ck.dp_exhausted),
        })
        .collect();
    let report = TransformReport {
        pre_counts: summed_counts(checkpoints),
        post_counts: summed_counts(&successors),
        pre_decisions: decisions,
        post_decisions: successors.iter().map(|ck| ck.decisions).sum(),
        ledger_entries,
    };
    Ok((successors, report))
}

/// Rewrite the sidecars under `dir` from `from` shards to `to`,
/// conserving every count. This is the state transform behind
/// [`DecisionService::reshard`](crate::DecisionService::reshard); it also
/// runs offline between process generations.
///
/// * Fairness windows are folded with [`WindowSummary::merge_all`] and
///   fanned out with [`WindowSummary::split`]; the summed segment counts
///   are bit-equal before and after (both are reported).
/// * ε-ledger entries are dealt round-robin (entry *j* → successor
///   `j % to`, in shard order), so every recorded expenditure is replayed
///   exactly once. If any successor's total ε would exceed
///   `budget_epsilon` — the budget the successors restore into, which
///   every successor records — the transform fails **before writing
///   anything**: conservation over silent loss.
/// * Lifetime decision and DP-pending counts sum-then-split with the
///   remainder dealt to the first successors; `dp_exhausted` is OR-folded
///   (an exhausted budget anywhere stays exhausted everywhere).
/// * When shrinking, the stale `shard-j.json` for `j >= to` are removed
///   so a later grow cannot resurrect pre-transform state.
///
/// The set is read as a start reads it, so a sidecar past `from` is
/// refused. A shard without a sidecar is skipped (one that never served
/// still drains cleanly); at least one must exist.
pub fn transform_checkpoints(
    dir: &Path,
    from: usize,
    to: usize,
    budget_epsilon: f64,
) -> Served<TransformReport> {
    if from == 0 || to == 0 {
        return Err(ServeError::BadRequest(
            "transform needs from > 0 and to > 0".into(),
        ));
    }
    let checkpoints: Vec<GuardCheckpoint> =
        load_sidecars(dir, from)?.into_iter().flatten().collect();
    let (successors, report) = transform(&checkpoints, to, budget_epsilon)?;
    for ck in &successors {
        write_checkpoint(dir, ck).map_err(failed(format!("writing sidecar {}", ck.shard)))?;
    }
    for stale in (to..from).map(|k| checkpoint_path(dir, k)) {
        if stale.exists() {
            fs::remove_file(&stale).map_err(failed(format!("removing {}", stale.display())))?;
        }
    }
    Ok(report)
}

/// Map a failure while `doing` something to [`ServeError::Internal`].
fn failed<E: std::fmt::Display>(doing: String) -> impl FnOnce(E) -> ServeError {
    move |e| ServeError::Internal(format!("{doing}: {e}"))
}

/// Window counts summed cell by cell over `checkpoints`.
fn summed_counts(checkpoints: &[GuardCheckpoint]) -> SegmentCounts {
    let mut sum: SegmentCounts = [[0; 2]; 2];
    for counts in checkpoints.iter().map(|ck| ck.window.counts()) {
        for (s, c) in sum.iter_mut().flatten().zip(counts.iter().flatten()) {
            *s += c;
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

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

    /// A sidecar with `events` in a 200-event window at 10-event segments.
    fn arbitrary_checkpoint(
        shard: u64,
        events: Vec<(bool, bool)>,
        epsilons: Vec<f64>,
        decisions: u64,
        dp_pending: u64,
        dp_exhausted: bool,
    ) -> GuardCheckpoint {
        GuardCheckpoint {
            shard,
            decisions,
            window: WindowSummary::from_events(200, 10, events).unwrap(),
            ledger: epsilons
                .into_iter()
                .enumerate()
                .map(|(j, epsilon)| LedgerEntry {
                    label: format!("release-{shard}-{j}"),
                    epsilon,
                    delta: 0.0,
                })
                .collect(),
            budget_epsilon: 1.0,
            budget_delta: 0.0,
            dp_pending,
            dp_exhausted,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any N → M transform conserves window cells, ledger entries,
        /// decisions and DP-pending counts, OR-folds `dp_exhausted`, and
        /// refuses exactly when a successor's dealt ledger is over budget.
        #[test]
        fn transform_conserves_everything_or_refuses_over_budget(
            shards in prop::collection::vec(
                (
                    prop::collection::vec((any::<bool>(), any::<bool>()), 0..300),
                    prop::collection::vec(0.0f64..0.2, 0..12),
                    (0u64..100_000, 0u64..500, (0u8..10).prop_map(|d| d == 0)),
                ),
                1..=8,
            ),
            to in 1usize..=8,
            budget_epsilon in 0.0f64..1.5,
        ) {
            let before: Vec<GuardCheckpoint> = shards
                .into_iter()
                .enumerate()
                .map(|(k, (events, eps, (decisions, pending, exhausted)))| {
                    arbitrary_checkpoint(k as u64, events, eps, decisions, pending, exhausted)
                })
                .collect();
            // the oracle: entry j of the shard-ordered ledger goes to j % to
            let mut dealt = vec![0.0f64; to];
            for (j, e) in before.iter().flat_map(|ck| &ck.ledger).enumerate() {
                dealt[j % to] += e.epsilon;
            }
            let over = dealt.iter().any(|&eps| eps > budget_epsilon);
            let (after, report) = match transform(&before, to, budget_epsilon) {
                Err(e) => {
                    prop_assert!(over, "refused within budget: {e}");
                    prop_assert!(matches!(e, ServeError::BadRequest(_)));
                    return Ok(());
                }
                Ok(done) => done,
            };
            prop_assert!(!over, "an over-budget successor was written");
            prop_assert_eq!(after.len(), to);
            for (i, ck) in after.iter().enumerate() {
                prop_assert_eq!(ck.shard, i as u64);
                prop_assert_eq!(ck.budget_epsilon, budget_epsilon);
            }

            prop_assert_eq!(summed_counts(&after), summed_counts(&before));
            prop_assert_eq!(report.pre_counts, report.post_counts);
            prop_assert_eq!(report.pre_counts, summed_counts(&before));

            let mut labels_before: Vec<&str> =
                before.iter().flat_map(|ck| &ck.ledger).map(|e| e.label.as_str()).collect();
            let mut labels_after: Vec<&str> =
                after.iter().flat_map(|ck| &ck.ledger).map(|e| e.label.as_str()).collect();
            labels_before.sort_unstable();
            labels_after.sort_unstable();
            prop_assert_eq!(report.ledger_entries, labels_before.len() as u64);
            prop_assert_eq!(labels_after, labels_before);

            let sum = |f: fn(&GuardCheckpoint) -> u64, cks: &[GuardCheckpoint]| -> u64 {
                cks.iter().map(f).sum()
            };
            prop_assert_eq!(sum(|ck| ck.decisions, &after), sum(|ck| ck.decisions, &before));
            prop_assert_eq!(report.post_decisions, report.pre_decisions);
            prop_assert_eq!(sum(|ck| ck.dp_pending, &after), sum(|ck| ck.dp_pending, &before));
            let exhausted = before.iter().any(|ck| ck.dp_exhausted);
            prop_assert!(after.iter().all(|ck| ck.dp_exhausted == exhausted));
        }
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
