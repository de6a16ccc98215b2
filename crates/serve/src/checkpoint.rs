//! Guard state on disk: periodic + on-shutdown serialization of each
//! shard's fairness window, ε ledger, and monitor counters, restored on
//! restart so a respawned shard **resumes** instead of
//! silently resetting. [`GuardCheckpoint::capture`] and
//! [`GuardCheckpoint::restore_into`] decide what a shard's [`Guards`] keep.
//!
//! The fairness window travels as the monitor's own codes, oldest first,
//! one character `0`–`3` per event ([`StreamingFairnessMonitor::codes`]):
//! a capture is at most `fairness_window` bytes, and a restore rebuilds it
//! event for event. What a restart loses is therefore *provable and
//! bounded*: at most the decisions since the last checkpoint. The ε
//! ledger is exact (every recorded expenditure is replayed into a fresh
//! accountant).
//! The drift monitor's recent-score window is deliberately *not*
//! checkpointed: its reference distribution is configuration, and its
//! sliding window refills within `window` decisions.
//!
//! All shards' state is one document, [`GuardState`], replaced as a whole,
//! so a crash leaves the previous set intact, never a torn one or a mix.
//! Only this module knows that layout; it restores each local shard's
//! [`Guards`] before any worker spawns, takes the workers' writes, and
//! turns N shards' state into M shards' ([`transform_checkpoints`]).
//!
//! [`StreamingFairnessMonitor::codes`]: fact_core::runtime::StreamingFairnessMonitor::codes

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use fact_core::runtime::Guards;
use fact_data::durable::write_atomic;
use fact_data::Result;
use serde::{Deserialize, Serialize};

use crate::service::{ServeConfig, ServeError};

/// When and where guard state is checkpointed.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding the guard-state document, `guards.json`.
    pub dir: PathBuf,
    /// Decisions between periodic checkpoints (a final checkpoint is
    /// always written on clean worker exit regardless).
    pub every: u64,
}

impl CheckpointConfig {
    /// Checkpoint every `every` decisions into `dir`.
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every,
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
    /// The fairness monitor's sliding window, oldest first, one character
    /// `0`–`3` per event (bit 1 = group B, bit 0 = favorable).
    pub window: String,
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
    /// Capture `guards`' resumable state: the fairness window's codes, the
    /// full ε ledger, and the DP counter's counters. The drift monitor's
    /// score window is excluded by design (see the module docs).
    pub fn capture(guards: &Guards, shard: usize, decisions: u64) -> Self {
        let acc = &guards.accountant;
        GuardCheckpoint {
            shard: shard as u64,
            decisions,
            window: guards.fairness.codes(),
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
        }
    }

    /// Resume freshly built `guards`: the fairness window replays its
    /// newest `fairness_window` codes, the DP counter resumes mid-interval,
    /// and the ledger is replayed into the budget configured now. A ledger
    /// over that budget fails with [`FactError::BudgetExhausted`] (startup
    /// fails; no ε is refunded); a larger budget keeps the spent ε. Call
    /// before the guards observe.
    ///
    /// [`FactError::BudgetExhausted`]: fact_data::FactError::BudgetExhausted
    pub fn restore_into(&self, guards: &mut Guards) -> Result<()> {
        guards.fairness.restore(&self.window)?;
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

/// The document under [`CheckpointConfig::dir`] holding every shard's state.
const DOCUMENT: &str = "guards.json";

/// A result whose error is a [`ServeError`].
type Served<T> = std::result::Result<T, ServeError>;

/// The guard-state document, `guards.json`: slot `k` holds shard `k`'s
/// last checkpoint, so it records the shard count that wrote it. Its
/// [`write_atomic`] rename is the commit point of the whole set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuardState {
    /// One slot per shard, in shard order.
    pub shards: Vec<Option<GuardCheckpoint>>,
}

impl GuardState {
    /// Read the document under `dir`; `Ok(None)` on first boot. A corrupt
    /// document, or a directory of the `shard-*.json` files it replaced,
    /// fails rather than resets: ignoring either would refund ε.
    pub fn load(dir: &Path) -> Served<Option<GuardState>> {
        let path = dir.join(DOCUMENT);
        let corrupt =
            |e| ServeError::Internal(format!("checkpoint {} is corrupt: {e}", path.display()));
        match fs::read(&path) {
            Ok(bytes) => GuardState::parse(&bytes).map(Some).map_err(corrupt),
            Err(e) if e.kind() == io::ErrorKind::NotFound => refuse_old_layout(dir).map(|()| None),
            Err(e) => Err(failed(format!("reading {}", path.display()))(e)),
        }
    }

    /// Decode a document, refusing a slot holding another shard's
    /// checkpoint, a window character other than `0`–`3`, or a non-finite
    /// ε or δ.
    fn parse(bytes: &[u8]) -> std::result::Result<GuardState, String> {
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        let state: GuardState = serde_json::from_str(text).map_err(|e| e.to_string())?;
        for (k, ck) in state.shards.iter().enumerate() {
            let Some(ck) = ck else { continue };
            if ck.shard != k as u64 {
                return Err(format!("slot {k} holds shard {}'s checkpoint", ck.shard));
            }
            if !ck.window.bytes().all(|c| (b'0'..=b'3').contains(&c)) {
                return Err(format!("shard {k}'s window holds a code other than 0-3"));
            }
            let ledger = ck.ledger.iter().flat_map(|e| [e.epsilon, e.delta]);
            let mut floats = ledger.chain([ck.budget_epsilon, ck.budget_delta]);
            if !floats.all(f64::is_finite) {
                return Err(format!("shard {k} records a non-finite ε or δ"));
            }
        }
        Ok(state)
    }

    /// Durably replace the document under `dir`, creating `dir` if needed.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)?;
        let json = serde_json::to_string(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_atomic(&dir.join(DOCUMENT), json.as_bytes())
    }
}

/// Refuse a directory of `shard-*.json` files, the layout [`GuardState`]
/// replaced.
fn refuse_old_layout(dir: &Path) -> Served<()> {
    let listing = match fs::read_dir(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        listing => listing.and_then(Iterator::collect::<io::Result<Vec<_>>>),
    };
    let listing = listing.map_err(failed(format!("listing {}", dir.display())))?;
    let mut old: Vec<String> = (listing.iter())
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("shard-") && name.ends_with(".json"))
        .collect();
    if old.is_empty() {
        return Ok(());
    }
    old.sort_unstable();
    Err(ServeError::BadRequest(format!(
        "{} holds per-shard checkpoints ({}) and no {DOCUMENT}; starting without their \
         fairness windows and ε ledgers would drop them",
        dir.display(),
        old.join(", ")
    )))
}

/// A local shard's guard set (`None` with guards off) and the lifetime
/// decisions its checkpoint restored (0 without one).
pub(crate) type ShardState = (Option<Guards>, u64);

/// The document a running epoch checkpoints into, seeded with what its
/// start loaded so a shard that has not written yet keeps its restored
/// state there.
pub(crate) struct GuardSlots {
    pub(crate) config: CheckpointConfig,
    /// Flush requests; workers compare it after every batch.
    pub(crate) requested: AtomicU64,
    state: Mutex<GuardState>,
}

impl GuardSlots {
    /// Capture `guards` into slot `shard` and durably rewrite the document;
    /// returns whether it was written. The lock is held through the write:
    /// [`write_atomic`] stages at one fixed `<path>.tmp`.
    pub(crate) fn checkpoint(&self, guards: &Guards, shard: usize, decisions: u64) -> bool {
        let ck = GuardCheckpoint::capture(guards, shard, decisions);
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.shards[shard] = Some(ck);
        state.write(&self.config.dir).is_ok()
    }

    /// Every slot as the epoch last captured it, whether or not that
    /// capture reached the disk.
    pub(crate) fn slots(&self) -> Vec<Option<GuardCheckpoint>> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.shards.clone()
    }
}

/// The slots a start restores from: the document under the checkpoint
/// directory, or `config.shards` empty ones on first boot or with guards
/// or checkpointing off. A document of another shard count is refused:
/// fewer shards would drop ε ledgers, more would mis-route keys' windows.
pub(crate) fn load_slots(config: &ServeConfig) -> Served<Vec<Option<GuardCheckpoint>>> {
    let (shards, empty) = (config.shards, vec![None; config.shards]);
    let (Some(_), Some(ck)) = (&config.guards, &config.checkpoint) else {
        return Ok(empty);
    };
    let Some(state) = GuardState::load(&ck.dir)? else {
        return Ok(empty);
    };
    let wrote = state.shards.len();
    if wrote != shards {
        return Err(ServeError::BadRequest(format!(
            "the guard state in {} was written by {wrote} shard(s), and this start \
             asks for {shards} — reshard the directory first, or start {wrote}",
            ck.dir.display()
        )));
    }
    Ok(state.shards)
}

/// The [`ShardState`] of each shard in `local`, its guards seeded with
/// `config.seed + shard` and restored from its slot, and the table the
/// epoch writes, seeded with `slots` so a shard that has not written yet
/// keeps its restored state there.
pub(crate) fn build_guard_state(
    config: &ServeConfig,
    slots: Vec<Option<GuardCheckpoint>>,
    local: &[usize],
) -> Served<(Vec<ShardState>, Option<Arc<GuardSlots>>)> {
    let Some(guard_config) = &config.guards else {
        return Ok((local.iter().map(|_| (None, 0)).collect(), None));
    };
    let states = (local.iter())
        .map(|&shard| {
            let mut guards = Guards::new(guard_config, config.seed.wrapping_add(shard as u64))
                .map_err(|e| ServeError::BadRequest(e.to_string()))?;
            let ck = slots[shard].as_ref();
            if let Some(ck) = ck {
                (ck.restore_into(&mut guards))
                    .map_err(failed(format!("shard {shard} checkpoint restore")))?;
            }
            Ok((Some(guards), ck.map_or(0, |ck| ck.decisions)))
        })
        .collect::<Served<_>>()?;
    let state = Mutex::new(GuardState { shards: slots });
    let table = (config.checkpoint.clone()).map(|config| {
        Arc::new(GuardSlots {
            config,
            requested: AtomicU64::new(0),
            state,
        })
    });
    Ok((states, table))
}

/// What [`transform_checkpoints`] conserved, with the numbers to prove it.
#[derive(Debug, Clone)]
pub struct TransformReport {
    /// Window events before the merge, summed cell by cell:
    /// `[group][favorable]`, group 0 = A (unprotected), 1 = B (protected).
    pub pre_counts: [[u64; 2]; 2],
    /// Summed window counts after the deal; equals `pre_counts`.
    pub post_counts: [[u64; 2]; 2],
    /// Summed lifetime decisions before.
    pub pre_decisions: u64,
    /// Summed lifetime decisions after; equals `pre_decisions`.
    pub post_decisions: u64,
    /// ε-ledger entries redistributed.
    pub ledger_entries: u64,
}

/// The transform behind [`transform_checkpoints`], over the shards that
/// have a checkpoint (a shard that never served has none; one is needed).
/// Pure: it reads and writes nothing.
pub(crate) fn transform(
    checkpoints: &[GuardCheckpoint],
    to: usize,
    budget_epsilon: f64,
) -> Served<(Vec<GuardCheckpoint>, TransformReport)> {
    let Some(first) = checkpoints.first() else {
        return Err(ServeError::Internal("no checkpoint to transform".into()));
    };

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
    let windows = deal_windows(checkpoints, to);
    let successors: Vec<GuardCheckpoint> = (windows.into_iter().zip(ledgers).enumerate())
        .map(|(i, (window, ledger))| GuardCheckpoint {
            shard: i as u64,
            decisions: share(decisions, i),
            window,
            ledger,
            budget_epsilon,
            budget_delta: first.budget_delta,
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

/// The windows of `checkpoints` merged newest-aligned — oldest age first,
/// and at each age shard 0's code, then shard 1's, … — and dealt
/// round-robin: code `j` of the merge goes to successor `j % to`.
fn deal_windows(checkpoints: &[GuardCheckpoint], to: usize) -> Vec<String> {
    let windows: Vec<&[u8]> = checkpoints.iter().map(|ck| ck.window.as_bytes()).collect();
    let oldest = windows.iter().map(|w| w.len()).max().unwrap_or(0);
    let merged = (0..oldest).rev().flat_map(|age| {
        (windows.iter()).filter_map(move |w| w.len().checked_sub(age + 1).map(|i| w[i]))
    });
    let mut dealt = vec![String::new(); to];
    for (j, code) in merged.enumerate() {
        dealt[j % to].push(char::from(code));
    }
    dealt
}

/// Transform the checkpoints in `slots` for `to` shards and replace the
/// document under `dir` with the successors in one write; returns their
/// slots. A refused or failed transform writes nothing.
pub(crate) fn commit_transform(
    slots: &[Option<GuardCheckpoint>],
    dir: &Path,
    to: usize,
    budget_epsilon: f64,
) -> Served<(Vec<Option<GuardCheckpoint>>, TransformReport)> {
    if to == 0 {
        return Err(ServeError::BadRequest("transform needs to > 0".into()));
    }
    let checkpoints: Vec<GuardCheckpoint> = slots.iter().flatten().cloned().collect();
    let (successors, report) = transform(&checkpoints, to, budget_epsilon)?;
    let state = GuardState {
        shards: successors.into_iter().map(Some).collect(),
    };
    (state.write(dir)).map_err(failed(format!("writing {}", dir.join(DOCUMENT).display())))?;
    Ok((state.shards, report))
}

/// Rewrite the guard state under `dir` for `to` shards, conserving every
/// count. This is the state transform behind
/// [`DecisionService::reshard`](crate::DecisionService::reshard); it also
/// runs offline between process generations.
///
/// * Fairness windows are merged newest-aligned (at each age, shard 0's
///   event, then shard 1's, …) and the merged sequence is dealt
///   round-robin to the successors; the summed window counts are
///   bit-equal before and after (both are reported). A successor's
///   window may come out longer than `fairness_window`; its restore keeps
///   the newest `fairness_window` events.
/// * ε-ledger entries are dealt round-robin (entry *j* → successor
///   `j % to`, in shard order), so every recorded expenditure is replayed
///   exactly once. If any successor's total ε would exceed
///   `budget_epsilon` — the budget the successors restore into, which
///   every successor records — the transform fails **before writing
///   anything**: conservation over silent loss.
/// * Lifetime decision and DP-pending counts sum-then-split with the
///   remainder dealt to the first successors; `dp_exhausted` is OR-folded
///   (an exhausted budget anywhere stays exhausted everywhere).
///
/// The document is read as a start reads it and replaced in one write, so
/// a refused or failed transform leaves `dir` byte-identical. A shard
/// without a checkpoint is skipped; at least one must exist.
pub fn transform_checkpoints(
    dir: &Path,
    to: usize,
    budget_epsilon: f64,
) -> Served<TransformReport> {
    let slots = GuardState::load(dir)?.map_or_else(Vec::new, |state| state.shards);
    commit_transform(&slots, dir, to, budget_epsilon).map(|(_, report)| report)
}

/// Map a failure while `doing` something to [`ServeError::Internal`].
fn failed<E: std::fmt::Display>(doing: String) -> impl FnOnce(E) -> ServeError {
    move |e| ServeError::Internal(format!("{doing}: {e}"))
}

/// Window counts summed cell by cell over `checkpoints`.
fn summed_counts(checkpoints: &[GuardCheckpoint]) -> [[u64; 2]; 2] {
    let mut sum = [[0; 2]; 2];
    for code in checkpoints.iter().flat_map(|ck| ck.window.bytes()) {
        let code = usize::from(code - b'0');
        sum[code >> 1][code & 1] += 1;
    }
    sum
}

#[cfg(test)]
mod tests {
    use fact_core::runtime::GuardConfig;
    use proptest::prelude::*;

    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fact-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The window code of one event.
    fn code((group_b, favorable): (bool, bool)) -> char {
        char::from(b'0' + 2 * u8::from(group_b) + u8::from(favorable))
    }

    fn sample(shard: u64) -> GuardCheckpoint {
        GuardCheckpoint {
            shard,
            decisions: 1234,
            window: (0..37u64).map(|i| code((i % 2 == 0, i % 3 == 0))).collect(),
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

    /// A document of `shards` slots, `Some` where `present` says so.
    fn state(present: &[bool]) -> GuardState {
        let slot = |(k, &p): (usize, &bool)| p.then(|| sample(k as u64));
        GuardState {
            shards: present.iter().enumerate().map(slot).collect(),
        }
    }

    #[test]
    fn roundtrips_through_disk() {
        let dir = temp_dir("roundtrip");
        let written = state(&[false, true, false, true]);
        written.write(&dir).unwrap();
        assert_eq!(GuardState::load(&dir).unwrap(), Some(written));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_slot_holding_another_shards_checkpoint_is_corrupt() {
        let mut swapped = state(&[true, true]);
        swapped.shards.swap(0, 1);
        let json = serde_json::to_string(&swapped).unwrap();
        let err = GuardState::parse(json.as_bytes()).unwrap_err();
        assert!(err.contains("slot 0 holds shard 1"), "{err}");
    }

    #[test]
    fn the_per_shard_layout_is_refused_naming_its_files() {
        let dir = temp_dir("old-layout");
        fs::create_dir_all(&dir).unwrap();
        for (k, name) in ["shard-0.json", "shard-1.json"].into_iter().enumerate() {
            let json = serde_json::to_string(&sample(k as u64)).unwrap();
            fs::write(dir.join(name), json).unwrap();
        }
        let err = GuardState::load(&dir).unwrap_err();
        assert!(
            matches!(&err, ServeError::BadRequest(msg)
                if msg.contains("shard-0.json, shard-1.json") && msg.contains(DOCUMENT)),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checkpoint whose window holds `events`.
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
            window: events.into_iter().map(code).collect(),
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

        /// Any N → M transform deals the newest-aligned merge of the
        /// windows round-robin, conserves window cells, ledger entries,
        /// decisions and DP-pending counts, OR-folds `dp_exhausted`, and
        /// refuses exactly when a successor's dealt ledger is over budget.
        /// 1 → 1 is the identity.
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
            let one_eps: f64 = before[0].ledger.iter().map(|e| e.epsilon).sum();
            match transform(&before[..1], 1, 1.0) {
                Ok((one, _)) => prop_assert_eq!(one.as_slice(), &before[..1]),
                Err(_) => prop_assert!(one_eps > 1.0),
            }
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

            // code j of the merge (oldest age first, shards in order within
            // an age) is code j / to of successor j % to
            let mut merged: Vec<(std::cmp::Reverse<usize>, usize, u8)> = (before.iter())
                .enumerate()
                .flat_map(|(k, ck)| {
                    let len = ck.window.len();
                    (ck.window.bytes().enumerate())
                        .map(move |(i, c)| (std::cmp::Reverse(len - 1 - i), k, c))
                })
                .collect();
            merged.sort_unstable();
            let lens: Vec<usize> = after.iter().map(|ck| ck.window.len()).collect();
            prop_assert_eq!(lens.iter().sum::<usize>(), merged.len());
            for (j, &(_, _, c)) in merged.iter().enumerate() {
                prop_assert_eq!(after[j % to].window.as_bytes()[j / to], c);
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
        assert_eq!(GuardState::load(&dir).unwrap(), None);
    }

    #[test]
    fn rewrite_replaces_atomically_and_corruption_is_loud() {
        let dir = temp_dir("rewrite");
        state(&[true]).write(&dir).unwrap();
        let mut newer = state(&[true]);
        if let Some(ck) = &mut newer.shards[0] {
            ck.decisions = 9999;
        }
        newer.write(&dir).unwrap();
        assert_eq!(GuardState::load(&dir).unwrap(), Some(newer));
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

        fs::write(dir.join(DOCUMENT), b"{ torn").unwrap();
        let err = GuardState::load(&dir).unwrap_err();
        assert!(
            matches!(&err, ServeError::Internal(msg) if msg.contains("corrupt")),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// `json` with the first value of `"field"` replaced by `token`.
    fn replace_field(json: &str, field: &str, token: &str) -> String {
        let key = format!("\"{field}\":");
        let start = json.find(&key).expect("field present") + key.len();
        let len = json[start..].find([',', '}', ']']).expect("scalar value");
        format!("{}{token}{}", &json[..start], &json[start + len..])
    }

    /// The integer and float fields of a slot, and what a hostile writer
    /// can put in their place.
    const INT_FIELDS: [&str; 3] = ["shard", "decisions", "dp_pending"];
    const FLOAT_FIELDS: [&str; 4] = ["epsilon", "delta", "budget_epsilon", "budget_delta"];
    const HUGE_INTS: [&str; 4] = [
        "184467440737095516160",
        "18446744073709551616",
        "1e400",
        "-1",
    ];
    const NON_FINITE: [&str; 5] = ["1e999", "-1e999", "NaN", "Infinity", "inf"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Hostile bytes fed to the document decoder return a typed error,
        /// never a panic: arbitrary bytes, every truncation and any byte
        /// flip of a valid document, nesting past any depth in place of a
        /// value, out-of-range integers, non-finite floats and a window
        /// character other than `0`–`3`.
        #[test]
        fn hostile_guard_state_bytes_are_refused_not_panicked_on(
            garbage in prop::collection::vec(any::<u8>(), 0..512),
            present in prop::collection::vec(any::<bool>(), 1..4),
            cut in any::<usize>(),
            flip in (any::<usize>(), 1u8..=255),
            depth in 1usize..400,
            field in any::<usize>(),
            token in any::<usize>(),
            non_code in (0u32..=0x10_FFFF).prop_map(char::from_u32),
        ) {
            prop_assert!(GuardState::parse(&garbage).is_err());

            let mut valid = state(&present);
            valid.shards[0] = Some(sample(0));
            let json = serde_json::to_string(&valid).unwrap();
            prop_assert_eq!(GuardState::parse(json.as_bytes()), Ok(valid.clone()));

            let bytes = json.as_bytes();
            prop_assert!(GuardState::parse(&bytes[..cut % bytes.len()]).is_err());

            // a flip may leave a valid document, which must then pass the
            // same checks as any other
            let mut flipped = bytes.to_vec();
            flipped[flip.0 % bytes.len()] ^= flip.1;
            if let Ok(state) = GuardState::parse(&flipped) {
                let again = serde_json::to_string(&state).unwrap();
                prop_assert_eq!(GuardState::parse(again.as_bytes()), Ok(state));
            }

            let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
            let mut all_fields = INT_FIELDS.iter().chain(&FLOAT_FIELDS);
            let at = *all_fields.nth(field % 7).unwrap();
            prop_assert!(GuardState::parse(replace_field(&json, at, &nested).as_bytes()).is_err());

            let int = INT_FIELDS[field % INT_FIELDS.len()];
            let huge = replace_field(&json, int, HUGE_INTS[token % HUGE_INTS.len()]);
            prop_assert!(GuardState::parse(huge.as_bytes()).is_err(), "{}", huge);
            let float = FLOAT_FIELDS[field % FLOAT_FIELDS.len()];
            let bad = replace_field(&json, float, NON_FINITE[token % NON_FINITE.len()]);
            prop_assert!(GuardState::parse(bad.as_bytes()).is_err(), "{}", bad);

            let non_code = non_code.filter(|c| !('0'..='3').contains(c)).unwrap_or('\u{0}');
            let mut foreign = valid.clone();
            if let Some(ck) = &mut foreign.shards[0] {
                ck.window.insert(token % (ck.window.len() + 1), non_code);
            }
            let foreign = serde_json::to_string(&foreign).unwrap();
            let err = GuardState::parse(foreign.as_bytes()).unwrap_err();
            prop_assert!(err.contains("code other than 0-3"), "{}", err);
        }
    }

    /// A window far longer than the monitor's is valid: restore replays
    /// only its newest codes. (Once, not per hostile case: parsing 10^6
    /// codes 256 times costs tens of seconds in a debug build.)
    #[test]
    fn a_million_code_window_restores_the_newest_window() {
        let window: String = (0..1_000_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62)
            .map(|c| char::from(b'0' + c as u8))
            .collect();
        let mut ck = sample(0);
        ck.window.clone_from(&window);
        let json = serde_json::to_string(&GuardState {
            shards: vec![Some(ck)],
        })
        .unwrap();
        let parsed = GuardState::parse(json.as_bytes()).unwrap();
        let config = GuardConfig {
            fairness_window: 50,
            ..GuardConfig::default()
        };
        let mut guards = Guards::new(&config, 0).unwrap();
        (parsed.shards[0].as_ref().unwrap().restore_into(&mut guards)).unwrap();
        let restored = GuardCheckpoint::capture(&guards, 0, 0).window;
        assert_eq!(restored, window[window.len() - 50..]);
    }
}
