//! Live resharding: take a running decision service from N to M shards
//! without dropping requests.
//!
//! Changing the shard count of a [`DecisionService`](crate::DecisionService)
//! is not just a restart with a different number: each shard carries
//! *guard state* — a fairness window, an ε ledger, DP counters — whose
//! evidence must survive the topology change or the guards silently forget
//! what they were watching. The service keeps everything shaped by the
//! shard count (queues, workers, remote slots, per-shard metrics,
//! checkpoint generation) in one *topology epoch* behind the lock every
//! submit already takes for reading.
//! [`DecisionService::reshard`](crate::DecisionService::reshard) replaces
//! that epoch:
//!
//! 1. **Drain** — swaps the phase to *cutover* under the write lock, so a
//!    submit either enqueued into the old epoch before the swap or sees the
//!    cutover and parks. The old epoch then stops: every accepted request
//!    is answered and every shard writes its final [`GuardCheckpoint`]
//!    sidecar.
//! 2. **Transform** — [`transform_checkpoints`] merges the N fairness
//!    windows into one fleet window ([`WindowSummary::merge_all`]), splits
//!    it into M successors ([`WindowSummary::split`]), deals the ε-ledger
//!    entries round-robin across the successors (refusing loudly if any
//!    successor's replayed spend would exceed its budget), and rewrites
//!    the sidecar files — deleting stale ones when shrinking.
//! 3. **Restart** — spawns an epoch of M shards against the same checkpoint
//!    directory; each new shard restores from its transformed sidecar. The
//!    model, feature source and cache, admission controller, alert channel
//!    and audit sink belong to the service, not the epoch, so the audit
//!    sink stays open and its hash chain runs on unbroken.
//! 4. **Replay** — serves the new epoch and wakes the parked submits,
//!    which enqueue into the new topology. Only submits still parked past
//!    [`ServeConfig::reshard_hold`](crate::ServeConfig::reshard_hold) see
//!    [`ServeError::Resharding`] — a retryable refusal, never a silent drop.
//!
//! The routing hash is unchanged — requests simply take `key % M` instead
//! of `key % N` — so no routing table crosses the wire. What the transform
//! guarantees is **conservation**: the summed window counts after the
//! split are cell-for-cell equal to the summed counts before the merge
//! (both are reported in the [`ReshardReport`] so callers can assert it),
//! every ledger entry lands in exactly one successor, and lifetime
//! decision counts sum-then-split exactly.
//!
//! Resharding requires `guards` and `checkpoint` to be configured and an
//! all-local topology — the sidecars *are* the portable form of the guard
//! state. A reshard attempt without them fails with a typed error before
//! touching the service.

use std::time::Duration;

use fact_fairness::{SegmentCounts, WindowSummary};

use crate::checkpoint::{
    checkpoint_path, load_checkpoint, write_checkpoint, GuardCheckpoint, LedgerEntry,
};
use crate::service::{ServeError, ServiceReport};

/// What one completed reshard did, with enough numbers to *prove* nothing
/// was lost in the transform.
#[derive(Debug, Clone)]
pub struct ReshardReport {
    /// Shard count before the cutover.
    pub from: usize,
    /// Shard count after the cutover.
    pub to: usize,
    /// Fairness-window counts summed over every pre-cutover sidecar.
    /// Conservation means this equals [`post_counts`](Self::post_counts)
    /// cell for cell.
    pub pre_counts: SegmentCounts,
    /// Fairness-window counts summed over every post-transform sidecar.
    pub post_counts: SegmentCounts,
    /// Lifetime decision counts summed over the pre-cutover sidecars.
    pub pre_decisions: u64,
    /// Lifetime decision counts summed over the post-transform sidecars;
    /// equals [`pre_decisions`](Self::pre_decisions).
    pub post_decisions: u64,
    /// ε-ledger entries redistributed across the successors.
    pub ledger_entries: u64,
    /// Submits still parked when the new topology opened, all of them
    /// replayed into it (the tail past the hold window was refused and is
    /// not counted here).
    pub held: u64,
    /// How long the cutover lasted, from the drain to serving again.
    pub cutover: Duration,
    /// The drained epoch's own accounting. Its audit fields are zero:
    /// the audit sink outlives the epoch and reports at shutdown.
    pub epoch: ServiceReport,
}

/// What [`transform_checkpoints`] conserved, for callers that run the
/// transform directly (e.g. offline, between process generations).
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

/// Rewrite the `shard-N.json` sidecars under `dir` from `from` shards to
/// `to` shards, conserving every count. This is the pure state transform
/// behind [`DecisionService::reshard`](crate::DecisionService::reshard); it
/// can also run offline between process generations (drain the old fleet,
/// transform, start the new one).
///
/// * Fairness windows are folded with [`WindowSummary::merge_all`] and
///   fanned out with [`WindowSummary::split`]; the summed segment counts
///   are bit-equal before and after (both are returned).
/// * ε-ledger entries are dealt round-robin (entry *j* → successor
///   `j % to`), so every recorded expenditure is replayed exactly once.
///   If any successor's total ε would exceed `budget_epsilon` — the
///   budget the successors restore into, which every successor records —
///   the transform fails **before writing anything**: conservation over
///   silent loss.
/// * Lifetime decision and DP-pending counts sum-then-split with the
///   remainder dealt to the first successors; `dp_exhausted` is OR-folded
///   (an exhausted budget anywhere stays exhausted everywhere).
/// * When shrinking, stale `shard-j.json` files for `j >= to` are removed
///   so a later grow cannot resurrect pre-transform state.
///
/// Sidecars may be missing (a shard that never served still drains
/// cleanly); at least one must exist or there is nothing to transform.
pub fn transform_checkpoints(
    dir: &std::path::Path,
    from: usize,
    to: usize,
    budget_epsilon: f64,
) -> Result<TransformReport, ServeError> {
    if from == 0 || to == 0 {
        return Err(ServeError::BadRequest(
            "transform needs from > 0 and to > 0".into(),
        ));
    }
    let mut checkpoints: Vec<GuardCheckpoint> = Vec::new();
    for shard in 0..from {
        match load_checkpoint(dir, shard) {
            Ok(Some(ck)) => checkpoints.push(ck),
            Ok(None) => {}
            Err(e) => {
                return Err(ServeError::Internal(format!(
                    "sidecar for shard {shard} is unreadable: {e}"
                )))
            }
        }
    }
    let Some(first) = checkpoints.first() else {
        return Err(ServeError::Internal(format!(
            "no sidecars found under {} — nothing to transform",
            dir.display()
        )));
    };
    let budget_delta = first.budget_delta;

    // Fold the windows and account for what went in.
    let mut pre_counts: SegmentCounts = [[0; 2]; 2];
    let mut pre_decisions = 0u64;
    let mut dp_pending_total = 0u64;
    let mut dp_exhausted = false;
    for ck in &checkpoints {
        add_counts(&mut pre_counts, ck.window.counts());
        pre_decisions += ck.decisions;
        dp_pending_total += ck.dp_pending;
        dp_exhausted |= ck.dp_exhausted;
    }
    let merged = WindowSummary::merge_all(checkpoints.iter().map(|ck| &ck.window))
        .map_err(|e| ServeError::Internal(format!("window merge failed: {e}")))?
        .expect("at least one checkpoint present");
    let parts = merged
        .split(to)
        .map_err(|e| ServeError::Internal(format!("window split failed: {e}")))?;

    // Deal the ledgers round-robin, preserving shard order, and check each
    // successor against the budget before anything is written.
    let mut ledgers: Vec<Vec<LedgerEntry>> = vec![Vec::new(); to];
    let mut ledger_entries = 0u64;
    for ck in &checkpoints {
        for entry in &ck.ledger {
            ledgers[(ledger_entries as usize) % to].push(entry.clone());
            ledger_entries += 1;
        }
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
    let split_scalar = |total: u64| -> Vec<u64> {
        let base = total / to as u64;
        let extra = (total % to as u64) as usize;
        (0..to).map(|i| base + u64::from(i < extra)).collect()
    };
    let decisions_parts = split_scalar(pre_decisions);
    let dp_pending_parts = split_scalar(dp_pending_total);

    let mut post_counts: SegmentCounts = [[0; 2]; 2];
    let mut post_decisions = 0u64;
    for (i, window) in parts.iter().enumerate() {
        add_counts(&mut post_counts, window.counts());
        post_decisions += decisions_parts[i];
        let ck = GuardCheckpoint {
            shard: i as u64,
            decisions: decisions_parts[i],
            window: window.clone(),
            ledger: std::mem::take(&mut ledgers[i]),
            budget_epsilon,
            budget_delta,
            dp_pending: dp_pending_parts[i],
            dp_exhausted,
        };
        write_checkpoint(dir, &ck)
            .map_err(|e| ServeError::Internal(format!("writing sidecar {i}: {e}")))?;
    }
    for stale in to..from {
        let path = checkpoint_path(dir, stale);
        if path.exists() {
            std::fs::remove_file(&path).map_err(|e| {
                ServeError::Internal(format!("removing stale sidecar {stale}: {e}"))
            })?;
        }
    }
    Ok(TransformReport {
        pre_counts,
        post_counts,
        pre_decisions,
        post_decisions,
        ledger_entries,
    })
}

/// Add one window's cell counts into `sum`.
fn add_counts(sum: &mut SegmentCounts, counts: SegmentCounts) {
    for (s, c) in sum.iter_mut().flatten().zip(counts.iter().flatten()) {
        *s += c;
    }
}
