//! The degrade policy and the global alert channel of the per-shard guards.
//!
//! Each worker shard owns one [`Guards`], the composition E9's
//! [`GuardedStream`] runs, with its DP noise seeded per shard. The shard
//! turns raw verdicts into alerts; its [`AlertHub`] debounces them per kind
//! and merges them into one mpsc channel the service owner can drain.
//!
//! [`Guards`]: fact_core::runtime::Guards
//! [`GuardedStream`]: fact_core::runtime::GuardedStream

use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::Arc;

use fact_core::runtime::{Alert, Debounce};

pub use fact_core::runtime::{AlertKind, GuardConfig};

use crate::metrics::MetricsRegistry;

/// What the service does with decisions after a guard trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradePolicy {
    /// Guards observe and alert but decisions are served unchanged.
    #[default]
    Off,
    /// Decisions are still served, but marked `flagged` for human audit
    /// while the trip cooldown lasts.
    AuditAndFlag,
    /// Decisions are refused (`ServeError::Rejected`) while the trip
    /// cooldown lasts — fail closed.
    HardReject,
}

/// A guard alert stamped with its origin.
#[derive(Debug, Clone)]
pub struct ServiceAlert {
    /// Shard that raised it.
    pub shard: usize,
    /// The shard's decision count when it was raised.
    pub at_decision: u64,
    /// The underlying guard alert.
    pub alert: Alert,
}

/// The shard-side end of the merged alert channel: forwards alerts after
/// per-kind debouncing and counts what it forwards in its shard's cell.
pub struct AlertHub {
    shard: usize,
    tx: Sender<ServiceAlert>,
    metrics: Arc<MetricsRegistry>,
    /// Forwards at most one alert per kind per `alert_debounce` decisions.
    debounce: Debounce,
}

impl AlertHub {
    /// A hub for one shard, forwarding into `tx`.
    pub fn new(
        shard: usize,
        tx: Sender<ServiceAlert>,
        metrics: Arc<MetricsRegistry>,
        debounce: u64,
    ) -> Self {
        AlertHub {
            shard,
            tx,
            metrics,
            debounce: Debounce::new(debounce),
        }
    }

    /// Forward `alert` unless one of its kind was forwarded within the
    /// debounce interval (a DP release always is). Returns true if sent.
    pub fn raise(&mut self, at_decision: u64, alert: Alert) -> bool {
        if !self.debounce.admit(AlertKind::of(&alert), at_decision) {
            return false;
        }
        self.metrics
            .shard(self.shard)
            .alerts
            .fetch_add(1, Ordering::Relaxed);
        // The receiver may be gone (owner dropped it); alerts are advisory,
        // so a failed send is not an error.
        let _ = self.tx.send(ServiceAlert {
            shard: self.shard,
            at_decision,
            alert,
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::GuardCheckpoint;
    use fact_core::runtime::Guards;
    use std::sync::mpsc::channel;

    /// Observe one decision the way a shard does, collecting every raw
    /// alert into `out`.
    fn observe(g: &mut Guards, group_b: bool, favorable: bool, score: f64, out: &mut Vec<Alert>) {
        let v = g.observe(group_b, favorable, score);
        out.extend(v.fairness.then(|| g.fairness.alert()));
        out.extend(v.dp);
        out.extend(v.drift.map(Alert::Drift));
    }

    #[test]
    fn hub_debounces_per_kind() {
        let (tx, rx) = channel();
        let metrics = Arc::new(MetricsRegistry::new(1));
        let mut hub = AlertHub::new(0, tx, Arc::clone(&metrics), 100);
        let fv = Alert::FairnessViolation {
            rate_protected: 0.1,
            rate_unprotected: 0.9,
            disparate_impact: 0.11,
        };
        assert!(hub.raise(10, fv.clone()));
        assert!(!hub.raise(50, fv.clone()), "within debounce window");
        // a different kind is not suppressed by the fairness debounce
        assert!(hub.raise(50, Alert::BudgetExhausted));
        assert!(hub.raise(110, fv));
        // a DP release spent ε, so it is never debounced
        let release = Alert::DpRelease {
            noisy_count: 50.0,
            epsilon: 0.01,
        };
        assert!(hub.raise(111, release.clone()));
        assert!(hub.raise(112, release));
        drop(hub);
        assert_eq!(rx.iter().count(), 5);
        assert_eq!(metrics.shard(0).alerts.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn guards_spend_epsilon_and_alert_on_disparity() {
        let cfg = GuardConfig {
            fairness_window: 200,
            min_samples_per_group: 20,
            dp_interval: 50,
            ..GuardConfig::default()
        };
        let mut g = Guards::new(&cfg, 7).unwrap();
        let mut alerts = Vec::new();
        for i in 0..400 {
            let group_b = i % 2 == 0;
            // group B almost never favored
            let favorable = !group_b || i % 20 == 0;
            observe(&mut g, group_b, favorable, 0.5, &mut alerts);
        }
        assert!(alerts
            .iter()
            .any(|a| matches!(a, Alert::FairnessViolation { .. })));
        assert!(alerts.iter().any(|a| matches!(a, Alert::DpRelease { .. })));
        assert!(g.accountant.spent_epsilon() > 0.0);
    }

    #[test]
    fn checkpoint_restore_resumes_window_and_ledger() {
        let cfg = GuardConfig {
            fairness_window: 200,
            min_samples_per_group: 20,
            dp_interval: 50,
            ..GuardConfig::default()
        };
        let mut g = Guards::new(&cfg, 7).unwrap();
        let mut alerts = Vec::new();
        for i in 0..333 {
            observe(&mut g, i % 2 == 0, i % 3 != 0, 0.5, &mut alerts);
        }
        let ck = GuardCheckpoint::capture(&g, 2, 333);
        assert_eq!(ck.shard, 2);
        assert_eq!(ck.decisions, 333);
        // 333 decisions at dp_interval 50 → 6 releases recorded
        assert_eq!(ck.ledger.len(), 6);
        assert_eq!(ck.dp_pending, 33);

        let mut restored = Guards::new(&cfg, 7).unwrap();
        ck.restore_into(&mut restored).unwrap();
        assert!((restored.accountant.spent_epsilon() - g.accountant.spent_epsilon()).abs() < 1e-12);
        // the restored window is the captured one: a second checkpoint
        // from the restored guards equals the original
        let ck2 = GuardCheckpoint::capture(&restored, 2, 333);
        assert_eq!(ck2, ck);
        // and the DP cadence resumes mid-interval: 17 more decisions
        // complete the 50-decision interval and release exactly once
        alerts.clear();
        for i in 0..17 {
            observe(&mut restored, i % 2 == 0, true, 0.5, &mut alerts);
        }
        assert_eq!(
            alerts
                .iter()
                .filter(|a| matches!(a, Alert::DpRelease { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn drift_guard_fires_on_score_shift() {
        let reference: Vec<f64> = (0..1000).map(|i| (i % 100) as f64 / 100.0).collect();
        let cfg = GuardConfig {
            drift: Some((reference, 10, 100, 0.2)),
            ..GuardConfig::default()
        };
        let mut g = Guards::new(&cfg, 1).unwrap();
        let mut alerts = Vec::new();
        for i in 0..400 {
            // scores pinned high: far from the uniform reference
            observe(&mut g, i % 2 == 0, true, 0.95, &mut alerts);
        }
        assert!(alerts.iter().any(|a| matches!(a, Alert::Drift(_))));
    }
}
