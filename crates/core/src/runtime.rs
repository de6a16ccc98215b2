//! Streaming FACT guards for production traffic.
//!
//! §3 motivates scale with the "Internet Minute" — millions of automated
//! decisions per minute. Responsibility cannot mean re-running batch audits:
//! these guards process one event at a time in O(1):
//!
//! * [`StreamingFairnessMonitor`] — sliding-window selection rates per
//!   group; raises an alert when the window's disparate impact drops below
//!   threshold;
//! * [`StreamingDpCounter`] — periodic differentially-private counts of
//!   events, spending from a shared budget;
//! * [`Guards`] — the one composition of both plus a [`PrivacyAccountant`]
//!   and an optional [`DriftMonitor`], built from a [`GuardConfig`]; every
//!   fact-serve shard owns one, with alerts debounced by [`Debounce`];
//! * [`GuardedStream`] — the same [`Guards`] and [`Debounce`] plus audit
//!   sampling, so experiment E9 prices the guard code serving runs.

use fact_data::stream::Event;
use fact_data::{FactError, Result};

use crate::drift::{DriftAlert, DriftMonitor};

use fact_confidentiality::mechanisms::laplace_noise;
use fact_confidentiality::PrivacyAccountant;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An alert raised by a streaming guard.
#[derive(Debug, Clone, PartialEq)]
pub enum Alert {
    /// Windowed disparate impact fell below the threshold.
    FairnessViolation {
        /// Windowed favorable rate for group B.
        rate_protected: f64,
        /// Windowed favorable rate for group A.
        rate_unprotected: f64,
        /// The DI ratio that tripped the alert. `f64::INFINITY` when the
        /// unprotected group's windowed rate is zero while the protected
        /// group's is positive (total one-sided disparity).
        disparate_impact: f64,
    },
    /// A DP count was released.
    DpRelease {
        /// Events counted in the interval (noised).
        noisy_count: f64,
        /// ε spent on this release.
        epsilon: f64,
    },
    /// The DP budget ran out; releases have stopped.
    BudgetExhausted,
    /// The payload-value distribution drifted from the reference (PSI).
    Drift(DriftAlert),
}

/// The kind of a guard alert, the [`Debounce`] key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Windowed disparate impact below threshold.
    Fairness,
    /// Score distribution drifted from the reference.
    Drift,
    /// A DP count release (informational).
    DpRelease,
    /// The DP budget ran out.
    BudgetExhausted,
}

impl AlertKind {
    /// Classify a guard alert.
    pub fn of(alert: &Alert) -> AlertKind {
        match alert {
            Alert::FairnessViolation { .. } => AlertKind::Fairness,
            Alert::Drift(_) => AlertKind::Drift,
            Alert::DpRelease { .. } => AlertKind::DpRelease,
            Alert::BudgetExhausted => AlertKind::BudgetExhausted,
        }
    }
}

/// Per-kind alert debounce: at most one alert of each [`AlertKind`] per
/// `interval` ticks, so a sustained violation alerts once per interval.
/// A DP release is never held back: its ε is spent, so it is published.
/// The default admits every alert.
#[derive(Debug, Clone, Default)]
pub struct Debounce {
    interval: u64,
    last: [Option<u64>; 4],
}

impl Debounce {
    /// A debounce of `interval` ticks (at least 1).
    pub fn new(interval: u64) -> Self {
        Debounce {
            interval: interval.max(1),
            last: [None; 4],
        }
    }

    /// Admit an alert of `kind` at tick `at` unless one of its kind was
    /// admitted fewer than `interval` ticks before.
    #[inline]
    pub fn admit(&mut self, kind: AlertKind, at: u64) -> bool {
        let last = &mut self.last[kind as usize];
        let due = kind == AlertKind::DpRelease
            || last.is_none_or(|t| at.saturating_sub(t) >= self.interval);
        if due {
            *last = Some(at);
        }
        due
    }
}

/// Relative margin around the division-free DI comparison inside which the
/// verdict falls back to the division form (see
/// [`StreamingFairnessMonitor::record`]).
const DI_MARGIN: f64 = 1e-12;

/// Window code bits: bit 1 = group B, bit 0 = favorable.
const CODE_GROUP_B: u8 = 0b10;
const CODE_FAVORABLE: u8 = 0b01;

/// O(1)-per-event sliding-window fairness monitor.
///
/// The window is a byte ring of 2-bit codes (bit 1 = group B, bit 0 =
/// favorable) and three running counters: group-B events `n_b`, favorable
/// group-A events `p_a` and favorable group-B events `p_b` (group A's size
/// is `len − n_b`). Code 0 (group A, unfavorable) touches none of the
/// counters, so the zeroed ring of a filling window needs no special case.
#[derive(Debug)]
pub struct StreamingFairnessMonitor {
    window: usize,
    min_di: f64,
    min_samples_per_group: usize,
    ring: Vec<u8>,
    /// Next slot to write; the oldest event once the window is full.
    head: usize,
    len: usize,
    n_b: usize,
    p_a: usize,
    p_b: usize,
}

impl StreamingFairnessMonitor {
    /// Monitor the last `window` events; alert when windowed DI < `min_di`
    /// (once both groups have `min_samples_per_group` events in the window).
    pub fn new(window: usize, min_di: f64, min_samples_per_group: usize) -> Result<Self> {
        if window == 0 || !(0.0..=1.0).contains(&min_di) {
            return Err(FactError::InvalidArgument(
                "window must be positive and min_di in [0, 1]".into(),
            ));
        }
        Ok(StreamingFairnessMonitor {
            window,
            min_di,
            min_samples_per_group,
            ring: vec![0; window],
            head: 0,
            len: 0,
            n_b: 0,
            p_a: 0,
            p_b: 0,
        })
    }

    /// Ingest one event; returns an alert when the window shows disparity.
    pub fn observe(&mut self, group_b: bool, favorable: bool) -> Option<Alert> {
        self.record(group_b, favorable).then(|| self.alert())
    }

    /// Ingest one event and return the window's verdict: `true` when it
    /// shows disparity, exactly when [`observe`](Self::observe) would
    /// return an alert. The alert itself is built only on request, by
    /// [`alert`](Self::alert).
    ///
    /// The verdict compares the integer products `p_b·n_a` and
    /// `min_di·p_a·n_b` instead of dividing. Outside a 1e-12 relative
    /// margin that comparison agrees with the division form
    /// `rate_b / rate_a < min_di`, whose rounding error is a few ulps;
    /// inside the margin, and when a rate is zero or a group empty, the
    /// division form itself decides. The verdict is therefore the division
    /// form's, bit for bit.
    // `always`: at plain `#[inline]`, `GuardedStream::process` calls it
    // out of line on every event
    #[inline(always)]
    pub fn record(&mut self, group_b: bool, favorable: bool) -> bool {
        let code = (u8::from(group_b) << 1) | u8::from(favorable);
        // before the window fills, the slot holds code 0, which counts
        // toward nothing
        let old = std::mem::replace(&mut self.ring[self.head], code);
        self.head += 1;
        if self.head == self.window {
            self.head = 0;
        }
        self.len += usize::from(self.len < self.window);
        let (g_new, a_new, b_new) = code_counts(code);
        let (g_old, a_old, b_old) = code_counts(old);
        self.n_b = self.n_b + g_new - g_old;
        self.p_a = self.p_a + a_new - a_old;
        self.p_b = self.p_b + b_new - b_old;

        let n_a = self.len - self.n_b;
        if n_a < self.min_samples_per_group || self.n_b < self.min_samples_per_group {
            return false;
        }
        if self.p_a > 0 && self.n_b > 0 {
            // counts never exceed the window, whose ring fits in isize::MAX
            // bytes, so the signed conversion is exact and one instruction
            let f = |x: usize| x as i64 as f64;
            let lhs = f(self.p_b) * f(n_a);
            let rhs = self.min_di * (f(self.p_a) * f(self.n_b));
            if lhs < rhs * (1.0 - DI_MARGIN) {
                return true;
            }
            if lhs > rhs * (1.0 + DI_MARGIN) {
                return false;
            }
        }
        self.division_verdict()
    }

    /// The verdict in its division form: DI is `rate_b / rate_a`. When
    /// `rate_a == 0` the ratio is not finite: if `rate_b > 0` the window
    /// shows total one-sided disparity (A never favored while B is) — the
    /// worst case, which must alert rather than be masked; if both rates
    /// are zero the window carries no evidence either way.
    #[cold]
    fn division_verdict(&self) -> bool {
        let (rate_a, rate_b) = self.rates();
        if rate_a > 0.0 {
            rate_b / rate_a < self.min_di
        } else {
            rate_b > 0.0
        }
    }

    /// Windowed favorable rates `(group A, group B)`; NaN for an empty
    /// group.
    fn rates(&self) -> (f64, f64) {
        let n_a = self.len - self.n_b;
        (
            self.p_a as f64 / n_a as f64,
            self.p_b as f64 / self.n_b as f64,
        )
    }

    /// The [`Alert::FairnessViolation`] for the current window. Meaningful
    /// right after [`record`](Self::record) returned `true`.
    pub fn alert(&self) -> Alert {
        let (rate_a, rate_b) = self.rates();
        Alert::FairnessViolation {
            rate_protected: rate_b,
            rate_unprotected: rate_a,
            disparate_impact: if rate_a > 0.0 {
                rate_b / rate_a
            } else {
                f64::INFINITY
            },
        }
    }

    /// Events currently held in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The window's events oldest first, one character `0`–`3` per event:
    /// the event's code (bit 1 = group B, bit 0 = favorable). This is the
    /// checkpoint form, at most `window` bytes.
    pub fn codes(&self) -> String {
        // oldest first: `ring[head..len]` is empty until the window has
        // filled (then `head == len`), and the older half once it has
        (self.ring[self.head..self.len].iter())
            .chain(&self.ring[..self.head])
            .map(|&code| char::from(b'0' + code))
            .collect()
    }

    /// Rebuild the window from [`codes`](Self::codes) by replaying the
    /// newest `window` of them (verdicts during replay are discarded —
    /// their alerts were already raised, and acted on, before the
    /// checkpoint). The restored window is the captured one, event for
    /// event, so both give the same verdict on every later event. Window
    /// size, DI threshold and sample floor stay as constructed. A
    /// character outside `0`–`3` fails, leaving the monitor untouched.
    pub fn restore(&mut self, codes: &str) -> Result<()> {
        let codes = codes.as_bytes();
        if let Some(at) = codes.iter().position(|c| !(b'0'..=b'3').contains(c)) {
            return Err(FactError::InvalidArgument(format!(
                "window code at byte {at} is not one of 0-3"
            )));
        }
        self.ring.fill(0);
        self.head = 0;
        self.len = 0;
        self.n_b = 0;
        self.p_a = 0;
        self.p_b = 0;
        for &c in &codes[codes.len().saturating_sub(self.window)..] {
            let code = c - b'0';
            self.record(code & CODE_GROUP_B != 0, code & CODE_FAVORABLE != 0);
        }
        Ok(())
    }
}

/// What one window code adds to the running counters `(n_b, p_a, p_b)`.
#[inline]
fn code_counts(code: u8) -> (usize, usize, usize) {
    let g = usize::from(code >> 1);
    let f = usize::from(code & CODE_FAVORABLE);
    (g, f & (g ^ 1), f & g)
}

/// Periodic DP release of event counts under a shared budget.
#[derive(Debug)]
pub struct StreamingDpCounter {
    interval: usize,
    epsilon_per_release: f64,
    pending: usize,
    rng: StdRng,
    exhausted_reported: bool,
}

impl StreamingDpCounter {
    /// Release a noisy count every `interval` events, spending
    /// `epsilon_per_release` each time.
    pub fn new(interval: usize, epsilon_per_release: f64, seed: u64) -> Result<Self> {
        if interval == 0 || epsilon_per_release <= 0.0 {
            return Err(FactError::InvalidArgument(
                "interval and epsilon must be positive".into(),
            ));
        }
        Ok(StreamingDpCounter {
            interval,
            epsilon_per_release,
            pending: 0,
            rng: StdRng::seed_from_u64(seed),
            exhausted_reported: false,
        })
    }

    /// Ingest one event; may emit a [`Alert::DpRelease`] (or a one-time
    /// [`Alert::BudgetExhausted`]).
    #[inline]
    pub fn observe(&mut self, accountant: &mut PrivacyAccountant) -> Option<Alert> {
        self.pending += 1;
        if self.pending < self.interval {
            return None;
        }
        self.release(accountant)
    }

    /// Close the interval: spend ε and release its noised count.
    #[cold]
    fn release(&mut self, accountant: &mut PrivacyAccountant) -> Option<Alert> {
        let count = self.pending;
        self.pending = 0;
        match accountant.spend(self.epsilon_per_release, 0.0, "stream dp count") {
            Ok(()) => {
                let noisy =
                    count as f64 + laplace_noise(1.0 / self.epsilon_per_release, &mut self.rng);
                Some(Alert::DpRelease {
                    noisy_count: noisy.max(0.0),
                    epsilon: self.epsilon_per_release,
                })
            }
            Err(_) => {
                if self.exhausted_reported {
                    None
                } else {
                    self.exhausted_reported = true;
                    Some(Alert::BudgetExhausted)
                }
            }
        }
    }

    /// Events accumulated since the last release (checkpoint export).
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Whether budget exhaustion was already reported (checkpoint export).
    pub fn exhausted_reported(&self) -> bool {
        self.exhausted_reported
    }

    /// Restore checkpointed counter state: events pending since the last
    /// release and the one-shot exhaustion flag. The checkpoint carries no
    /// RNG state, so the noise RNG restarts from the constructor seed: a
    /// shard restarted with the same seed replays the noise draws it made
    /// before the checkpoint, and its post-restart releases reuse noise
    /// values already published (see KNOWN_ISSUES.md).
    pub fn restore(&mut self, pending: usize, exhausted_reported: bool) {
        self.pending = pending;
        self.exhausted_reported = exhausted_reported;
    }
}

/// Configuration of one guard set ([`Guards`]).
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Sliding window of the fairness monitor (events).
    pub fairness_window: usize,
    /// Minimum acceptable disparate impact.
    pub min_di: f64,
    /// Events per group required before the fairness monitor speaks.
    pub min_samples_per_group: usize,
    /// Decisions between differentially-private count releases.
    pub dp_interval: usize,
    /// ε spent per DP release.
    pub epsilon_per_release: f64,
    /// ε budget of the guard set's accountant.
    pub epsilon_budget: f64,
    /// Optional score-drift monitor: (reference scores, n_bins, window,
    /// PSI threshold).
    pub drift: Option<(Vec<f64>, usize, usize, f64)>,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            fairness_window: 2_000,
            min_di: 0.8,
            min_samples_per_group: 50,
            dp_interval: 1_000,
            epsilon_per_release: 0.01,
            epsilon_budget: 1.0,
            drift: None,
        }
    }
}

/// One guard set, as every fact-serve shard and E9's [`GuardedStream`] run
/// it. The parts are public so a checkpoint can capture and restore them.
#[derive(Debug)]
pub struct Guards {
    /// Sliding-window disparate-impact monitor.
    pub fairness: StreamingFairnessMonitor,
    /// Periodic DP count release.
    pub dp: StreamingDpCounter,
    /// The ε ledger the DP counter spends from.
    pub accountant: PrivacyAccountant,
    /// Optional PSI monitor over the scores.
    pub drift: Option<DriftMonitor>,
}

/// The raw verdicts of one [`Guards::observe`] call, before any debounce.
#[derive(Debug)]
pub struct Verdict {
    /// The window shows disparity ([`StreamingFairnessMonitor::alert`]).
    pub fairness: bool,
    /// A DP release, or the one-time [`Alert::BudgetExhausted`].
    pub dp: Option<Alert>,
    /// The score distribution drifted.
    pub drift: Option<DriftAlert>,
}

impl Guards {
    /// Build the guard set `cfg` describes. `seed` seeds the DP noise
    /// stream (serving decorrelates shards with `seed + shard`).
    pub fn new(cfg: &GuardConfig, seed: u64) -> Result<Self> {
        Ok(Guards {
            fairness: StreamingFairnessMonitor::new(
                cfg.fairness_window,
                cfg.min_di,
                cfg.min_samples_per_group,
            )?,
            dp: StreamingDpCounter::new(cfg.dp_interval, cfg.epsilon_per_release, seed)?,
            accountant: PrivacyAccountant::pure(cfg.epsilon_budget)?,
            drift: match &cfg.drift {
                Some((r, bins, window, psi)) => Some(DriftMonitor::new(r, *bins, *window, *psi)?),
                None => None,
            },
        })
    }

    /// Observe one decision: its group, whether it was favorable, and its
    /// score (what the drift monitor watches).
    #[inline]
    pub fn observe(&mut self, group_b: bool, favorable: bool, score: f64) -> Verdict {
        Verdict {
            fairness: self.fairness.record(group_b, favorable),
            dp: self.dp.observe(&mut self.accountant),
            drift: self.drift.as_mut().and_then(|d| d.observe(score)),
        }
    }
}

/// The guarded stream processor for experiment E9: [`Guards`] plus audit
/// sampling, with fairness alerts debounced to one per half window.
#[derive(Default)]
pub struct GuardedStream {
    guards: Option<Guards>,
    debounce: Debounce,
    /// Sample one audit entry per `audit_every` events; 0 = no auditing.
    audit_every: usize,
    /// Events left until the next sampled audit entry.
    audit_countdown: usize,
    /// Count of processed events.
    pub processed: u64,
    /// Count of audit-log entries that would be written (sampled).
    pub audit_entries: u64,
    /// Alerts raised.
    pub alerts: Vec<Alert>,
    // baseline work: aggregate of payload values (what an unguarded pipeline
    // would compute anyway)
    value_sum: f64,
}

impl GuardedStream {
    /// A processor with no guards — the baseline for overhead measurements.
    pub fn unguarded() -> Self {
        GuardedStream::default()
    }

    /// A processor with the full FACT guard set: [`GuardConfig`] defaults
    /// but for the given window, DI, DP interval and ε budget.
    pub fn guarded(
        fairness_window: usize,
        min_di: f64,
        dp_interval: usize,
        epsilon_budget: f64,
        audit_every: usize,
        seed: u64,
    ) -> Result<Self> {
        let cfg = GuardConfig {
            fairness_window,
            min_di,
            dp_interval,
            epsilon_budget,
            ..GuardConfig::default()
        };
        Ok(GuardedStream {
            guards: Some(Guards::new(&cfg, seed)?),
            debounce: Debounce::new(fairness_window as u64 / 2),
            audit_every: audit_every.max(1),
            audit_countdown: audit_every.max(1),
            ..GuardedStream::unguarded()
        })
    }

    /// Attach a PSI drift monitor over the event payload values to the
    /// guard set; an [`unguarded`](Self::unguarded) stream drops it.
    pub fn with_drift_monitor(mut self, monitor: DriftMonitor) -> Self {
        if let Some(g) = &mut self.guards {
            g.drift = Some(monitor);
        }
        self
    }

    /// The guard set; `None` for an unguarded stream.
    pub fn guards(&self) -> Option<&Guards> {
        self.guards.as_ref()
    }

    /// Process one event through baseline work plus all enabled guards.
    pub fn process(&mut self, event: &Event) {
        self.processed += 1;
        self.value_sum += event.value;
        if let Some(g) = &mut self.guards {
            let v = g.observe(event.group_b, event.decision_favorable, event.value);
            if v.fairness && self.debounce.admit(AlertKind::Fairness, self.processed) {
                self.alerts.push(g.fairness.alert());
            }
            if let Some(alert) = v.dp {
                self.alerts.push(alert);
            }
            if let Some(alert) = v.drift {
                self.alerts.push(Alert::Drift(alert));
            }
        }
        if self.audit_every > 0 {
            self.audit_countdown -= 1;
            if self.audit_countdown == 0 {
                self.audit_countdown = self.audit_every;
                self.audit_entries += 1;
            }
        }
    }

    /// The baseline aggregate (kept so the compiler cannot elide the work).
    pub fn value_sum(&self) -> f64 {
        self.value_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_data::stream::InternetMinute;
    use proptest::prelude::*;

    #[test]
    fn fairness_monitor_stays_quiet_on_fair_traffic() {
        let mut m = StreamingFairnessMonitor::new(2000, 0.8, 100).unwrap();
        let mut alerts = 0;
        for ev in InternetMinute::new(1).take(20_000) {
            if m.observe(ev.group_b, ev.decision_favorable).is_some() {
                alerts += 1;
            }
        }
        assert_eq!(alerts, 0, "equal rates should not trip the monitor");
    }

    #[test]
    fn fairness_monitor_fires_on_disparity() {
        let mut m = StreamingFairnessMonitor::new(2000, 0.8, 100).unwrap();
        let mut alerts = 0;
        for ev in InternetMinute::new(2).with_disparity(0.9, 0.4).take(20_000) {
            if let Some(Alert::FairnessViolation {
                disparate_impact, ..
            }) = m.observe(ev.group_b, ev.decision_favorable)
            {
                alerts += 1;
                assert!(disparate_impact < 0.8);
            }
        }
        assert!(
            alerts > 100,
            "sustained disparity must keep alerting: {alerts}"
        );
    }

    #[test]
    fn monitor_window_slides() {
        // disparity early, fairness later: alerts must stop
        let mut m = StreamingFairnessMonitor::new(500, 0.8, 50).unwrap();
        let mut early = 0;
        for ev in InternetMinute::new(3).with_disparity(0.9, 0.2).take(3_000) {
            if m.observe(ev.group_b, ev.decision_favorable).is_some() {
                early += 1;
            }
        }
        assert!(early > 0);
        let mut late = 0;
        for ev in InternetMinute::new(4).take(3_000) {
            if m.observe(ev.group_b, ev.decision_favorable).is_some() {
                late += 1;
            }
        }
        // after the window refills with fair traffic, alerts stop
        assert!(
            late < early,
            "sliding window must recover: {late} < {early}"
        );
    }

    #[test]
    fn dp_counter_releases_until_budget_gone() {
        let mut acc = PrivacyAccountant::pure(0.05).unwrap(); // 5 releases at 0.01
        let mut dp = StreamingDpCounter::new(100, 0.01, 7).unwrap();
        let mut releases = 0;
        let mut exhausted = 0;
        for _ in 0..2_000 {
            match dp.observe(&mut acc) {
                Some(Alert::DpRelease { noisy_count, .. }) => {
                    releases += 1;
                    assert!(noisy_count >= 0.0);
                    assert!((noisy_count - 100.0).abs() < 10_000.0);
                }
                Some(Alert::BudgetExhausted) => exhausted += 1,
                _ => {}
            }
        }
        assert_eq!(releases, 5);
        assert_eq!(exhausted, 1, "exhaustion reported exactly once");
    }

    #[test]
    fn guarded_stream_counts_work() {
        let mut guarded = GuardedStream::guarded(1000, 0.8, 500, 1.0, 100, 9).unwrap();
        let mut unguarded = GuardedStream::unguarded();
        for ev in InternetMinute::new(5).take(10_000) {
            guarded.process(&ev);
            unguarded.process(&ev);
        }
        assert_eq!(guarded.processed, 10_000);
        assert_eq!(unguarded.processed, 10_000);
        assert_eq!(guarded.audit_entries, 100);
        assert_eq!(unguarded.audit_entries, 0);
        assert!((guarded.value_sum() - unguarded.value_sum()).abs() < 1e-6);
        // DP releases happened
        assert!(guarded
            .alerts
            .iter()
            .any(|a| matches!(a, Alert::DpRelease { .. })));
    }

    /// Feed `n` events of one group, the first `favorable` of them
    /// favorable; returns the last event's alert.
    fn feed(
        m: &mut StreamingFairnessMonitor,
        group_b: bool,
        n: usize,
        favorable: usize,
    ) -> Option<Alert> {
        (0..n).fold(None, |_, i| m.observe(group_b, i < favorable))
    }

    #[test]
    fn window_exactly_at_min_di_does_not_alert() {
        // rate_a = 5/10, rate_b = 4/10: DI is exactly 0.8
        let mut m = StreamingFairnessMonitor::new(20, 0.8, 10).unwrap();
        feed(&mut m, false, 10, 5);
        assert_eq!(feed(&mut m, true, 10, 4), None);
        // just above the same DI the window alerts, with the division
        // form's rates and ratio
        let mut m = StreamingFairnessMonitor::new(20, 0.81, 10).unwrap();
        feed(&mut m, false, 10, 5);
        let alert = feed(&mut m, true, 10, 4).expect("0.8 < 0.81");
        let (rate_a, rate_b) = (5.0 / 10.0, 4.0 / 10.0);
        assert_eq!(
            alert,
            Alert::FairnessViolation {
                rate_protected: rate_b,
                rate_unprotected: rate_a,
                disparate_impact: rate_b / rate_a,
            }
        );
    }

    #[test]
    fn unfavored_group_a_is_infinite_disparity() {
        let mut m = StreamingFairnessMonitor::new(20, 0.8, 5).unwrap();
        feed(&mut m, false, 5, 0);
        let alert = feed(&mut m, true, 5, 1).expect("p_a = 0 < p_b alerts");
        assert_eq!(
            alert,
            Alert::FairnessViolation {
                rate_protected: 0.2,
                rate_unprotected: 0.0,
                disparate_impact: f64::INFINITY,
            }
        );
        // with no favorable event in either group the window is silent
        let mut m = StreamingFairnessMonitor::new(20, 0.8, 5).unwrap();
        feed(&mut m, false, 5, 0);
        assert_eq!(feed(&mut m, true, 5, 0), None);
    }

    #[test]
    fn empty_group_without_a_sample_floor() {
        // only group B: group A's rate is NaN, which reads as "A never
        // favored" — infinite disparity once B is favored
        let mut m = StreamingFairnessMonitor::new(10, 0.8, 0).unwrap();
        match m.observe(true, true) {
            Some(Alert::FairnessViolation {
                rate_protected,
                rate_unprotected,
                disparate_impact,
            }) => {
                assert_eq!(rate_protected, 1.0);
                assert!(rate_unprotected.is_nan());
                assert_eq!(disparate_impact, f64::INFINITY);
            }
            other => panic!("expected an infinite-disparity alert, got {other:?}"),
        }
        // only group A: group B's rate is NaN and the window is silent
        let mut m = StreamingFairnessMonitor::new(10, 0.8, 0).unwrap();
        assert_eq!(feed(&mut m, false, 10, 10), None);
        assert_eq!(m.observe(false, false), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Capture → restore → capture is byte-identical, and the restored
        /// monitor gives the uninterrupted one's verdict on every event of
        /// a continuing stream, whether or not the ring has wrapped.
        #[test]
        fn codes_restore_the_window_exactly(
            window in 1usize..120,
            min_samples in 0usize..8,
            before in prop::collection::vec((any::<bool>(), any::<bool>()), 0..400),
            after in prop::collection::vec((any::<bool>(), any::<bool>()), 0..200),
        ) {
            let mut m = StreamingFairnessMonitor::new(window, 0.8, min_samples).unwrap();
            for &(g, f) in &before {
                m.record(g, f);
            }
            let codes = m.codes();
            prop_assert_eq!(codes.len(), before.len().min(window));
            let newest = &before[before.len() - codes.len()..];
            let decoded: Vec<(bool, bool)> = (codes.bytes())
                .map(|c| c - b'0')
                .map(|code| (code & CODE_GROUP_B != 0, code & CODE_FAVORABLE != 0))
                .collect();
            prop_assert_eq!(decoded.as_slice(), newest);

            let mut restored = StreamingFairnessMonitor::new(window, 0.8, min_samples).unwrap();
            restored.restore(&codes).unwrap();
            prop_assert_eq!(restored.codes(), codes);
            for &(g, f) in &after {
                let verdict = m.record(g, f);
                prop_assert_eq!(verdict, restored.record(g, f));
                // Debug, not ==: an empty group's rate is NaN
                let alert = |m: &StreamingFairnessMonitor| format!("{:?}", m.alert());
                prop_assert_eq!(alert(&m), alert(&restored));
            }
            prop_assert_eq!(m.codes(), restored.codes());
        }
    }

    #[test]
    fn restore_refuses_a_non_code_and_keeps_only_the_newest_window() {
        let mut m = StreamingFairnessMonitor::new(4, 0.8, 0).unwrap();
        m.restore("0123").unwrap();
        for bad in ["4", "01a", "0 1", "é"] {
            assert!(matches!(m.restore(bad), Err(FactError::InvalidArgument(_))));
            assert_eq!(m.codes(), "0123", "a refused restore changes nothing");
        }
        m.restore("33330120").unwrap();
        assert_eq!(m.codes(), "0120");
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn dp_counter_restore_resumes_pending_and_exhaustion() {
        let mut acc = PrivacyAccountant::pure(1.0).unwrap();
        let mut dp = StreamingDpCounter::new(100, 0.01, 7).unwrap();
        for _ in 0..150 {
            dp.observe(&mut acc);
        }
        assert_eq!(dp.pending(), 50);
        assert!(!dp.exhausted_reported());

        let mut resumed = StreamingDpCounter::new(100, 0.01, 8).unwrap();
        resumed.restore(dp.pending(), dp.exhausted_reported());
        // 50 pending survive: the next release fires after 50 more events
        let mut fired_at = None;
        for i in 0..100 {
            if resumed.observe(&mut acc).is_some() {
                fired_at = Some(i);
                break;
            }
        }
        assert_eq!(fired_at, Some(49));
    }

    #[test]
    fn validation() {
        assert!(StreamingFairnessMonitor::new(0, 0.8, 10).is_err());
        assert!(StreamingFairnessMonitor::new(10, 1.5, 10).is_err());
        assert!(StreamingDpCounter::new(0, 0.1, 0).is_err());
        assert!(StreamingDpCounter::new(10, 0.0, 0).is_err());
    }
}
