//! The per-responder health-state machine, in the mold of ct-scout's
//! log-health tracker but on the study's simulated clock.
//!
//! States follow the operator's intuition:
//!
//! ```text
//!            first failure                 third failure in a row
//! Healthy ─────────────────────▶ Degraded ─────────────────────▶ Failed
//!    ▲                               │                              │
//!    └───── two successes in a row ──┴──────────────────────────────┘
//! ```
//!
//! While **Failed**, every further failure reschedules the retry with
//! exponential backoff (60 s · 2ⁿ, clamped to an hour); two consecutive
//! successes return the responder to **Healthy** and reset the backoff.
//!
//! Determinism: [`HealthMonitor`] folds each subject's `(Time, bool)`
//! outcomes as they arrive, in simulated-time order, and pushes the
//! outage and transition events they cause at once. Its report and
//! events are a pure function of each subject's outcome sequence, so
//! they are byte-stable across worker counts as long as every subject's
//! outcomes reach one monitor whole and in order: the hourly merge feeds
//! one monitor from the stitched rounds, and each consistency unit owns
//! its operator's responders outright.

use crate::event::{Event, EventKind, EventLog};
use asn1::Time;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use telemetry::{catalog, Registry};

/// Consecutive failures that demote Healthy → Degraded.
const DEGRADED_AFTER: u32 = 1;
/// Consecutive failures that demote Degraded → Failed.
const FAILED_AFTER: u32 = 3;
/// Consecutive successes that restore any state → Healthy.
const RECOVER_AFTER: u32 = 2;
/// First retry delay once Failed, in seconds.
const BACKOFF_BASE_SECS: i64 = 60;
/// Retry-delay ceiling, in seconds.
const BACKOFF_MAX_SECS: i64 = 3_600;

/// Where a responder sits in the health lifecycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Probes are succeeding.
    #[default]
    Healthy,
    /// A failure run has started but has not yet crossed the outage
    /// threshold.
    Degraded,
    /// The failure run crossed the threshold; retries back off
    /// exponentially.
    Failed,
}

impl HealthState {
    /// Lowercase label used in events, gauges, and the health table.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Failed => "failed",
        }
    }
}

/// The deterministic state machine for one subject (responder).
#[derive(Debug, Clone, Default)]
pub struct HealthTracker {
    state: HealthState,
    consecutive_failures: u32,
    consecutive_successes: u32,
    backoff_exponent: u32,
    next_retry: Option<Time>,
    transitions: u64,
}

impl HealthTracker {
    /// A fresh tracker starting Healthy.
    pub fn new() -> HealthTracker {
        HealthTracker::default()
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Length of the current failure run (0 after a success).
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Length of the current success run (0 after a failure).
    pub fn consecutive_successes(&self) -> u32 {
        self.consecutive_successes
    }

    /// The retry delay the *next* failure while Failed would schedule:
    /// 60 s · 2^exponent, clamped to an hour. Non-decreasing over a
    /// failure run (pinned by a property test).
    pub fn backoff_secs(&self) -> i64 {
        let exp = self.backoff_exponent.min(40);
        let raw = BACKOFF_BASE_SECS.checked_shl(exp).unwrap_or(i64::MAX);
        raw.min(BACKOFF_MAX_SECS)
    }

    /// When the scheduler should retry a Failed subject (None unless
    /// Failed).
    pub fn next_retry(&self) -> Option<Time> {
        self.next_retry
    }

    /// Total transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Feed one probe classification at simulated time `at`; returns
    /// the transition it caused, if any. Observations must arrive in
    /// non-decreasing time order.
    pub fn observe(&mut self, at: Time, ok: bool) -> Option<(HealthState, HealthState)> {
        let from = self.state;
        if ok {
            self.consecutive_failures = 0;
            self.consecutive_successes += 1;
            if from != HealthState::Healthy && self.consecutive_successes >= RECOVER_AFTER {
                self.state = HealthState::Healthy;
                self.backoff_exponent = 0;
                self.next_retry = None;
                self.transitions += 1;
                return Some((from, HealthState::Healthy));
            }
            return None;
        }
        self.consecutive_successes = 0;
        self.consecutive_failures += 1;
        let to = if self.consecutive_failures >= FAILED_AFTER {
            HealthState::Failed
        } else if self.consecutive_failures >= DEGRADED_AFTER {
            HealthState::Degraded
        } else {
            from
        };
        if to == HealthState::Failed {
            // Every failure while Failed pushes the retry further out,
            // up to the ceiling.
            self.next_retry = Some(at + self.backoff_secs());
            if self.backoff_secs() < BACKOFF_MAX_SECS {
                self.backoff_exponent += 1;
            }
        }
        if to != from {
            self.state = to;
            self.transitions += 1;
            return Some((from, to));
        }
        None
    }
}

/// One subject in a [`HealthMonitor`]: its tracker, and its open
/// failure run as `(opened at, failed probes so far)`.
#[derive(Debug, Clone, Default)]
struct MonitoredSubject {
    tracker: HealthTracker,
    open_run: Option<(Time, u64)>,
}

/// The online fold: one [`HealthTracker`] and one open failure run per
/// subject, plus the transition totals. Each outcome updates its
/// subject and pushes the events it causes at once, so the monitor
/// keeps nothing per outcome and [`HealthMonitor::report`] costs one
/// row per subject.
#[derive(Debug, Clone, Default)]
pub struct HealthMonitor {
    subjects: BTreeMap<String, MonitoredSubject>,
    transitions: BTreeMap<(HealthState, HealthState), u64>,
}

impl HealthMonitor {
    /// A monitor that has seen nothing.
    pub fn new() -> HealthMonitor {
        HealthMonitor::default()
    }

    /// Fold one probe classification for `subject` at simulated time
    /// `at`, pushing the outage open/close and health-transition events
    /// it causes into `events`. Within a subject, calls must arrive in
    /// non-decreasing time order. The subject is copied only the first
    /// time it is seen.
    pub fn observe(&mut self, subject: &str, at: Time, ok: bool, events: &mut EventLog) {
        let monitored = match self.subjects.get_mut(subject) {
            Some(monitored) => monitored,
            None => self.subjects.entry(subject.to_owned()).or_default(),
        };
        if ok {
            if let Some((opened, fails)) = monitored.open_run.take() {
                events.push(Event::new(
                    at,
                    EventKind::Outage,
                    subject,
                    &format!("close after {fails} failed probes (open since {opened})"),
                ));
            }
        } else {
            match &mut monitored.open_run {
                Some((_, fails)) => *fails += 1,
                None => {
                    events.push(Event::new(at, EventKind::Outage, subject, "open"));
                    monitored.open_run = Some((at, 1));
                }
            }
        }
        if let Some((from, to)) = monitored.tracker.observe(at, ok) {
            *self.transitions.entry((from, to)).or_default() += 1;
            events.push(Event::new(
                at,
                EventKind::Health,
                subject,
                &format!("{} -> {}", from.label(), to.label()),
            ));
        }
    }

    /// Every subject's current position, in subject order, and the
    /// transition totals. A failure run still open stays open, like the
    /// hourly scan's trailing outage streaks: it shows in the state,
    /// never as a close event.
    pub fn report(&self) -> HealthReport {
        HealthReport {
            subjects: self
                .subjects
                .iter()
                .map(|(subject, monitored)| {
                    let tracker = &monitored.tracker;
                    SubjectHealth {
                        subject: subject.clone(),
                        state: tracker.state(),
                        consecutive_failures: tracker.consecutive_failures(),
                        consecutive_successes: tracker.consecutive_successes(),
                        backoff_secs: tracker.backoff_secs(),
                        next_retry: tracker.next_retry(),
                        transitions: tracker.transitions(),
                    }
                })
                .collect(),
            transition_counts: self
                .transitions
                .iter()
                .map(|(&(from, to), &n)| (format!("{}_{}", from.label(), to.label()), n))
                .collect(),
        }
    }
}

/// One subject's position in a [`HealthReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubjectHealth {
    /// The responder (or other monitored endpoint).
    pub subject: String,
    /// Final state.
    pub state: HealthState,
    /// Length of the trailing failure run.
    pub consecutive_failures: u32,
    /// Length of the trailing success run.
    pub consecutive_successes: u32,
    /// The delay the next failure would schedule (meaningful while
    /// Failed).
    pub backoff_secs: i64,
    /// Scheduled retry time, if Failed.
    pub next_retry: Option<Time>,
    /// Transitions over the subject's whole timeline.
    pub transitions: u64,
}

/// The health table: each subject's state plus transition totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Per-subject rows, sorted by subject.
    pub subjects: Vec<SubjectHealth>,
    /// `"<from>_<to>" → count` transition totals across subjects.
    pub transition_counts: BTreeMap<String, u64>,
}

impl HealthReport {
    /// Absorb the report of a monitor that saw other subjects: the
    /// result is the report of one monitor fed both outcome streams.
    /// Rows stay sorted by subject and transition totals add. Each
    /// subject's outcomes must reach one of the two monitors whole, so
    /// the subjects must be disjoint.
    ///
    /// # Panics
    ///
    /// Panics if a subject appears in both reports.
    pub fn merge(&mut self, other: HealthReport) {
        for (edge, n) in other.transition_counts {
            *self.transition_counts.entry(edge).or_default() += n;
        }
        for row in other.subjects {
            let at = self.subjects.partition_point(|s| s.subject < row.subject);
            assert!(
                self.subjects
                    .get(at)
                    .is_none_or(|s| s.subject != row.subject),
                "subject {} monitored twice",
                row.subject
            );
            self.subjects.insert(at, row);
        }
    }

    /// Subjects currently (healthy, degraded, failed).
    pub fn state_counts(&self) -> (u64, u64, u64) {
        let mut counts = (0, 0, 0);
        for s in &self.subjects {
            match s.state {
                HealthState::Healthy => counts.0 += 1,
                HealthState::Degraded => counts.1 += 1,
                HealthState::Failed => counts.2 += 1,
            }
        }
        counts
    }

    /// Export into a registry: deterministic transition totals as
    /// `health.transitions` counters (artifact-grade, baseline-gated),
    /// instantaneous positions as `health.*` gauges (operational,
    /// excluded from artifact equality like every gauge).
    pub fn export(&self, registry: &mut Registry) {
        for (edge, n) in &self.transition_counts {
            registry.add(catalog::HEALTH_TRANSITIONS, edge, *n);
        }
        let (healthy, degraded, failed) = self.state_counts();
        registry.set_gauge(catalog::HEALTH_STATE_HEALTHY, healthy);
        registry.set_gauge(catalog::HEALTH_STATE_DEGRADED, degraded);
        registry.set_gauge(catalog::HEALTH_STATE_FAILED, failed);
        let worst_backoff = self
            .subjects
            .iter()
            .filter(|s| s.state == HealthState::Failed)
            .map(|s| s.backoff_secs.max(0) as u64)
            .max()
            .unwrap_or(0);
        registry.set_gauge(catalog::HEALTH_BACKOFF_SECS, worst_backoff);
    }

    /// Render the operator-facing health table (the live tier's
    /// `GET /health` body): one row per subject plus a summary line.
    pub fn render_table(&self) -> String {
        let (healthy, degraded, failed) = self.state_counts();
        let mut out = format!(
            "subjects={} healthy={healthy} degraded={degraded} failed={failed}\n",
            self.subjects.len()
        );
        for s in &self.subjects {
            let retry = match s.next_retry {
                Some(t) => t.to_string(),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{} {} fails={} retry={} backoff_secs={} transitions={}",
                s.subject,
                s.state.label(),
                s.consecutive_failures,
                retry,
                s.backoff_secs,
                s.transitions
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(offset: i64) -> Time {
        Time::from_civil(2018, 4, 25, 0, 0, 0) + offset
    }

    #[test]
    fn lifecycle_walks_healthy_degraded_failed_and_back() {
        let mut tracker = HealthTracker::new();
        assert_eq!(tracker.state(), HealthState::Healthy);
        assert_eq!(
            tracker.observe(t(0), false),
            Some((HealthState::Healthy, HealthState::Degraded))
        );
        assert_eq!(tracker.observe(t(3_600), false), None);
        assert_eq!(
            tracker.observe(t(7_200), false),
            Some((HealthState::Degraded, HealthState::Failed))
        );
        // First retry is one backoff base past the failing probe.
        assert_eq!(tracker.next_retry(), Some(t(7_200) + 60));
        // One success is not yet recovery (K = 2)…
        assert_eq!(tracker.observe(t(10_800), true), None);
        assert_eq!(tracker.state(), HealthState::Failed);
        // …the second is.
        assert_eq!(
            tracker.observe(t(14_400), true),
            Some((HealthState::Failed, HealthState::Healthy))
        );
        assert_eq!(tracker.next_retry(), None);
        assert_eq!(tracker.backoff_secs(), 60);
        assert_eq!(tracker.transitions(), 3);
    }

    #[test]
    fn backoff_doubles_and_clamps() {
        let mut tracker = HealthTracker::new();
        let mut previous = 0;
        for i in 0..12 {
            tracker.observe(t(i * 3_600), false);
            let backoff = tracker.backoff_secs();
            assert!(backoff >= previous, "backoff shrank at failure {i}");
            assert!(backoff <= 3_600);
            previous = backoff;
        }
        // 3 failures to reach Failed, then 60·2ⁿ clamps at 3 600.
        assert_eq!(tracker.backoff_secs(), 3_600);
        let retry = tracker
            .next_retry()
            .expect("failed subjects schedule retries");
        assert_eq!(retry, t(11 * 3_600) + 3_600);
    }

    #[test]
    fn degraded_recovers_without_visiting_failed() {
        let mut tracker = HealthTracker::new();
        tracker.observe(t(0), false);
        assert_eq!(tracker.state(), HealthState::Degraded);
        tracker.observe(t(1), true);
        assert_eq!(
            tracker.observe(t(2), true),
            Some((HealthState::Degraded, HealthState::Healthy))
        );
    }

    #[test]
    fn monitor_emits_transitions_and_outage_runs_as_they_happen() {
        let mut monitor = HealthMonitor::new();
        let mut events = EventLog::new();
        let observe = |monitor: &mut HealthMonitor, events: &mut EventLog, i: i64, ok: bool| {
            monitor.observe("ocsp.example.com", t(i * 3_600), ok, events);
            events.to_jsonl()
        };
        assert_eq!(observe(&mut monitor, &mut events, 0, true), "");
        // The first failure opens the outage and degrades at once.
        let text = observe(&mut monitor, &mut events, 1, false);
        assert!(text
            .contains("\"kind\":\"outage\",\"subject\":\"ocsp.example.com\",\"detail\":\"open\""));
        assert!(text.contains("healthy -> degraded"));
        observe(&mut monitor, &mut events, 2, false);
        assert!(observe(&mut monitor, &mut events, 3, false).contains("degraded -> failed"));
        assert_eq!(monitor.report().state_counts(), (0, 0, 1));
        assert!(observe(&mut monitor, &mut events, 4, true).contains("close after 3 failed probes"));
        assert!(observe(&mut monitor, &mut events, 5, true).contains("failed -> healthy"));

        let report = monitor.report();
        assert_eq!(report.subjects.len(), 1);
        assert_eq!(report.subjects[0].state, HealthState::Healthy);
        assert_eq!(report.subjects[0].transitions, 3);
        assert_eq!(
            report.transition_counts,
            BTreeMap::from([
                ("healthy_degraded".to_string(), 1),
                ("degraded_failed".to_string(), 1),
                ("failed_healthy".to_string(), 1),
            ])
        );
    }

    #[test]
    fn export_registers_counters_and_gauges() {
        let mut monitor = HealthMonitor::new();
        let mut events = EventLog::new();
        for i in 0..4 {
            monitor.observe("down.example.com", t(i * 3_600), false, &mut events);
        }
        monitor.observe("up.example.com", t(0), true, &mut events);
        let report = monitor.report();
        let mut registry = Registry::new();
        report.export(&mut registry);
        assert_eq!(
            registry.counter(catalog::HEALTH_TRANSITIONS, "healthy_degraded"),
            1
        );
        assert_eq!(
            registry.counter(catalog::HEALTH_TRANSITIONS, "degraded_failed"),
            1
        );
        assert_eq!(registry.gauge(catalog::HEALTH_STATE_HEALTHY), Some(1));
        assert_eq!(registry.gauge(catalog::HEALTH_STATE_DEGRADED), Some(0));
        assert_eq!(registry.gauge(catalog::HEALTH_STATE_FAILED), Some(1));
        // Two failures past the Failed threshold doubled the delay
        // twice: the next retry would wait 60 · 2² seconds.
        assert_eq!(registry.gauge(catalog::HEALTH_BACKOFF_SECS), Some(240));
        let table = report.render_table();
        assert!(table.starts_with("subjects=2 healthy=1 degraded=0 failed=1\n"));
        assert!(table.contains("down.example.com failed fails=4"));
        // The deterministic exposition is untouched by the gauges.
        assert!(registry.to_prometheus().contains("health_transitions"));
        assert!(!registry.to_prometheus().contains("health_state"));
    }
}
