//! The per-responder health-state machine, in the mold of ct-scout's
//! log-health tracker but on the study's simulated clock.
//!
//! States follow the operator's intuition:
//!
//! ```text
//!            failure × degraded_after          failure × failed_after
//! Healthy ─────────────────────────▶ Degraded ─────────────────────▶ Failed
//!    ▲                                   │                              │
//!    └────────── success × recover_after ┴──────────────────────────────┘
//! ```
//!
//! While **Failed**, every further failure reschedules the retry with
//! exponential backoff (`backoff_base_secs · 2ⁿ`, clamped to
//! `backoff_max_secs`); any `recover_after` consecutive successes
//! return the responder to **Healthy** and reset the backoff.
//!
//! Determinism: the tracker consumes `(Time, bool)` observations in
//! simulated-time order, so its transition timeline is a pure function
//! of the probe outcomes — byte-stable across worker counts and
//! chunkings. [`HealthLog`] makes it *mergeable* the way the
//! telemetry registry is: shards/chunks record their slice of the
//! outcome sequence independently, [`HealthLog::merge`] concatenates
//! per-subject slices in time order (an associative operation), and
//! [`HealthLog::replay`] runs the state machine once over the stitched
//! sequence — so the health report cannot depend on how the scan was
//! split.

use crate::event::{Event, EventKind, Notifier};
use asn1::Time;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use telemetry::{catalog, Registry};

/// Where a responder sits in the health lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Probes are succeeding.
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

/// Thresholds and backoff shape for the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive failures that demote Healthy → Degraded.
    pub degraded_after: u32,
    /// Consecutive failures that demote Degraded → Failed. Must be
    /// at least `degraded_after`.
    pub failed_after: u32,
    /// Consecutive successes (K) that restore any state → Healthy.
    pub recover_after: u32,
    /// First retry delay once Failed, in seconds.
    pub backoff_base_secs: i64,
    /// Retry-delay ceiling, in seconds.
    pub backoff_max_secs: i64,
}

impl Default for HealthPolicy {
    /// ct-scout's shape: first failure degrades, the third fails,
    /// two clean probes recover; retries back off 60 s → 2 × … → 1 h.
    fn default() -> HealthPolicy {
        HealthPolicy {
            degraded_after: 1,
            failed_after: 3,
            recover_after: 2,
            backoff_base_secs: 60,
            backoff_max_secs: 3_600,
        }
    }
}

impl HealthPolicy {
    fn validate(&self) {
        assert!(self.degraded_after >= 1, "degraded_after must be >= 1");
        assert!(
            self.failed_after >= self.degraded_after,
            "failed_after must be >= degraded_after"
        );
        assert!(self.recover_after >= 1, "recover_after must be >= 1");
        assert!(
            self.backoff_base_secs >= 1,
            "backoff_base_secs must be >= 1"
        );
        assert!(
            self.backoff_max_secs >= self.backoff_base_secs,
            "backoff_max_secs must be >= backoff_base_secs"
        );
    }
}

/// The deterministic state machine for one subject (responder).
#[derive(Debug, Clone)]
pub struct HealthTracker {
    policy: HealthPolicy,
    state: HealthState,
    consecutive_failures: u32,
    consecutive_successes: u32,
    backoff_exponent: u32,
    next_retry: Option<Time>,
    transitions: u64,
}

impl HealthTracker {
    /// A fresh tracker starting Healthy.
    ///
    /// # Panics
    ///
    /// Panics if the policy is internally inconsistent (thresholds of
    /// zero, ceiling below base) — policies are code-authored.
    pub fn new(policy: HealthPolicy) -> HealthTracker {
        policy.validate();
        HealthTracker {
            policy,
            state: HealthState::Healthy,
            consecutive_failures: 0,
            consecutive_successes: 0,
            backoff_exponent: 0,
            next_retry: None,
            transitions: 0,
        }
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
    /// `backoff_base_secs · 2^exponent`, clamped to `backoff_max_secs`.
    /// Non-decreasing over a failure run (pinned by a property test).
    pub fn backoff_secs(&self) -> i64 {
        let exp = self.backoff_exponent.min(40);
        let raw = self
            .policy
            .backoff_base_secs
            .checked_shl(exp)
            .unwrap_or(i64::MAX);
        raw.min(self.policy.backoff_max_secs)
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
            if from != HealthState::Healthy
                && self.consecutive_successes >= self.policy.recover_after
            {
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
        let to = if self.consecutive_failures >= self.policy.failed_after {
            HealthState::Failed
        } else if self.consecutive_failures >= self.policy.degraded_after {
            HealthState::Degraded
        } else {
            from
        };
        if to == HealthState::Failed {
            // Every failure while Failed pushes the retry further out,
            // up to the ceiling.
            self.next_retry = Some(at + self.backoff_secs());
            if self.backoff_secs() < self.policy.backoff_max_secs {
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

/// The mergeable accumulator: per-subject outcome slices recorded by
/// shards/chunks, stitched in time order and replayed once.
///
/// Merging is plain per-subject concatenation — associative, so any
/// split of the probe sequence into chunks merges back to the same
/// log, and [`HealthLog::replay`] therefore yields the same report and
/// event stream for every chunking (pinned by a property test and by
/// `tests/determinism.rs`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthLog {
    logs: BTreeMap<String, Vec<(Time, bool)>>,
}

impl HealthLog {
    /// An empty log.
    pub fn new() -> HealthLog {
        HealthLog::default()
    }

    /// Record one probe classification for `subject` at simulated time
    /// `at`. Within a subject, calls must arrive in non-decreasing
    /// time order (chunks already iterate rounds in order). The subject
    /// is copied only the first time it is seen.
    pub fn record(&mut self, subject: &str, at: Time, ok: bool) {
        match self.logs.get_mut(subject) {
            Some(log) => log.push((at, ok)),
            None => self
                .logs
                .entry(subject.to_owned())
                .or_default()
                .push((at, ok)),
        }
    }

    /// Absorb `later`, whose per-subject observations all happen at or
    /// after this log's — the same contract as the freshness
    /// accumulator's chunk-boundary stitch.
    pub fn merge(&mut self, later: HealthLog) {
        for (subject, mut slice) in later.logs {
            self.logs.entry(subject).or_default().append(&mut slice);
        }
    }

    /// Number of distinct subjects.
    pub fn subjects(&self) -> usize {
        self.logs.len()
    }

    /// Total observations across subjects.
    pub fn observations(&self) -> usize {
        self.logs.values().map(Vec::len).sum()
    }

    /// Run the state machine over every subject's stitched sequence,
    /// emitting health-transition and outage open/close events through
    /// `notifier` and returning the final [`HealthReport`].
    ///
    /// Subjects replay in lexicographic order; an [`crate::EventLog`]
    /// notifier re-sorts canonically at render time, so the emission
    /// order never shows in the artifact.
    pub fn replay(&self, policy: &HealthPolicy, notifier: &mut dyn Notifier) -> HealthReport {
        let mut subjects = Vec::with_capacity(self.logs.len());
        let mut transition_counts: BTreeMap<String, u64> = BTreeMap::new();
        for (subject, log) in &self.logs {
            let mut tracker = HealthTracker::new(*policy);
            let mut open_run: Option<(Time, u64)> = None;
            for &(at, ok) in log {
                if ok {
                    if let Some((opened, fails)) = open_run.take() {
                        notifier.notify(Event::new(
                            at,
                            EventKind::Outage,
                            subject,
                            &format!("close after {fails} failed probes (open since {opened})"),
                        ));
                    }
                } else {
                    match &mut open_run {
                        Some((_, fails)) => *fails += 1,
                        None => {
                            notifier.notify(Event::new(at, EventKind::Outage, subject, "open"));
                            open_run = Some((at, 1));
                        }
                    }
                }
                if let Some((from, to)) = tracker.observe(at, ok) {
                    *transition_counts
                        .entry(format!("{}_{}", from.label(), to.label()))
                        .or_default() += 1;
                    notifier.notify(Event::new(
                        at,
                        EventKind::Health,
                        subject,
                        &format!("{} -> {}", from.label(), to.label()),
                    ));
                }
            }
            // A trailing failure run stays open, like the hourly scan's
            // trailing outage streaks: it is reported in the final
            // state, not closed retroactively.
            subjects.push(SubjectHealth {
                subject: subject.clone(),
                state: tracker.state(),
                consecutive_failures: tracker.consecutive_failures(),
                consecutive_successes: tracker.consecutive_successes(),
                backoff_secs: tracker.backoff_secs(),
                next_retry: tracker.next_retry(),
                transitions: tracker.transitions(),
            });
        }
        HealthReport {
            subjects,
            transition_counts,
        }
    }
}

/// One subject's final position after a replay.
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

/// The replayed health table: final states plus transition totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthReport {
    /// Per-subject rows, sorted by subject.
    pub subjects: Vec<SubjectHealth>,
    /// `"<from>_<to>" → count` transition totals across subjects.
    pub transition_counts: BTreeMap<String, u64>,
}

impl HealthReport {
    /// Absorb the report of a replay over other subjects: the result is
    /// the report one replay over both logs would give. Rows stay
    /// sorted by subject and transition totals add. Each subject's
    /// timeline must replay whole in one of the two, so the subjects
    /// must be disjoint.
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
                "subject {} replayed twice",
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
    use crate::event::EventLog;

    fn t(offset: i64) -> Time {
        Time::from_civil(2018, 4, 25, 0, 0, 0) + offset
    }

    #[test]
    fn lifecycle_walks_healthy_degraded_failed_and_back() {
        let mut tracker = HealthTracker::new(HealthPolicy::default());
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
        // First retry is one backoff_base past the failing probe.
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
        let mut tracker = HealthTracker::new(HealthPolicy::default());
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
        let mut tracker = HealthTracker::new(HealthPolicy::default());
        tracker.observe(t(0), false);
        assert_eq!(tracker.state(), HealthState::Degraded);
        tracker.observe(t(1), true);
        assert_eq!(
            tracker.observe(t(2), true),
            Some((HealthState::Degraded, HealthState::Healthy))
        );
    }

    #[test]
    fn replay_emits_transitions_and_outage_runs() {
        let mut log = HealthLog::new();
        for (i, ok) in [true, false, false, false, true, true].iter().enumerate() {
            log.record("ocsp.example.com", t(i as i64 * 3_600), *ok);
        }
        let mut events = EventLog::new();
        let report = log.replay(&HealthPolicy::default(), &mut events);
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
        let text = events.to_jsonl();
        assert!(text
            .contains("\"kind\":\"outage\",\"subject\":\"ocsp.example.com\",\"detail\":\"open\""));
        assert!(text.contains("close after 3 failed probes"));
        assert!(text.contains("healthy -> degraded"));
        assert!(text.contains("degraded -> failed"));
        assert!(text.contains("failed -> healthy"));
    }

    #[test]
    fn merge_stitches_chunk_boundaries_exactly() {
        // The same sequence replayed whole vs split mid-failure-run.
        let outcomes = [true, false, false, false, true, true, false];
        let mut whole = HealthLog::new();
        let mut first = HealthLog::new();
        let mut second = HealthLog::new();
        for (i, ok) in outcomes.iter().enumerate() {
            whole.record("r", t(i as i64), *ok);
            if i < 3 {
                first.record("r", t(i as i64), *ok);
            } else {
                second.record("r", t(i as i64), *ok);
            }
        }
        let mut merged = first;
        merged.merge(second);
        assert_eq!(merged, whole);
        let mut ev_whole = EventLog::new();
        let mut ev_merged = EventLog::new();
        let report_whole = whole.replay(&HealthPolicy::default(), &mut ev_whole);
        let report_merged = merged.replay(&HealthPolicy::default(), &mut ev_merged);
        assert_eq!(report_whole, report_merged);
        assert_eq!(ev_whole.to_jsonl(), ev_merged.to_jsonl());
    }

    #[test]
    fn export_registers_counters_and_gauges() {
        let mut log = HealthLog::new();
        for (i, ok) in [false, false, false, false].iter().enumerate() {
            log.record("down.example.com", t(i as i64 * 3_600), *ok);
        }
        log.record("up.example.com", t(0), true);
        let mut events = EventLog::new();
        let report = log.replay(&HealthPolicy::default(), &mut events);
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
