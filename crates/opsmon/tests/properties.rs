//! Property tests for the health-state machine and its monitor: backoff
//! monotonicity, recovery after two consecutive successes, per-subject
//! monitors merging to one monitor, and the strictness of the two JSONL
//! parsers.

use asn1::Time;
use mustaple_opsmon::{
    Event, EventKind, EventLog, HealthMonitor, HealthReport, HealthState, HealthTracker,
};
use proptest::prelude::*;
use telemetry::trace::Span;

/// The backoff the tracker starts from and its ceiling, in seconds.
const BACKOFF_BASE_SECS: i64 = 60;
const BACKOFF_MAX_SECS: i64 = 3_600;

proptest! {
    /// Over any outcome sequence, the scheduled backoff delay never
    /// shrinks within a failure run, never exceeds the ceiling, and
    /// resets to the base once the subject recovers.
    #[test]
    fn backoff_is_monotone_within_a_failure_run(
        outcomes in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        let mut tracker = HealthTracker::new();
        let mut in_run = false;
        let mut previous = 0i64;
        for (i, &ok) in outcomes.iter().enumerate() {
            tracker.observe(Time::from_unix(i as i64 * 60), ok);
            let backoff = tracker.backoff_secs();
            prop_assert!(backoff <= BACKOFF_MAX_SECS);
            prop_assert!(backoff >= BACKOFF_BASE_SECS);
            if !ok && in_run {
                prop_assert!(backoff >= previous, "backoff shrank mid-run at {i}");
            }
            if tracker.state() == HealthState::Healthy {
                prop_assert_eq!(backoff, BACKOFF_BASE_SECS);
            }
            in_run = !ok;
            previous = backoff;
        }
    }

    /// After any history, two consecutive successes always land the
    /// subject in Healthy with no pending retry.
    #[test]
    fn k_consecutive_successes_always_recover(
        history in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        let mut tracker = HealthTracker::new();
        for (i, &ok) in history.iter().enumerate() {
            tracker.observe(Time::from_unix(i as i64 * 60), ok);
        }
        let after = history.len() as i64;
        for k in 0..2 {
            tracker.observe(Time::from_unix((after + k) * 60), true);
        }
        prop_assert_eq!(tracker.state(), HealthState::Healthy);
        prop_assert_eq!(tracker.next_retry(), None);
        prop_assert_eq!(tracker.backoff_secs(), BACKOFF_BASE_SECS);
    }

    /// Feeding each subject to a monitor of its own, in any order, and
    /// merging the reports gives the report and the event bytes of one
    /// monitor fed every subject interleaved.
    #[test]
    fn per_subject_monitors_merge_to_one_monitor(
        outcomes in proptest::collection::vec((0usize..4, any::<bool>()), 0..64),
        reverse in any::<bool>(),
    ) {
        let subjects = ["r2", "r0", "r3", "r1"];
        let mut whole = HealthMonitor::new();
        let mut ev_whole = EventLog::new();
        let mut monitors: Vec<HealthMonitor> =
            subjects.iter().map(|_| HealthMonitor::new()).collect();
        let mut ev_parts = EventLog::new();
        for (i, &(subject, ok)) in outcomes.iter().enumerate() {
            let at = Time::from_unix(i as i64 * 60);
            whole.observe(subjects[subject], at, ok, &mut ev_whole);
            monitors[subject].observe(subjects[subject], at, ok, &mut ev_parts);
        }
        if reverse {
            monitors.reverse();
        }
        let mut report_parts = HealthReport::default();
        for monitor in &monitors {
            report_parts.merge(monitor.report());
        }
        prop_assert_eq!(&report_parts, &whole.report());
        prop_assert_eq!(ev_parts.to_jsonl(), ev_whole.to_jsonl());
    }

    /// The events artifact round-trips byte-exactly through its strict
    /// parser for any monitored timeline.
    #[test]
    fn events_jsonl_round_trips_byte_exactly(
        outcomes in proptest::collection::vec(any::<bool>(), 0..48),
    ) {
        let mut monitor = HealthMonitor::new();
        let mut events = EventLog::new();
        for (i, &ok) in outcomes.iter().enumerate() {
            monitor.observe("ocsp.example.com", Time::from_unix(i as i64 * 60), ok, &mut events);
        }
        let text = events.to_jsonl();
        let parsed = EventLog::parse_jsonl(&text);
        prop_assert!(parsed.is_ok());
        prop_assert_eq!(parsed.unwrap().to_jsonl(), text);
    }
}

/// Every single-byte substitution (from a set of bytes that matter to
/// the grammar) and every truncation of `text` either fails to parse or
/// re-renders to exactly the edited bytes.
fn assert_edits_parse_strictly(text: &str, reparse: impl Fn(&str) -> Result<String, String>) {
    assert_eq!(reparse(text).as_deref(), Ok(text));
    let bytes = text.as_bytes();
    let mut edits: Vec<Vec<u8>> = (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
    for i in 0..bytes.len() {
        for b in *b"\"+0,}\\x" {
            if bytes[i] != b {
                let mut edit = bytes.to_vec();
                edit[i] = b;
                edits.push(edit);
            }
        }
    }
    for edit in edits {
        let edited = std::str::from_utf8(&edit).expect("ASCII artifacts stay UTF-8");
        if let Ok(rendered) = reparse(edited) {
            assert_eq!(rendered, edited, "accepted an edit it renders differently");
        }
    }
}

#[test]
fn jsonl_parsers_accept_only_what_they_re_render() {
    // A quote, a backslash and a control character in subject and
    // detail, so every escape the writer knows appears.
    let subject = "ocsp \"a\\b\"\u{1}";
    let mut monitor = HealthMonitor::new();
    let mut events = EventLog::new();
    for (i, ok) in [false, false, true, true].into_iter().enumerate() {
        monitor.observe(subject, Time::from_unix(60 * i as i64), ok, &mut events);
    }
    events.push(Event::new(
        Time::from_unix(120),
        EventKind::Revocation,
        subject,
        "serial \"7\"\\\t\u{1f}",
    ));
    assert_edits_parse_strictly(&events.to_jsonl(), |text| {
        EventLog::parse_jsonl(text).map(|log| log.to_jsonl())
    });

    let trace = Span::aggregate(
        "campaign",
        vec![
            Span::aggregate(
                subject,
                vec![
                    Span::leaf("chunk 0", 0, 11, 120),
                    Span::leaf("chunk 1", 12, 23, 96),
                ],
            ),
            Span::leaf("scan.alexa1m", 0, 0, 30),
        ],
    );
    assert_edits_parse_strictly(&trace.to_jsonl(), |text| {
        Span::parse_jsonl(text).map(|span| span.to_jsonl())
    });
}
