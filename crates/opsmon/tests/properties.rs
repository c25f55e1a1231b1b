//! Property tests for the health-state machine: backoff monotonicity,
//! recovery after K consecutive successes, merge associativity across
//! arbitrary shard/chunk splits, and per-subject replays merging to one
//! replay.

use asn1::Time;
use mustaple_opsmon::{
    EventLog, HealthLog, HealthPolicy, HealthReport, HealthState, HealthTracker,
};
use proptest::prelude::*;

fn policy_strategy() -> impl Strategy<Value = HealthPolicy> {
    (1u32..4, 0u32..4, 1u32..5, 1i64..120, 0i64..7_200).prop_map(
        |(degraded_after, failed_extra, recover_after, base, max_extra)| HealthPolicy {
            degraded_after,
            failed_after: degraded_after + failed_extra,
            recover_after,
            backoff_base_secs: base,
            backoff_max_secs: base + max_extra,
        },
    )
}

proptest! {
    /// Over any outcome sequence, the scheduled backoff delay never
    /// shrinks within a failure run, never exceeds the ceiling, and
    /// resets to the base once the subject recovers.
    #[test]
    fn backoff_is_monotone_within_a_failure_run(
        policy in policy_strategy(),
        outcomes in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        let mut tracker = HealthTracker::new(policy);
        let mut in_run = false;
        let mut previous = 0i64;
        for (i, &ok) in outcomes.iter().enumerate() {
            tracker.observe(Time::from_unix(i as i64 * 60), ok);
            let backoff = tracker.backoff_secs();
            prop_assert!(backoff <= policy.backoff_max_secs);
            prop_assert!(backoff >= policy.backoff_base_secs.min(policy.backoff_max_secs));
            if !ok && in_run {
                prop_assert!(backoff >= previous, "backoff shrank mid-run at {i}");
            }
            if tracker.state() == HealthState::Healthy {
                prop_assert_eq!(
                    backoff,
                    policy.backoff_base_secs.min(policy.backoff_max_secs)
                );
            }
            in_run = !ok;
            previous = backoff;
        }
    }

    /// After any history, K consecutive successes always land the
    /// subject in Healthy with no pending retry.
    #[test]
    fn k_consecutive_successes_always_recover(
        policy in policy_strategy(),
        history in proptest::collection::vec(any::<bool>(), 0..64),
    ) {
        let mut tracker = HealthTracker::new(policy);
        for (i, &ok) in history.iter().enumerate() {
            tracker.observe(Time::from_unix(i as i64 * 60), ok);
        }
        let after = history.len() as i64;
        for k in 0..policy.recover_after {
            tracker.observe(Time::from_unix((after + k as i64) * 60), true);
        }
        prop_assert_eq!(tracker.state(), HealthState::Healthy);
        prop_assert_eq!(tracker.next_retry(), None);
        prop_assert_eq!(
            tracker.backoff_secs(),
            policy.backoff_base_secs.min(policy.backoff_max_secs)
        );
    }

    /// Splitting a subject's probe timeline at any two cut points and
    /// merging the pieces back — in either association — replays to
    /// the same report and the same event bytes as the unsplit log.
    #[test]
    fn merge_is_associative_across_arbitrary_splits(
        policy in policy_strategy(),
        outcomes in proptest::collection::vec(any::<bool>(), 0..48),
        cuts in (0usize..49, 0usize..49),
    ) {
        let cut_a = cuts.0.min(outcomes.len());
        let cut_b = cuts.1.min(outcomes.len()).max(cut_a);
        let mut whole = HealthLog::new();
        let mut parts = [HealthLog::new(), HealthLog::new(), HealthLog::new()];
        for (i, &ok) in outcomes.iter().enumerate() {
            let at = Time::from_unix(i as i64 * 60);
            whole.record("r", at, ok);
            let part = if i < cut_a {
                0
            } else if i < cut_b {
                1
            } else {
                2
            };
            parts[part].record("r", at, ok);
        }
        let [a, b, c] = parts;

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(b.clone());
        left.merge(c.clone());
        // a ⊕ (b ⊕ c)
        let mut right_tail = b;
        right_tail.merge(c);
        let mut right = a;
        right.merge(right_tail);

        prop_assert_eq!(&left, &whole);
        prop_assert_eq!(&right, &whole);
        let mut ev_whole = EventLog::new();
        let mut ev_left = EventLog::new();
        let mut ev_right = EventLog::new();
        let report_whole = whole.replay(&policy, &mut ev_whole);
        let report_left = left.replay(&policy, &mut ev_left);
        let report_right = right.replay(&policy, &mut ev_right);
        prop_assert_eq!(&report_left, &report_whole);
        prop_assert_eq!(&report_right, &report_whole);
        prop_assert_eq!(ev_left.to_jsonl(), ev_whole.to_jsonl());
        prop_assert_eq!(ev_right.to_jsonl(), ev_whole.to_jsonl());
    }

    /// Replaying each subject's log on its own, in any order, and
    /// merging the reports gives the report and the event bytes of one
    /// replay over every subject.
    #[test]
    fn per_subject_replays_merge_to_one_replay(
        policy in policy_strategy(),
        outcomes in proptest::collection::vec((0usize..4, any::<bool>()), 0..64),
        reverse in any::<bool>(),
    ) {
        let subjects = ["r2", "r0", "r3", "r1"];
        let mut whole = HealthLog::new();
        let mut logs: Vec<HealthLog> = subjects.iter().map(|_| HealthLog::new()).collect();
        for (i, &(subject, ok)) in outcomes.iter().enumerate() {
            let at = Time::from_unix(i as i64 * 60);
            whole.record(subjects[subject], at, ok);
            logs[subject].record(subjects[subject], at, ok);
        }
        if reverse {
            logs.reverse();
        }
        let mut ev_whole = EventLog::new();
        let report_whole = whole.replay(&policy, &mut ev_whole);
        let mut ev_parts = EventLog::new();
        let mut report_parts = HealthReport::default();
        for log in &logs {
            report_parts.merge(log.replay(&policy, &mut ev_parts));
        }
        prop_assert_eq!(&report_parts, &report_whole);
        prop_assert_eq!(ev_parts.to_jsonl(), ev_whole.to_jsonl());
    }

    /// The events artifact round-trips byte-exactly through its strict
    /// parser for any replayed timeline.
    #[test]
    fn events_jsonl_round_trips_byte_exactly(
        policy in policy_strategy(),
        outcomes in proptest::collection::vec(any::<bool>(), 0..48),
    ) {
        let mut log = HealthLog::new();
        for (i, &ok) in outcomes.iter().enumerate() {
            log.record("ocsp.example.com", Time::from_unix(i as i64 * 60), ok);
        }
        let mut events = EventLog::new();
        log.replay(&policy, &mut events);
        let text = events.to_jsonl();
        let parsed = EventLog::parse_jsonl(&text);
        prop_assert!(parsed.is_ok());
        prop_assert_eq!(parsed.unwrap().to_jsonl(), text);
    }
}
