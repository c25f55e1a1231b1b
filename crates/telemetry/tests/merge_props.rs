//! Merge-and-render properties of [`Registry`]: any write sequence over
//! catalog handles, split across one to four registries and merged back
//! in any order, gives the registry that one registry fed the whole
//! sequence holds — the same `==`, the same `counters()` and
//! `histograms()` in (name, label) order, and the same
//! `to_prometheus()` bytes.
//!
//! Labels arrive in every form a write accepts, so one text reaches a
//! series as a `&'static str` at one write, a shared `Arc<str>` at
//! another and a borrowed `String` at a third; the pointer match must
//! fall back to the text. Some writes borrow the first half of a pooled
//! label, at the same address as the whole, so an address match must
//! also compare lengths. Label texts include Prometheus metacharacters,
//! and counter increments are often zero (which still creates the
//! series).

use mustaple_telemetry::catalog::{
    CRITERION_SAMPLE_NS, HEALTH_TRANSITIONS, NET_FAILURE_BY_GROUP, NET_LATENCY_MS, NET_REQUEST,
    OCSP_RESPONDER_CACHE, SCAN_HOURLY_PROBES,
};
use mustaple_telemetry::{Label, Metric, Registry};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const COUNTERS: [Metric; 5] = [
    NET_REQUEST,
    SCAN_HOURLY_PROBES,
    OCSP_RESPONDER_CACHE,
    HEALTH_TRANSITIONS,
    NET_FAILURE_BY_GROUP,
];
const HISTOGRAMS: [Metric; 2] = [NET_LATENCY_MS, CRITERION_SAMPLE_NS];
const LABELS: [&str; 8] = [
    "Paris",
    "Sao-Paulo",
    "",
    "with \"quotes\"",
    "back\\slash",
    "two\nlines",
    "http://ocsp.example.test/a{b}=c,d",
    "le=\"+Inf\"",
];

/// One write: counter or histogram, which metric, which label text, in
/// which form (0 static, 1 shared from a pool, 2 a fresh `Arc`, 3 a
/// borrowed `String`, 4 the first half of the pooled label), the value,
/// and the part it goes to.
type Op = (bool, usize, usize, u8, u64, usize);

/// The text an op's label carries.
fn text_of(&(_, _, label, form, _, _): &Op) -> &'static str {
    let text = LABELS[label];
    if form == 4 {
        &text[..text.len() / 2]
    } else {
        text
    }
}

fn op() -> impl Strategy<Value = Op> {
    (
        any::<bool>(),
        0usize..5,
        0usize..LABELS.len(),
        0u8..5,
        0u64..3_000,
        0usize..4,
    )
}

fn apply(registry: &mut Registry, pool: &[Arc<str>], op: &Op) {
    let &(histogram, metric, label, form, value, _) = op;
    let text = text_of(op);
    let fresh: Arc<str> = Arc::from(text);
    let owned = text.to_string();
    let label = match form {
        0 => Label::Static(text),
        1 => Label::Shared(&pool[label]),
        2 => Label::Shared(&fresh),
        3 => Label::from(&owned),
        _ => Label::Borrowed(&pool[label][..text.len()]),
    };
    if histogram {
        registry.observe(HISTOGRAMS[metric % HISTOGRAMS.len()], label, value);
    } else {
        // Mostly zero or one, so zero-valued adds are common.
        registry.add(COUNTERS[metric], label, value % 3);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn split_merged_registries_equal_one_fed_everything(
        ops in proptest::collection::vec(op(), 0..96),
        parts in 1usize..5,
        order in proptest::collection::vec(any::<u64>(), 4..5),
    ) {
        let pool: Vec<Arc<str>> = LABELS.iter().map(|&l| Arc::from(l)).collect();
        let mut whole = Registry::new();
        let mut split = vec![Registry::new(); parts];
        for op in &ops {
            apply(&mut whole, &pool, op);
            apply(&mut split[op.5 % parts], &pool, op);
        }
        // Merge the parts in the order their keys sort.
        let mut by_key: Vec<usize> = (0..parts).collect();
        by_key.sort_by_key(|&i| order[i]);
        let mut merged = Registry::new();
        for i in by_key {
            merged.merge(&split[i]);
        }

        // The reference: every counter series written, zero adds
        // included, and every histogram's (count, sum), in (name,
        // label) order.
        let mut counters: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        let mut histograms: BTreeMap<(&str, &str), (u64, u64)> = BTreeMap::new();
        for op in &ops {
            let &(histogram, metric, _, _, value, _) = op;
            if histogram {
                let h = histograms
                    .entry((HISTOGRAMS[metric % HISTOGRAMS.len()].name(), text_of(op)))
                    .or_default();
                *h = (h.0 + 1, h.1 + value);
            } else {
                *counters.entry((COUNTERS[metric].name(), text_of(op))).or_default() += value % 3;
            }
        }
        let expected: Vec<_> = counters.iter().map(|(&(m, l), &n)| (m, l, n)).collect();
        let summary = |r: &Registry| -> Vec<(String, String, u64, u64)> {
            r.histograms()
                .map(|(m, l, h)| (m.to_string(), l.to_string(), h.count(), h.sum()))
                .collect()
        };
        let expected_histograms: Vec<_> = histograms
            .iter()
            .map(|(&(m, l), &(count, sum))| (m.to_string(), l.to_string(), count, sum))
            .collect();

        prop_assert_eq!(whole.counters().collect::<Vec<_>>(), expected.clone());
        prop_assert_eq!(summary(&whole), expected_histograms);
        prop_assert!(merged == whole);
        prop_assert_eq!(merged.counters().collect::<Vec<_>>(), expected);
        prop_assert!(merged.histograms().eq(whole.histograms()));
        prop_assert_eq!(merged.to_prometheus(), whole.to_prometheus());
    }
}
