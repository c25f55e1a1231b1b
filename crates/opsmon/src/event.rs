//! The deterministic event bus: operational events on the simulated
//! clock, rendered to a depth-free `events.jsonl`.
//!
//! Events are flat records (no tree, unlike `trace.jsonl`): one JSON
//! object per line with a fixed field order —
//!
//! ```text
//! {"t":1524614400,"kind":"health","subject":"ocsp.digicert.com","detail":"healthy -> degraded"}
//! ```
//!
//! `t` is the simulated Unix timestamp, so the rendered bytes are a
//! pure function of the simulation and byte-identical for every worker
//! count and chunking — [`EventLog::to_jsonl`] sorts
//! canonically before rendering, so producers may append in any
//! deterministic order and merged logs render identically no matter
//! how the work was split. [`EventLog::parse_jsonl`] is strict for
//! exactly the subset we emit and re-serializes byte-exactly, the same
//! contract `telemetry::trace` pins for spans; both artifacts escape and
//! parse strings with [`telemetry::json`].
//!
//! Delivery is decoupled from collection: anything that wants to *see*
//! events implements [`Notifier`]; the offline pipelines use
//! [`EventLog`] (collect, merge, render), while the live tier wraps an
//! [`EventSink`] in a [`WebhookNotifier`] to push each event's JSON
//! line to an external receiver. The real-HTTP sink lives in `ocspd`;
//! this crate only defines the abstraction and an in-memory
//! [`BufferSink`] for tests.

use asn1::Time;
use std::fmt::Write as _;
use telemetry::json;

/// What an event reports. The set is closed on purpose: the event log
/// is an artifact, and a free-form kind string would let call sites
/// fork the taxonomy silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A health-state transition (see [`crate::health`]).
    Health,
    /// A probe-failure run opening or closing against one responder.
    Outage,
    /// A certificate entering the revoked pool.
    Revocation,
    /// An OCSP production window rolling over.
    Rollover,
}

impl EventKind {
    /// The `kind` field value in the JSONL rendering.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Health => "health",
            EventKind::Outage => "outage",
            EventKind::Revocation => "revocation",
            EventKind::Rollover => "rollover",
        }
    }

    /// Inverse of [`EventKind::label`].
    pub fn parse(s: &str) -> Result<EventKind, String> {
        match s {
            "health" => Ok(EventKind::Health),
            "outage" => Ok(EventKind::Outage),
            "revocation" => Ok(EventKind::Revocation),
            "rollover" => Ok(EventKind::Rollover),
            other => Err(format!("unknown event kind `{other}`")),
        }
    }
}

/// One operational event on the simulated clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// When the event happened (simulated time).
    pub at: Time,
    /// What happened.
    pub kind: EventKind,
    /// Who it happened to (responder hostname, certificate subject, …).
    pub subject: String,
    /// Human-readable specifics (`healthy -> degraded`, `window 42`, …).
    pub detail: String,
}

impl Event {
    /// Construct an event.
    pub fn new(at: Time, kind: EventKind, subject: &str, detail: &str) -> Event {
        Event {
            at,
            kind,
            subject: subject.to_owned(),
            detail: detail.to_owned(),
        }
    }

    /// The canonical sort key: time first, then kind, subject, detail —
    /// a total order, so sorting is insertion-order independent.
    fn key(&self) -> (Time, EventKind, &str, &str) {
        (self.at, self.kind, &self.subject, &self.detail)
    }

    /// Serialize as one JSONL line (no trailing newline). This is also
    /// the webhook payload, so the wire format and the artifact format
    /// cannot drift apart.
    pub fn to_json_line(&self) -> String {
        let mut line = String::new();
        self.write_json(&mut line);
        line
    }

    /// Append [`Event::to_json_line`]'s bytes to `out`.
    fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"t\":{},\"kind\":\"{}\",\"subject\":\"",
            self.at.unix(),
            self.kind.label(),
        );
        json::escape_into(out, &self.subject);
        out.push_str("\",\"detail\":\"");
        json::escape_into(out, &self.detail);
        out.push_str("\"}");
    }
}

/// A consumer of operational events.
///
/// Pipelines emit through this trait so collection (offline
/// [`EventLog`]) and delivery (live [`WebhookNotifier`]) are
/// interchangeable at the call site.
pub trait Notifier {
    /// Observe one event.
    fn notify(&mut self, event: Event);
}

/// The offline event collector: an in-memory log that merges across
/// shards/chunks and renders the `events.jsonl` artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<Event>,
}

impl Notifier for EventLog {
    fn notify(&mut self, event: Event) {
        self.events.push(event);
    }
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Number of collected events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Append one event (equivalent to [`Notifier::notify`]).
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Absorb another log. Merging is commutative up to rendering:
    /// [`EventLog::to_jsonl`] sorts canonically, so any merge order
    /// over the same event multiset renders the same bytes.
    pub fn merge(&mut self, other: EventLog) {
        self.events.extend(other.events);
    }

    /// The events in canonical order (time, kind, subject, detail).
    pub fn sorted(&self) -> Vec<&Event> {
        let mut out: Vec<&Event> = self.events.iter().collect();
        out.sort_by_key(|e| e.key());
        out
    }

    /// Render the depth-free JSONL artifact: one event per line in
    /// canonical order. Byte-stable across worker counts and chunkings
    /// because every producer feeds the same simulated-time
    /// events regardless of how the work was split.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.sorted() {
            event.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL artifact previously produced by
    /// [`EventLog::to_jsonl`]. Strict for the subset we emit;
    /// re-serializing the result reproduces the input byte-for-byte
    /// (pinned by tests).
    pub fn parse_jsonl(text: &str) -> Result<EventLog, String> {
        let mut log = EventLog::new();
        for (i, line) in text.lines().enumerate() {
            let lineno = i + 1;
            let event = parse_jsonl_line(line).map_err(|e| format!("line {lineno}: {e}"))?;
            log.events.push(event);
        }
        Ok(log)
    }
}

/// Where a webhook-style notifier pushes rendered events. The offline
/// tier never constructs a real sink; the live service implements this
/// over an actual TCP connection.
pub trait EventSink {
    /// Deliver one JSON-line payload; `Err` counts as a failed
    /// delivery and is absorbed by the notifier (events must never
    /// disturb the pipeline that emitted them).
    fn deliver(&mut self, payload: &str) -> Result<(), String>;
}

/// An in-memory [`EventSink`] collecting payloads, for tests and dry
/// runs.
#[derive(Debug, Clone, Default)]
pub struct BufferSink {
    /// Every payload delivered, in order.
    pub payloads: Vec<String>,
}

impl EventSink for BufferSink {
    fn deliver(&mut self, payload: &str) -> Result<(), String> {
        self.payloads.push(payload.to_owned());
        Ok(())
    }
}

/// A [`Notifier`] that forwards each event's JSON line to an
/// [`EventSink`], tallying outcomes. Delivery failures are counted,
/// never propagated — an unreachable webhook must not perturb the
/// emitting pipeline.
#[derive(Debug, Clone)]
pub struct WebhookNotifier<S: EventSink> {
    sink: S,
    delivered: u64,
    failed: u64,
}

impl<S: EventSink> WebhookNotifier<S> {
    /// Wrap a sink.
    pub fn new(sink: S) -> WebhookNotifier<S> {
        WebhookNotifier {
            sink,
            delivered: 0,
            failed: 0,
        }
    }

    /// Successful deliveries so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Failed deliveries so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Recover the sink (e.g. to inspect a [`BufferSink`]).
    pub fn into_sink(self) -> S {
        self.sink
    }
}

impl<S: EventSink> Notifier for WebhookNotifier<S> {
    fn notify(&mut self, event: Event) {
        match self.sink.deliver(&event.to_json_line()) {
            Ok(()) => self.delivered += 1,
            Err(_) => self.failed += 1,
        }
    }
}

/// A [`Notifier`] that discards everything, for call sites that only
/// want the health report.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullNotifier;

impl Notifier for NullNotifier {
    fn notify(&mut self, _event: Event) {}
}

/// Parse one serialized event line.
fn parse_jsonl_line(line: &str) -> Result<Event, String> {
    let body = line
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .ok_or_else(|| format!("not a JSON object: `{line}`"))?;
    let mut t: Option<i64> = None;
    let mut kind: Option<EventKind> = None;
    let mut subject: Option<String> = None;
    let mut detail: Option<String> = None;
    let mut rest = body;
    while !rest.is_empty() {
        let after_key = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected a key at `{rest}`"))?;
        let quote = after_key
            .find('"')
            .ok_or_else(|| format!("unterminated key at `{rest}`"))?;
        let key = &after_key[..quote];
        let after_colon = after_key[quote + 1..]
            .strip_prefix(':')
            .ok_or_else(|| format!("expected `:` after key `{key}`"))?;
        let consumed;
        match key {
            "t" => {
                let end = after_colon.find([',', '}']).unwrap_or(after_colon.len());
                let digits = &after_colon[..end];
                t = Some(
                    digits
                        .parse()
                        .map_err(|_| format!("bad integer `{digits}` for key `t`"))?,
                );
                consumed = &after_colon[end..];
            }
            "kind" => {
                let (value, tail) = json::parse_string(after_colon)?;
                kind = Some(EventKind::parse(&value)?);
                consumed = tail;
            }
            "subject" => {
                let (value, tail) = json::parse_string(after_colon)?;
                subject = Some(value);
                consumed = tail;
            }
            "detail" => {
                let (value, tail) = json::parse_string(after_colon)?;
                detail = Some(value);
                consumed = tail;
            }
            other => return Err(format!("unknown key `{other}`")),
        }
        rest = consumed.strip_prefix(',').unwrap_or(consumed);
        if consumed.is_empty() || consumed == rest {
            break;
        }
    }
    Ok(Event {
        at: Time::from_unix(t.ok_or("missing `t`")?),
        kind: kind.ok_or("missing `kind`")?,
        subject: subject.ok_or("missing `subject`")?,
        detail: detail.ok_or("missing `detail`")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> EventLog {
        let mut log = EventLog::new();
        let t0 = Time::from_civil(2018, 4, 25, 0, 0, 0);
        log.push(Event::new(
            t0 + 7_200,
            EventKind::Outage,
            "ocsp.digicert.com",
            "open",
        ));
        log.push(Event::new(
            t0,
            EventKind::Health,
            "ocsp.digicert.com",
            "healthy -> degraded",
        ));
        log.push(Event::new(t0, EventKind::Rollover, "ocsp", "window 1"));
        log
    }

    #[test]
    fn jsonl_is_canonically_sorted() {
        let text = sample_log().to_jsonl();
        let expected = "\
{\"t\":1524614400,\"kind\":\"health\",\"subject\":\"ocsp.digicert.com\",\"detail\":\"healthy -> degraded\"}
{\"t\":1524614400,\"kind\":\"rollover\",\"subject\":\"ocsp\",\"detail\":\"window 1\"}
{\"t\":1524621600,\"kind\":\"outage\",\"subject\":\"ocsp.digicert.com\",\"detail\":\"open\"}
";
        assert_eq!(text, expected);
    }

    #[test]
    fn parse_round_trips_byte_exactly() {
        let text = sample_log().to_jsonl();
        let parsed = EventLog::parse_jsonl(&text).expect("parse own output");
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn merge_order_does_not_change_the_rendering() {
        let log = sample_log();
        let mut split_a = EventLog::new();
        let mut split_b = EventLog::new();
        for (i, event) in log.events.iter().enumerate() {
            if i % 2 == 0 {
                split_a.push(event.clone());
            } else {
                split_b.push(event.clone());
            }
        }
        let mut ab = split_a.clone();
        ab.merge(split_b.clone());
        let mut ba = split_b;
        ba.merge(split_a);
        assert_eq!(ab.to_jsonl(), log.to_jsonl());
        assert_eq!(ba.to_jsonl(), log.to_jsonl());
    }

    #[test]
    fn awkward_strings_escape_and_round_trip() {
        let mut log = EventLog::new();
        log.push(Event::new(
            Time::from_unix(7),
            EventKind::Revocation,
            "with \"quotes\" and \\slash\\",
            "tab\there\nnewline\u{1}low",
        ));
        let text = log.to_jsonl();
        assert!(text.contains("\\\"quotes\\\""));
        assert!(text.contains("\\t"));
        assert!(text.contains("\\u0001"));
        let parsed = EventLog::parse_jsonl(&text).expect("parse");
        assert_eq!(parsed.to_jsonl(), text);
        assert_eq!(parsed.events[0], log.events[0]);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(EventLog::parse_jsonl("not json\n").is_err());
        assert!(EventLog::parse_jsonl("{\"t\":1}\n").is_err()); // missing fields
        assert!(EventLog::parse_jsonl(
            "{\"t\":1,\"kind\":\"nope\",\"subject\":\"s\",\"detail\":\"d\"}\n"
        )
        .is_err());
        assert!(EventLog::parse_jsonl(
            "{\"t\":x,\"kind\":\"health\",\"subject\":\"s\",\"detail\":\"d\"}\n"
        )
        .is_err());
        assert!(EventLog::parse_jsonl(
            "{\"t\":1,\"kind\":\"health\",\"subject\":\"s\",\"detail\":\"d\",\"extra\":1}\n"
        )
        .is_err());
    }

    #[test]
    fn negative_timestamps_round_trip() {
        // Pre-epoch simulated times are legal `asn1::Time` values.
        let mut log = EventLog::new();
        log.push(Event::new(
            Time::from_unix(-61),
            EventKind::Health,
            "s",
            "d",
        ));
        let text = log.to_jsonl();
        assert!(text.contains("\"t\":-61"));
        let parsed = EventLog::parse_jsonl(&text).expect("parse");
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn webhook_notifier_tallies_and_buffers() {
        let mut notifier = WebhookNotifier::new(BufferSink::default());
        notifier.notify(Event::new(Time::from_unix(1), EventKind::Health, "s", "d"));
        assert_eq!(notifier.delivered(), 1);
        assert_eq!(notifier.failed(), 0);
        let sink = notifier.into_sink();
        assert_eq!(
            sink.payloads,
            vec!["{\"t\":1,\"kind\":\"health\",\"subject\":\"s\",\"detail\":\"d\"}".to_string()]
        );
    }

    #[test]
    fn failing_sink_is_absorbed() {
        struct Broken;
        impl EventSink for Broken {
            fn deliver(&mut self, _payload: &str) -> Result<(), String> {
                Err("unreachable".into())
            }
        }
        let mut notifier = WebhookNotifier::new(Broken);
        notifier.notify(Event::new(Time::from_unix(1), EventKind::Health, "s", "d"));
        assert_eq!(notifier.delivered(), 0);
        assert_eq!(notifier.failed(), 1);
    }
}
