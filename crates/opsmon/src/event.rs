//! The deterministic event log: operational events on the simulated
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
//! how the work was split. [`EventLog::parse_jsonl`] accepts exactly
//! what the writer writes, so re-rendering what it parses reproduces
//! the input byte for byte, the same contract `telemetry::trace` pins
//! for spans; both artifacts escape and parse strings with
//! [`telemetry::json`].
//!
//! Producers call [`EventLog::push`]: the health monitor as each
//! outcome arrives, the pipelines for rollovers and revocations. The
//! live tier posts each event's [`Event::to_json_line`] to a webhook.

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

/// The event collector: an in-memory log that merges across
/// shards/chunks and renders the `events.jsonl` artifact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Append one event.
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
    /// [`EventLog::to_jsonl`]. Strict: every line must be one the writer
    /// writes, newline included, and the lines must come in canonical
    /// order, so re-rendering the result reproduces the input byte for
    /// byte; anything else is an `Err`.
    pub fn parse_jsonl(text: &str) -> Result<EventLog, String> {
        let mut log = EventLog::new();
        for (i, line) in json::lines(text)?.enumerate() {
            let lineno = i + 1;
            let event = parse_jsonl_line(line).map_err(|e| format!("line {lineno}: {e}"))?;
            if log
                .events
                .last()
                .is_some_and(|last| last.key() > event.key())
            {
                return Err(format!("line {lineno}: out of canonical order"));
            }
            log.events.push(event);
        }
        Ok(log)
    }
}

/// Parse one serialized event line, field by field in the writer's
/// order; a line whose re-rendering differs (`"t":+1`, `"t":01`, an
/// escape the writer never writes) is refused.
fn parse_jsonl_line(line: &str) -> Result<Event, String> {
    let rest = json::expect(line, "{\"t\":")?;
    let (t, rest) = json::parse_int(rest)?;
    let rest = json::expect(rest, ",\"kind\":")?;
    let (kind, rest) = json::parse_string(rest)?;
    let rest = json::expect(rest, ",\"subject\":")?;
    let (subject, rest) = json::parse_string(rest)?;
    let rest = json::expect(rest, ",\"detail\":")?;
    let (detail, rest) = json::parse_string(rest)?;
    if rest != "}" {
        return Err(format!("expected `}}` at `{rest}`"));
    }
    let event = Event {
        at: Time::from_unix(t),
        kind: EventKind::parse(&kind)?,
        subject,
        detail,
    };
    if event.to_json_line() != line {
        return Err(format!("not in the writer's form: `{line}`"));
    }
    Ok(event)
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
        // Lines the writer never writes, each of which an earlier
        // parser accepted and re-rendered differently.
        for line in [
            "{\"t\":1,\"kind\":\"health\",\"subject\":\"s\",\"detail\":\"a\"c\"}",
            "{\"t\":+1,\"kind\":\"health\",\"subject\":\"s\",\"detail\":\"d\"}",
            "{\"t\":01,\"kind\":\"health\",\"subject\":\"s\",\"detail\":\"d\"}",
            "{\"t\":-0,\"kind\":\"health\",\"subject\":\"s\",\"detail\":\"d\"}",
            "{\"t\":1,\"kind\":\"health\",\"subject\":\"s\",\"detail\":\"\\u+001\"}",
            "{\"t\":1,\"kind\":\"health\",\"subject\":\"s\",\"detail\":\"\\u0041\"}",
            "{\"t\":1,\"t\":2,\"kind\":\"health\",\"subject\":\"s\",\"detail\":\"d\"}",
            "{\"kind\":\"health\",\"t\":1,\"subject\":\"s\",\"detail\":\"d\"}",
        ] {
            assert!(
                EventLog::parse_jsonl(&format!("{line}\n")).is_err(),
                "accepted {line}"
            );
        }
        // A missing final newline, a CRLF ending and an out-of-order
        // pair would each re-render differently too.
        let line = "{\"t\":1,\"kind\":\"health\",\"subject\":\"s\",\"detail\":\"d\"}";
        let later = "{\"t\":2,\"kind\":\"health\",\"subject\":\"s\",\"detail\":\"d\"}";
        assert!(EventLog::parse_jsonl(line).is_err());
        assert!(EventLog::parse_jsonl(&format!("{line}\r\n")).is_err());
        assert!(EventLog::parse_jsonl(&format!("{later}\n{line}\n")).is_err());
        assert!(EventLog::parse_jsonl(&format!("{line}\n{later}\n")).is_ok());
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
}
