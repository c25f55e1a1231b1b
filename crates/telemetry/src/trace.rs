//! Deterministic trace spans: a hierarchical self-profile of one
//! campaign, stamped with **simulated** clock hours.
//!
//! The scan pipelines already account for wall time via
//! [`Registry::time`](crate::Registry::time) — but wall spans are
//! non-deterministic and excluded from every artifact. Trace spans are
//! the complement: each span covers a range of *simulated campaign
//! hours* (hour 0 = campaign start), so the tree is a pure function of
//! the simulation and the `trace.jsonl` artifact is byte-identical
//! across worker counts.
//!
//! The tree mirrors the execution hierarchy: a `campaign` root, one
//! child per scan pipeline (`scan.hourly`, `scan.alexa1m`, …), one
//! grandchild per shard (named after the responder/operator it covers),
//! and one leaf per `run_chunked` chunk. `units` counts the work a span
//! covers (requests, lookups) and sums upward on aggregation.
//!
//! Serialization is JSONL — one object per span in preorder, carrying
//! an explicit `depth` instead of a path (span names contain `/`
//! freely: responder URLs). [`Span::render_ascii`] draws the same tree
//! for the `figures --telemetry` self-profile.

use crate::json;
use std::fmt::Write as _;

/// One node of the span tree: a named range of simulated campaign
/// hours plus the work units it covered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What this span covers (pipeline name, responder hostname,
    /// `chunk 3`, …). Arbitrary bytes; escaped on serialization.
    pub name: String,
    /// First simulated campaign hour the span covers.
    pub start_hour: u64,
    /// Last simulated campaign hour the span covers (inclusive range
    /// end as the pipelines compute it; a point-in-time span has
    /// `start_hour == end_hour`).
    pub end_hour: u64,
    /// Work units (requests, lookups) attributed to the span itself
    /// plus all descendants.
    pub units: u64,
    /// Child spans, in execution (canonical shard/chunk) order.
    pub children: Vec<Span>,
}

impl Span {
    /// A childless span.
    pub fn leaf(name: impl Into<String>, start_hour: u64, end_hour: u64, units: u64) -> Span {
        Span {
            name: name.into(),
            start_hour,
            end_hour,
            units,
            children: Vec::new(),
        }
    }

    /// A parent span derived from its children: the hour range is the
    /// envelope (min start, max end) and `units` is the sum. An empty
    /// child list yields the degenerate `[0, 0]` span with zero units.
    pub fn aggregate(name: impl Into<String>, children: Vec<Span>) -> Span {
        let start_hour = children.iter().map(|c| c.start_hour).min().unwrap_or(0);
        let end_hour = children.iter().map(|c| c.end_hour).max().unwrap_or(0);
        let units = children.iter().map(|c| c.units).sum();
        Span {
            name: name.into(),
            start_hour,
            end_hour,
            units,
            children,
        }
    }

    /// Total number of spans in the tree (self included).
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(Span::len).sum::<usize>()
    }

    /// Always false: a span tree contains at least its root.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Serialize the tree as JSONL: one object per span in preorder,
    /// with an explicit `depth` field encoding the hierarchy (names may
    /// contain `/`, so path-style keys would be ambiguous). Byte-stable:
    /// field order is fixed and all values are integers or escaped
    /// strings.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_jsonl(&mut out, 0);
        out
    }

    fn write_jsonl(&self, out: &mut String, depth: usize) {
        self.write_line(out, depth);
        for child in &self.children {
            child.write_jsonl(out, depth + 1);
        }
    }

    /// Append this span's own line (children excluded) at `depth`.
    fn write_line(&self, out: &mut String, depth: usize) {
        let _ = write!(out, "{{\"depth\":{depth},\"name\":\"");
        json::escape_into(out, &self.name);
        let _ = writeln!(
            out,
            "\",\"start_hour\":{},\"end_hour\":{},\"units\":{}}}",
            self.start_hour, self.end_hour, self.units,
        );
    }

    /// Parse a tree previously produced by [`Span::to_jsonl`]. Strict:
    /// every line must be one the writer writes, newline included, the
    /// first line must be the depth-0 root, and each subsequent line's
    /// depth must be between 1 and one more than its predecessor's, so
    /// re-serializing the result reproduces the input byte for byte;
    /// anything else is an `Err`.
    pub fn parse_jsonl(text: &str) -> Result<Span, String> {
        let mut stack: Vec<Span> = Vec::new();
        for (i, line) in json::lines(text)?.enumerate() {
            let lineno = i + 1;
            let (depth, span) =
                parse_jsonl_line(line).map_err(|e| format!("line {lineno}: {e}"))?;
            if depth > stack.len() || (stack.is_empty() && depth != 0) {
                return Err(format!(
                    "line {lineno}: depth {depth} does not attach to the tree"
                ));
            }
            // Everything at `depth` or deeper is complete; fold it up.
            while stack.len() > depth {
                let done = match stack.pop() {
                    Some(done) => done,
                    None => return Err(format!("line {lineno}: malformed tree")),
                };
                match stack.last_mut() {
                    Some(parent) => parent.children.push(done),
                    None => return Err(format!("line {lineno}: multiple roots")),
                }
            }
            stack.push(span);
        }
        while stack.len() > 1 {
            let done = match stack.pop() {
                Some(done) => done,
                None => break,
            };
            if let Some(parent) = stack.last_mut() {
                parent.children.push(done);
            }
        }
        stack.pop().ok_or_else(|| "empty trace".to_string())
    }

    /// Render the tree as an indented ASCII self-profile, one line per
    /// span down to `max_depth` (0 = root only). Subtrees below the
    /// limit collapse into a `… (N spans elided)` line so huge shard
    /// fan-outs stay readable.
    pub fn render_ascii(&self, max_depth: usize) -> String {
        let mut out = String::new();
        self.render_line(&mut out, 0, max_depth);
        out
    }

    fn render_line(&self, out: &mut String, depth: usize, max_depth: usize) {
        let indent = "  ".repeat(depth);
        let _ = writeln!(
            out,
            "{indent}{}  hours {}..{}  units {}",
            self.name, self.start_hour, self.end_hour, self.units
        );
        if self.children.is_empty() {
            return;
        }
        if depth == max_depth {
            let elided: usize = self.children.iter().map(Span::len).sum();
            let _ = writeln!(out, "{indent}  … ({elided} spans elided)");
            return;
        }
        for child in &self.children {
            child.render_line(out, depth + 1, max_depth);
        }
    }
}

/// Parse one serialized span line into `(depth, childless span)`,
/// field by field in the writer's order; a line whose re-rendering
/// differs (`"units":02`, an escape the writer never writes) is
/// refused.
fn parse_jsonl_line(line: &str) -> Result<(usize, Span), String> {
    let rest = json::expect(line, "{\"depth\":")?;
    let (depth, rest) = json::parse_int(rest)?;
    let rest = json::expect(rest, ",\"name\":")?;
    let (name, rest) = json::parse_string(rest)?;
    let rest = json::expect(rest, ",\"start_hour\":")?;
    let (start_hour, rest) = json::parse_int(rest)?;
    let rest = json::expect(rest, ",\"end_hour\":")?;
    let (end_hour, rest) = json::parse_int(rest)?;
    let rest = json::expect(rest, ",\"units\":")?;
    let (units, rest) = json::parse_int(rest)?;
    if rest != "}" {
        return Err(format!("expected `}}` at `{rest}`"));
    }
    let span = Span::leaf(name, start_hour, end_hour, units);
    let mut rendered = String::new();
    span.write_line(&mut rendered, depth);
    if rendered.strip_suffix('\n') != Some(line) {
        return Err(format!("not in the writer's form: `{line}`"));
    }
    Ok((depth, span))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree() -> Span {
        let hourly = Span::aggregate(
            "scan.hourly",
            vec![
                Span::aggregate(
                    "ocsp.digicert.com",
                    vec![
                        Span::leaf("chunk 0", 0, 48, 100),
                        Span::leaf("chunk 1", 48, 96, 98),
                    ],
                ),
                Span::aggregate("ocsp.r3.lencr.org", vec![Span::leaf("chunk 0", 0, 96, 210)]),
            ],
        );
        let cdn = Span::leaf("scan.cdnlog", 24, 36, 5000);
        Span::aggregate("campaign", vec![hourly, cdn])
    }

    #[test]
    fn aggregate_envelopes_hours_and_sums_units() {
        let tree = sample_tree();
        assert_eq!(tree.start_hour, 0);
        assert_eq!(tree.end_hour, 96);
        assert_eq!(tree.units, 100 + 98 + 210 + 5000);
        assert_eq!(tree.len(), 8);
        assert!(!tree.is_empty());
        let empty = Span::aggregate("empty", vec![]);
        assert_eq!((empty.start_hour, empty.end_hour, empty.units), (0, 0, 0));
    }

    #[test]
    fn jsonl_round_trips_byte_exactly() {
        let tree = sample_tree();
        let jsonl = tree.to_jsonl();
        assert_eq!(jsonl.lines().count(), tree.len());
        let parsed = Span::parse_jsonl(&jsonl).expect("parse own output");
        assert_eq!(parsed, tree);
        assert_eq!(parsed.to_jsonl(), jsonl);
    }

    #[test]
    fn jsonl_lines_carry_depth_not_paths() {
        let jsonl = sample_tree().to_jsonl();
        let first = jsonl.lines().next().expect("root line");
        assert_eq!(
            first,
            "{\"depth\":0,\"name\":\"campaign\",\"start_hour\":0,\"end_hour\":96,\"units\":5408}"
        );
        // Slashes in span names (responder URLs) pass through verbatim.
        let tree = Span::aggregate(
            "campaign",
            vec![Span::leaf("http://ocsp.example/path", 0, 1, 1)],
        );
        let round = Span::parse_jsonl(&tree.to_jsonl()).expect("parse");
        assert_eq!(round.children[0].name, "http://ocsp.example/path");
    }

    #[test]
    fn awkward_names_escape_and_round_trip() {
        let tree = Span::aggregate(
            "with \"quotes\"",
            vec![Span::leaf("tab\there\nand newline \\ slash", 2, 3, 9)],
        );
        let jsonl = tree.to_jsonl();
        let parsed = Span::parse_jsonl(&jsonl).expect("parse");
        assert_eq!(parsed, tree);
        assert_eq!(parsed.to_jsonl(), jsonl);
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Span::parse_jsonl("").is_err());
        assert!(Span::parse_jsonl("not json\n").is_err());
        // First line must be the root.
        let child_first =
            "{\"depth\":1,\"name\":\"x\",\"start_hour\":0,\"end_hour\":0,\"units\":0}\n";
        assert!(Span::parse_jsonl(child_first).is_err());
        // A depth jump (0 → 2) does not attach.
        let jump = "{\"depth\":0,\"name\":\"r\",\"start_hour\":0,\"end_hour\":0,\"units\":0}\n\
                    {\"depth\":2,\"name\":\"x\",\"start_hour\":0,\"end_hour\":0,\"units\":0}\n";
        assert!(Span::parse_jsonl(jump).is_err());
        // Two roots.
        let twice = "{\"depth\":0,\"name\":\"a\",\"start_hour\":0,\"end_hour\":0,\"units\":0}\n\
                     {\"depth\":0,\"name\":\"b\",\"start_hour\":0,\"end_hour\":0,\"units\":0}\n";
        assert!(Span::parse_jsonl(twice).is_err());
        // Missing field.
        assert!(
            Span::parse_jsonl("{\"depth\":0,\"name\":\"a\",\"start_hour\":0,\"units\":0}\n")
                .is_err()
        );
        // Lines the writer never writes: tail bytes after the name, a
        // signed or zero-padded integer, a repeated or reordered key,
        // and a missing final newline.
        for text in [
            "{\"depth\":0,\"name\":\"a\"c\",\"start_hour\":0,\"end_hour\":0,\"units\":0}\n",
            "{\"depth\":0,\"name\":\"a\",\"start_hour\":+1,\"end_hour\":1,\"units\":0}\n",
            "{\"depth\":0,\"name\":\"a\",\"start_hour\":0,\"end_hour\":0,\"units\":02}\n",
            "{\"depth\":0,\"depth\":0,\"name\":\"a\",\"start_hour\":0,\"end_hour\":0,\"units\":0}\n",
            "{\"name\":\"a\",\"depth\":0,\"start_hour\":0,\"end_hour\":0,\"units\":0}\n",
            "{\"depth\":0,\"name\":\"a\",\"start_hour\":0,\"end_hour\":0,\"units\":0}",
        ] {
            assert!(Span::parse_jsonl(text).is_err(), "accepted {text}");
        }
    }

    #[test]
    fn ascii_render_honors_depth_limit_and_elides() {
        let tree = sample_tree();
        let full = tree.render_ascii(usize::MAX);
        assert_eq!(full.lines().count(), tree.len());
        assert!(full.starts_with("campaign  hours 0..96  units 5408\n"));
        assert!(full.contains("\n  scan.hourly  hours 0..96  units 408\n"));
        assert!(full.contains("\n    ocsp.digicert.com  hours 0..96  units 198\n"));
        assert!(full.contains("\n      chunk 0  hours 0..48  units 100\n"));

        let shallow = tree.render_ascii(1);
        assert!(shallow.contains("scan.hourly"));
        assert!(!shallow.contains("chunk 0"));
        assert!(shallow.contains("… (5 spans elided)"));

        let root_only = tree.render_ascii(0);
        assert_eq!(root_only.lines().count(), 2);
        assert!(root_only.contains("… (7 spans elided)"));
    }
}
