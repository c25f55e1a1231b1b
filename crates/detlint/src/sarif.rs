//! SARIF 2.1.0 output, and a strict reader to prove it.
//!
//! The emitter writes the minimal conforming subset code-scanning UIs
//! consume: one run, a `tool.driver` with the full rule table
//! ([`Rule::all`] with [`Rule::describe`] one-liners), and one result
//! per finding with `ruleId`, `level`, `message.text`, and a physical
//! location. Line 0 (whole-file findings) maps to `startLine: 1` —
//! SARIF regions are 1-based.
//!
//! Output is byte-stable for the same report: rules and results are
//! emitted in report order, and the report is already sorted on the
//! canonical key.
//!
//! [`parse`] is a strict recursive-descent JSON reader (objects,
//! arrays, strings with the escapes we emit, integers, booleans,
//! null). It exists so the test suite can round-trip the emitter's
//! output back into findings without trusting the emitter's own
//! string handling — and it rejects anything malformed rather than
//! guessing.

use crate::report::{json_str, Finding, Report, Rule, Severity};
use std::collections::BTreeMap;

/// Render a report as a SARIF 2.1.0 document.
pub fn to_sarif(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n",
    );
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"detlint\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/detlint\",\n");
    out.push_str("          \"rules\": [");
    for (i, rule) in Rule::all().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n            {");
        out.push_str(&format!("\"id\": {}, ", json_str(rule.name())));
        out.push_str(&format!(
            "\"shortDescription\": {{\"text\": {}}}",
            json_str(rule.describe())
        ));
        out.push('}');
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let level = match f.severity {
            Severity::Error => "error",
            Severity::RatchetSlack => "warning",
        };
        out.push_str("\n        {\n");
        out.push_str(&format!(
            "          \"ruleId\": {},\n",
            json_str(f.rule.name())
        ));
        out.push_str(&format!("          \"level\": {},\n", json_str(level)));
        out.push_str(&format!(
            "          \"message\": {{\"text\": {}}},\n",
            json_str(&f.message)
        ));
        out.push_str(&format!(
            "          \"locations\": [{{\"physicalLocation\": {{\
             \"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}}}}}}}]\n",
            json_str(&f.file),
            f.line.max(1)
        ));
        out.push_str("        }");
    }
    if !report.findings.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

/// A parsed JSON value, just enough for SARIF round-trips.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integers only — SARIF line numbers; no floats are emitted.
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order is irrelevant to the round-trip).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is a number.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parse a complete JSON document; trailing garbage is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => parse_str(b, pos).map(Json::Str),
        Some(b't') => parse_lit(b, pos, "true").map(|_| Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false").map(|_| Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null").map(|_| Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_int(b, pos),
        _ => Err(format!("unexpected byte at {}", *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_int(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && b[*pos].is_ascii_digit() {
        *pos += 1;
    }
    if matches!(b.get(*pos), Some(b'.') | Some(b'e') | Some(b'E')) {
        return Err(format!("floats unsupported at byte {start}"));
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .map(Json::Int)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_str(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(
                            char::from_u32(code).ok_or("\\u escape outside BMP scalar range")?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so
                // boundaries are valid).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "bad utf8".to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_str(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

/// One SARIF result as `(ruleId, level, message, uri, startLine)`.
pub type ResultTuple = (String, String, String, String, i64);

/// Extract [`ResultTuple`]s from a parsed SARIF document — the
/// round-trip test's comparison side.
pub fn results_of(doc: &Json) -> Result<Vec<ResultTuple>, String> {
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("missing runs array")?;
    let run = runs.first().ok_or("empty runs array")?;
    let results = run
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing results array")?;
    let mut out = Vec::new();
    for r in results {
        let rule_id = r
            .get("ruleId")
            .and_then(Json::as_str)
            .ok_or("result missing ruleId")?;
        let level = r
            .get("level")
            .and_then(Json::as_str)
            .ok_or("result missing level")?;
        let message = r
            .get("message")
            .and_then(|m| m.get("text"))
            .and_then(Json::as_str)
            .ok_or("result missing message.text")?;
        let loc = r
            .get("locations")
            .and_then(Json::as_arr)
            .and_then(|l| l.first())
            .and_then(|l| l.get("physicalLocation"))
            .ok_or("result missing physicalLocation")?;
        let uri = loc
            .get("artifactLocation")
            .and_then(|a| a.get("uri"))
            .and_then(Json::as_str)
            .ok_or("location missing uri")?;
        let line = loc
            .get("region")
            .and_then(|r| r.get("startLine"))
            .and_then(Json::as_int)
            .ok_or("location missing startLine")?;
        out.push((
            rule_id.to_string(),
            level.to_string(),
            message.to_string(),
            uri.to_string(),
            line,
        ));
    }
    Ok(out)
}

/// The expected tuple view of a report's findings, for comparison
/// against [`results_of`].
pub fn expected_results(report: &Report) -> Vec<ResultTuple> {
    report
        .findings
        .iter()
        .map(|f: &Finding| {
            (
                f.rule.name().to_string(),
                match f.severity {
                    Severity::Error => "error",
                    Severity::RatchetSlack => "warning",
                }
                .to_string(),
                f.message.clone(),
                f.file.clone(),
                i64::from(f.line.max(1)),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Finding;

    fn sample_report() -> Report {
        let mut r = Report {
            findings: vec![
                Finding {
                    rule: Rule::Layering,
                    file: "crates/netsim/Cargo.toml".into(),
                    line: 14,
                    message: "edge \"netsim\" → \"scanner\" is not in the declared DAG".into(),
                    severity: Severity::Error,
                },
                Finding {
                    rule: Rule::PanicHygiene,
                    file: "crates/ocsp/src/responder.rs".into(),
                    line: 0,
                    message: "3 panic markers, below the baseline of 5 — tighten".into(),
                    severity: Severity::RatchetSlack,
                },
                Finding {
                    rule: Rule::FloatDeterminism,
                    file: "crates/netsim/src/world.rs".into(),
                    line: 99,
                    message: "f64 sum over \"hash\" order; use \\ escapes \n tab\t".into(),
                    severity: Severity::Error,
                },
            ],
            ..Report::default()
        };
        r.finalize();
        r
    }

    #[test]
    fn round_trips_through_strict_parser() {
        let r = sample_report();
        let doc = parse(&to_sarif(&r)).expect("emitted SARIF must parse");
        assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
        assert_eq!(results_of(&doc).unwrap(), expected_results(&r));
    }

    #[test]
    fn rule_table_is_complete() {
        let doc = parse(&to_sarif(&Report::default())).unwrap();
        let rules = doc
            .get("runs")
            .and_then(Json::as_arr)
            .and_then(|r| r.first())
            .and_then(|r| r.get("tool"))
            .and_then(|t| t.get("driver"))
            .and_then(|d| d.get("rules"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(rules.len(), Rule::all().len());
        let ids: Vec<&str> = rules
            .iter()
            .map(|r| r.get("id").and_then(Json::as_str).unwrap())
            .collect();
        assert!(ids.contains(&"float-determinism"));
        assert!(ids.contains(&"wall-clock"));
    }

    #[test]
    fn line_zero_maps_to_one() {
        let r = sample_report();
        let doc = parse(&to_sarif(&r)).unwrap();
        let lines: Vec<i64> = results_of(&doc).unwrap().iter().map(|t| t.4).collect();
        assert!(lines.iter().all(|&l| l >= 1));
    }

    #[test]
    fn emission_is_stable() {
        let r = sample_report();
        assert_eq!(to_sarif(&r), to_sarif(&r));
    }

    #[test]
    fn parser_is_strict() {
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("{\"a\": 1.5}").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("\"\\q\"").is_err());
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let doc = parse("{\"k\": \"a\\n\\t\\\"\\\\ \\u0041 é\"}").unwrap();
        assert_eq!(doc.get("k").and_then(Json::as_str), Some("a\n\t\"\\ A é"));
    }
}
