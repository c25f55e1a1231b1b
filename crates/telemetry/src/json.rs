//! The JSON codec of the two JSONL artifacts, `trace.jsonl`
//! ([`crate::trace`]) and `events.jsonl` (`opsmon`'s event log): one
//! escaping convention, and the pieces of a strict decoder. Each
//! artifact's line parser reads the fields in its writer's order with
//! these and refuses a line its writer would render differently.

use std::fmt::Write as _;

/// Append `s` to `out` escaped for a JSON string literal (control
/// characters, quotes, backslashes), without the surrounding quotes.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Split a JSONL artifact into its lines. Every line, the last one
/// included, must end in `\n`, the writers' only line ending.
pub fn lines(text: &str) -> Result<std::str::SplitTerminator<'_, char>, String> {
    if text.is_empty() || text.ends_with('\n') {
        Ok(text.split_terminator('\n'))
    } else {
        Err("the last line has no newline".into())
    }
}

/// Strip the literal `prefix` from the head of `s`.
pub fn expect<'a>(s: &'a str, prefix: &str) -> Result<&'a str, String> {
    s.strip_prefix(prefix)
        .ok_or_else(|| format!("expected `{prefix}` at `{s}`"))
}

/// Parse the integer at the head of `s` (an optional `-`, then ASCII
/// digits); return it and the unconsumed tail. A leading zero or `-0`
/// parses; the callers' re-render check refuses it.
pub fn parse_int<T: std::str::FromStr>(s: &str) -> Result<(T, &str), String> {
    let unsigned = s.strip_prefix('-').unwrap_or(s);
    let digits = unsigned.bytes().take_while(u8::is_ascii_digit).count();
    let end = s.len() - unsigned.len() + digits;
    let value = s[..end]
        .parse()
        .map_err(|_| format!("bad integer at `{s}`"))?;
    Ok((value, &s[end..]))
}

/// Parse a JSON string literal at the head of `s`; return the decoded
/// value and the unconsumed tail.
pub fn parse_string(s: &str) -> Result<(String, &str), String> {
    let inner = s
        .strip_prefix('"')
        .ok_or_else(|| format!("expected a string at `{s}`"))?;
    let mut out = String::new();
    let mut chars = inner.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &inner[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((j, 'u')) => {
                    let hex = inner.get(j + 1..j + 5).ok_or("truncated \\u escape")?;
                    // Four hex digits: `from_str_radix` alone also
                    // takes a sign (`\u+001`).
                    let code = Some(hex)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .ok_or_else(|| format!("bad \\u escape `{hex}`"))?;
                    out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                    for _ in 0..4 {
                        chars.next();
                    }
                }
                other => {
                    return Err(format!(
                        "bad escape `\\{}`",
                        other.map(|(_, c)| c).unwrap_or(' ')
                    ))
                }
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaped_strings_parse_back() {
        let raw = "a \"quoted\" \\ path\n\r\t\u{1}é";
        let mut literal = String::from("\"");
        escape_into(&mut literal, raw);
        literal.push_str("\",tail");
        assert_eq!(
            literal,
            "\"a \\\"quoted\\\" \\\\ path\\n\\r\\t\\u0001é\",tail"
        );
        assert_eq!(parse_string(&literal), Ok((raw.to_owned(), ",tail")));
        assert!(parse_string("\"open").is_err());
        assert!(parse_string("\"\\x\"").is_err());
        assert!(parse_string("\"\\u+001\"").is_err());
    }
}
