//! A minimal HTTP/1.1 subset: enough to parse one request and write one
//! response per connection.
//!
//! Only what the daemon's three routes need is implemented — a request
//! line, headers, an optional `Content-Length` body — and every
//! connection is `Connection: close`, so there is no keep-alive or
//! chunked-transfer machinery to get wrong.

use std::io::{BufRead, Read, Write};

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Request path, e.g. `/ocsp`.
    pub path: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Build a request in memory (the offline replay path — no socket).
    pub fn new(method: &str, path: &str, body: &[u8]) -> HttpRequest {
        HttpRequest {
            method: method.to_owned(),
            path: path.to_owned(),
            headers: Vec::new(),
            body: body.to_vec(),
        }
    }

    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Read one request from a buffered stream. A line longer than
    /// 8 KiB, or more than 100 headers, is refused.
    pub fn read_from(stream: &mut impl BufRead) -> Result<HttpRequest, String> {
        let line = read_line(stream, "request line")?;
        let mut parts = line.split_whitespace();
        let method = parts.next().ok_or("empty request line")?.to_owned();
        let path = parts.next().ok_or("request line without path")?.to_owned();
        let version = parts.next().ok_or("request line without version")?;
        if !version.starts_with("HTTP/1.") {
            return Err(format!("unsupported version {version}"));
        }

        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let header = read_line(stream, "header line")?;
            let header = header.trim_end_matches(['\r', '\n']);
            if header.is_empty() {
                break;
            }
            if headers.len() == MAX_HEADERS {
                return Err(format!("more than {MAX_HEADERS} headers"));
            }
            let (name, value) = header.split_once(':').ok_or("header without colon")?;
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_owned();
            if name == "content-length" {
                content_length = value
                    .parse::<usize>()
                    .map_err(|_| format!("bad content-length {value:?}"))?;
                if content_length > MAX_BODY_BYTES {
                    return Err(format!("body of {content_length} bytes refused"));
                }
            }
            headers.push((name, value));
        }

        let mut body = vec![0u8; content_length];
        stream
            .read_exact(&mut body)
            .map_err(|e| format!("body: {e}"))?;
        Ok(HttpRequest {
            method,
            path,
            headers,
            body,
        })
    }
}

/// Refuse absurd bodies before allocating for them.
const MAX_BODY_BYTES: usize = 1 << 20;

/// The longest request, status or header line read, line ending
/// included. A peer that never ends a line would otherwise grow the
/// line buffer without bound.
const MAX_LINE_BYTES: usize = 8 * 1024;

/// The most header lines read from one message.
const MAX_HEADERS: usize = 100;

/// Read one line of at most [`MAX_LINE_BYTES`], ending in `\n`. A line
/// that fills the cap without ending is refused, and so is one the
/// stream ends inside: a head cut short is not a complete head. `what`
/// names the line in errors.
fn read_line(stream: &mut impl BufRead, what: &str) -> Result<String, String> {
    let mut line = String::new();
    let read = stream
        .by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_line(&mut line)
        .map_err(|e| format!("{what}: {e}"))?;
    if !line.ends_with('\n') {
        return Err(if read == MAX_LINE_BYTES {
            format!("{what} longer than {MAX_LINE_BYTES} bytes")
        } else {
            format!("{what} cut short by the end of the stream")
        });
    }
    Ok(line)
}

/// One HTTP response, always written `Connection: close`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A `200 OK`.
    pub fn ok(content_type: &'static str, body: Vec<u8>) -> HttpResponse {
        HttpResponse {
            status: 200,
            content_type,
            body,
        }
    }

    /// A plain-text error response.
    pub fn error(status: u16, message: &str) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            body: format!("{message}\n").into_bytes(),
        }
    }

    /// The canonical reason phrase for the statuses the daemon emits.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            _ => "Internal Server Error",
        }
    }

    /// Serialize onto a stream.
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )?;
        stream.write_all(&self.body)?;
        stream.flush()
    }

    /// Parse a response off a buffered stream (the probe client's half),
    /// under the same line, header and body caps as
    /// [`HttpRequest::read_from`]. A malformed `Content-Length` is
    /// refused; without one, the body runs to the end of the stream.
    pub fn read_from(stream: &mut impl BufRead) -> Result<HttpResponse, String> {
        let line = read_line(stream, "status line")?;
        let mut parts = line.split_whitespace();
        let version = parts.next().ok_or("empty status line")?;
        if !version.starts_with("HTTP/1.") {
            return Err(format!("unsupported version {version}"));
        }
        let status = parts
            .next()
            .filter(|code| code.len() == 3 && code.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or("status line without a three-digit code")?;

        let mut content_length = None;
        let mut headers = 0;
        loop {
            let header = read_line(stream, "header line")?;
            let header = header.trim_end_matches(['\r', '\n']);
            if header.is_empty() {
                break;
            }
            if headers == MAX_HEADERS {
                return Err(format!("more than {MAX_HEADERS} headers"));
            }
            headers += 1;
            let Some((name, value)) = header.split_once(':') else {
                continue;
            };
            if name.trim().eq_ignore_ascii_case("content-length") {
                let value = value.trim();
                content_length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| format!("bad content-length {value:?}"))?,
                );
            }
        }

        let mut body = Vec::new();
        match content_length {
            Some(n) => {
                if n > MAX_BODY_BYTES {
                    return Err(format!("body of {n} bytes refused"));
                }
                body.resize(n, 0);
                stream
                    .read_exact(&mut body)
                    .map_err(|e| format!("body: {e}"))?;
            }
            // Connection: close delimits the body; read one byte past
            // the cap to tell a body at the cap from a longer one.
            None => {
                stream
                    .by_ref()
                    .take(MAX_BODY_BYTES as u64 + 1)
                    .read_to_end(&mut body)
                    .map_err(|e| format!("body: {e}"))?;
                if body.len() > MAX_BODY_BYTES {
                    return Err(format!("body over {MAX_BODY_BYTES} bytes refused"));
                }
            }
        }
        Ok(HttpResponse {
            status,
            content_type: "",
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn request_round_trips_through_the_parser() {
        let wire = b"POST /ocsp HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd";
        let req = HttpRequest::read_from(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/ocsp");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn response_serializes_and_parses() {
        let resp = HttpResponse::ok("text/plain; charset=utf-8", b"hello".to_vec());
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();
        let parsed = HttpResponse::read_from(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.body, b"hello");
    }

    #[test]
    fn oversized_bodies_are_refused() {
        let wire = b"POST /ocsp HTTP/1.1\r\nContent-Length: 9999999999\r\n\r\n";
        assert!(HttpRequest::read_from(&mut BufReader::new(&wire[..])).is_err());
        // A response without Content-Length runs to the end of the
        // stream, under the same cap. The stream is bounded, so an
        // uncapped parser fails this test instead of hanging it.
        let unframed = |len: usize| {
            let head = &b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n"[..];
            let body = std::io::repeat(b'x').take(len as u64);
            HttpResponse::read_from(&mut BufReader::new(head.chain(body)))
        };
        assert_eq!(unframed(MAX_BODY_BYTES).unwrap().body.len(), MAX_BODY_BYTES);
        let err = unframed(MAX_BODY_BYTES + 1).unwrap_err();
        assert!(err.starts_with("body over"), "{err}");
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\nabc";
        let err = HttpResponse::read_from(&mut BufReader::new(&wire[..])).unwrap_err();
        assert_eq!(err, "bad content-length \"abc\"");
    }

    /// A request with a request line and headers of the given lengths,
    /// each counting its `\r\n`.
    fn request_of(line_len: usize, header_lens: &[usize]) -> Vec<u8> {
        let mut wire = b"GET /".to_vec();
        wire.resize(line_len - " HTTP/1.1\r\n".len(), b'a');
        wire.extend_from_slice(b" HTTP/1.1\r\n");
        for &len in header_lens {
            let start = wire.len();
            wire.extend_from_slice(b"x-pad: ");
            wire.resize(start + len - 2, b'b');
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"\r\n");
        wire
    }

    fn read(wire: &[u8]) -> Result<HttpRequest, String> {
        HttpRequest::read_from(&mut BufReader::new(wire))
    }

    #[test]
    fn requests_at_the_line_and_header_caps_parse() {
        let mut headers = vec![64; MAX_HEADERS];
        headers[0] = MAX_LINE_BYTES;
        let req = read(&request_of(MAX_LINE_BYTES, &headers)).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path.len(), MAX_LINE_BYTES - "GET  HTTP/1.1\r\n".len());
        assert_eq!(req.headers.len(), MAX_HEADERS);
        assert_eq!(req.headers[0].1.len(), MAX_LINE_BYTES - "x-pad: \r\n".len());
    }

    #[test]
    fn over_long_lines_are_refused() {
        let err = read(&request_of(MAX_LINE_BYTES + 1, &[])).unwrap_err();
        assert!(err.starts_with("request line longer than"), "{err}");
        let err = read(&request_of(64, &[64, MAX_LINE_BYTES + 1])).unwrap_err();
        assert!(err.starts_with("header line longer than"), "{err}");
        // A line that never ends stops at the cap, not at the end of
        // the stream.
        let endless = vec![b'a'; 4 * MAX_LINE_BYTES];
        assert!(read(&endless).is_err());
        let mut wire = b"HTTP/1.1 200 OK\r\n".to_vec();
        wire.extend_from_slice(&endless);
        let err = HttpResponse::read_from(&mut BufReader::new(&wire[..])).unwrap_err();
        assert!(err.starts_with("header line longer than"), "{err}");
    }

    #[test]
    fn more_than_max_headers_are_refused() {
        let err = read(&request_of(64, &[64; MAX_HEADERS + 1])).unwrap_err();
        assert_eq!(err, format!("more than {MAX_HEADERS} headers"));
        let mut wire = b"HTTP/1.1 200 OK\r\n".to_vec();
        wire.extend(b"x-pad: b\r\n".repeat(MAX_HEADERS + 1));
        wire.extend_from_slice(b"\r\n");
        let err = HttpResponse::read_from(&mut BufReader::new(&wire[..])).unwrap_err();
        assert_eq!(err, format!("more than {MAX_HEADERS} headers"));
    }

    #[test]
    fn garbage_request_lines_are_refused() {
        for wire in [&b"\r\n\r\n"[..], b"GET /\r\n\r\n", b"GET / SPDY/3\r\n\r\n"] {
            assert!(HttpRequest::read_from(&mut BufReader::new(wire)).is_err());
        }
    }

    #[test]
    fn heads_cut_short_and_odd_status_codes_are_refused() {
        let err = read(b"GET /health HTTP/1.1\r\nHost: x\r\n").unwrap_err();
        assert_eq!(err, "header line cut short by the end of the stream");
        let response = |wire: &[u8]| HttpResponse::read_from(&mut BufReader::new(wire));
        let err = response(b"HTTP/1.1 2").unwrap_err();
        assert_eq!(err, "status line cut short by the end of the stream");
        for code in ["2", "20", "2000", "+20", "2a0"] {
            let wire = format!("HTTP/1.1 {code} OK\r\nContent-Length: 0\r\n\r\n");
            let err = response(wire.as_bytes()).unwrap_err();
            assert_eq!(err, "status line without a three-digit code", "{code}");
        }
    }
}
