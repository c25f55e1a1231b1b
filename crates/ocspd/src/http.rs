//! A minimal HTTP/1.1 subset: enough to parse one request and write one
//! response per connection.
//!
//! Only what the daemon's three routes need is implemented — a request
//! line, headers, an optional `Content-Length` body — and every
//! connection is `Connection: close`, so there is no keep-alive or
//! chunked-transfer machinery to get wrong.
//!
//! A message is read into one buffer and parsed in place. Each head
//! line is checked as soon as it completes, so a bad line is refused
//! before anything after it is read. [`HttpRequest`] keeps the buffer
//! and reads its method, path, headers and body as ranges into it; a
//! parsed [`HttpResponse`]'s body is the same buffer with the head
//! drained. A response goes out as one vectored write: its head in
//! static pieces and two integers formatted on the stack, then its
//! body.

use std::io::{self, IoSlice, Read, Write};
use std::ops::Range;

/// One parsed HTTP request: the bytes it was read from, head then body,
/// and where each part lies in them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    bytes: Vec<u8>,
    method: Range<usize>,
    path: Range<usize>,
    /// The header lines, between the request line and the blank line.
    headers: Range<usize>,
    body: Range<usize>,
}

impl HttpRequest {
    /// Build a request in memory (the offline replay path — no socket),
    /// laid out as a read one is: the head's parts, then the body.
    pub fn new(method: &str, path: &str, body: &[u8]) -> HttpRequest {
        let mut bytes = Vec::with_capacity(method.len() + 1 + path.len() + body.len());
        bytes.extend_from_slice(method.as_bytes());
        bytes.push(b' ');
        bytes.extend_from_slice(path.as_bytes());
        let head = bytes.len();
        bytes.extend_from_slice(body);
        HttpRequest {
            method: 0..method.len(),
            path: method.len() + 1..head,
            headers: head..head,
            body: head..bytes.len(),
            bytes,
        }
    }

    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub fn method(&self) -> &str {
        self.text(&self.method)
    }

    /// Request path, e.g. `/ocsp`.
    pub fn path(&self) -> &str {
        self.text(&self.path)
    }

    /// Request body (empty unless `Content-Length` said otherwise).
    pub fn body(&self) -> &[u8] {
        &self.bytes[self.body.clone()]
    }

    /// Headers in arrival order, as `(name, value)` with surrounding
    /// whitespace trimmed; names as received.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> {
        self.text(&self.headers)
            .split_terminator('\n')
            .filter_map(|line| {
                let (name, value) = line.trim_end_matches(['\r', '\n']).split_once(':')?;
                Some((name.trim(), value.trim()))
            })
    }

    /// First value of a header, by name, ignoring ASCII case.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, value)| value)
    }

    /// Part of the head as text. Every head line was checked as UTF-8
    /// when it was read, and each part starts and ends on a character
    /// boundary.
    fn text(&self, range: &Range<usize>) -> &str {
        std::str::from_utf8(&self.bytes[range.clone()]).unwrap_or_default()
    }

    /// Read one request off a stream. A line longer than 8 KiB, more
    /// than 100 headers, or a body over 1 MiB is refused. Bytes past
    /// the body are read and dropped: every connection is
    /// `Connection: close`.
    pub fn read_from(stream: &mut impl Read) -> Result<HttpRequest, String> {
        let mut wire = Wire::new(stream);
        let (method, path) = {
            let (start, line) = wire.line("request line")?;
            let mut parts = line.split_whitespace();
            let method = parts.next().ok_or("empty request line")?;
            let path = parts.next().ok_or("request line without path")?;
            let version = parts.next().ok_or("request line without version")?;
            if !version.starts_with("HTTP/1.") {
                return Err(format!("unsupported version {version}"));
            }
            (span(start, line, method), span(start, line, path))
        };

        let headers_start = wire.pos;
        let mut content_length = 0;
        let headers_end = wire.headers(|header| {
            let (name, value) = header.split_once(':').ok_or("header without colon")?;
            if let Some(n) = content_length_of(name, value)? {
                if n > MAX_BODY_BYTES {
                    return Err(format!("body of {n} bytes refused"));
                }
                content_length = n;
            }
            Ok(())
        })?;

        let body_start = wire.pos;
        let bytes = wire
            .body(content_length)
            .map_err(|e| format!("body: {e}"))?;
        Ok(HttpRequest {
            method,
            path,
            headers: headers_start..headers_end,
            body: body_start..bytes.len(),
            bytes,
        })
    }
}

/// Refuse absurd bodies before allocating for them.
const MAX_BODY_BYTES: usize = 1 << 20;

/// The longest request, status or header line read, line ending
/// included. A peer that never ends a line would otherwise grow the
/// buffer without bound.
const MAX_LINE_BYTES: usize = 8 * 1024;

/// The most header lines read from one message.
const MAX_HEADERS: usize = 100;

/// The buffer a message is first read into. A request from the probe
/// client, perfbench or curl is about 250 bytes.
const FIRST_READ_BYTES: usize = 1024;

/// The length a header line split at its first colon gives, if it is a
/// `Content-Length` header, or the error that refuses its value.
fn content_length_of(name: &str, value: &str) -> Result<Option<usize>, String> {
    if !name.trim().eq_ignore_ascii_case("content-length") {
        return Ok(None);
    }
    let value = value.trim();
    match value.parse::<usize>() {
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!("bad content-length {value:?}")),
    }
}

/// Where `part`, a slice of `line`, lies in the buffer that `line`
/// starts at offset `start` of.
fn span(start: usize, line: &str, part: &str) -> Range<usize> {
    let from = start + (part.as_ptr() as usize - line.as_ptr() as usize);
    from..from + part.len()
}

/// One message being read into a single buffer, a head line at a time.
struct Wire<'s, R> {
    stream: &'s mut R,
    /// `bytes[..filled]` holds what was read; the rest is zeroed room
    /// for the next read.
    bytes: Vec<u8>,
    filled: usize,
    /// Where the next head line starts; after the head, where the body
    /// starts.
    pos: usize,
}

impl<'s, R: Read> Wire<'s, R> {
    fn new(stream: &'s mut R) -> Self {
        Wire {
            stream,
            bytes: vec![0; FIRST_READ_BYTES],
            filled: 0,
            pos: 0,
        }
    }

    /// Read once into the room below `limit`, first doubling the buffer
    /// (up to `limit`) if it is full; `Ok(0)` at the end of the stream.
    /// Callers keep `filled < limit`.
    fn fill(&mut self, limit: usize) -> io::Result<usize> {
        if self.filled == self.bytes.len() {
            self.bytes.resize((2 * self.filled).min(limit), 0);
        }
        let room = self.filled..self.bytes.len().min(limit);
        loop {
            match self.stream.read(&mut self.bytes[room.clone()]) {
                Ok(read) => {
                    self.filled += read;
                    return Ok(read);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next head line, its `\n` included: where it starts, and its
    /// text. A line is refused when it is not UTF-8 (whether complete
    /// or not), when it fills [`MAX_LINE_BYTES`] without ending, and
    /// when the stream ends inside it: a head cut short is not a
    /// complete head. `what` names the line in errors.
    fn line(&mut self, what: &str) -> Result<(usize, &str), String> {
        let start = self.pos;
        let cap = start + MAX_LINE_BYTES;
        let mut scanned = start;
        let end = loop {
            let held = self.filled.min(cap);
            if let Some(at) = self.bytes[scanned..held].iter().position(|&b| b == b'\n') {
                break Some(scanned + at + 1);
            }
            scanned = held;
            if held == cap || self.fill(cap).map_err(|e| format!("{what}: {e}"))? == 0 {
                break None;
            }
        };
        let stop = end.unwrap_or(scanned);
        self.pos = stop;
        let line = std::str::from_utf8(&self.bytes[start..stop])
            .map_err(|_| format!("{what}: stream did not contain valid UTF-8"))?;
        match end {
            Some(_) => Ok((start, line)),
            None if stop == cap => Err(format!("{what} longer than {MAX_LINE_BYTES} bytes")),
            None => Err(format!("{what} cut short by the end of the stream")),
        }
    }

    /// Read header lines up to the blank line that ends the head,
    /// handing each to `header` as soon as it completes, its line
    /// ending trimmed; returns where the blank line starts. More than
    /// [`MAX_HEADERS`] are refused.
    fn headers(
        &mut self,
        mut header: impl FnMut(&str) -> Result<(), String>,
    ) -> Result<usize, String> {
        let mut count = 0;
        loop {
            let (start, line) = self.line("header line")?;
            let line = line.trim_end_matches(['\r', '\n']);
            if line.is_empty() {
                return Ok(start);
            }
            if count == MAX_HEADERS {
                return Err(format!("more than {MAX_HEADERS} headers"));
            }
            count += 1;
            header(line)?;
        }
    }

    /// The buffer, ending `len` bytes past the head; what the buffer
    /// lacks of them is read to the exact count.
    fn body(mut self, len: usize) -> io::Result<Vec<u8>> {
        let end = self.pos + len;
        self.bytes.resize(end, 0);
        if self.filled < end {
            self.stream.read_exact(&mut self.bytes[self.filled..])?;
        }
        Ok(self.bytes)
    }

    /// The buffer, ending where the stream does or `limit` bytes past
    /// the head, whichever comes first.
    fn rest(mut self, limit: usize) -> io::Result<Vec<u8>> {
        let end = self.pos + limit;
        while self.filled < end && self.fill(end)? > 0 {}
        self.bytes.truncate(self.filled.min(end));
        Ok(self.bytes)
    }
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

    /// Serialize onto a stream: the head, from static pieces and two
    /// integers formatted on the stack, and the body, in one vectored
    /// write where the stream takes it all (a socket does, in one
    /// `writev`).
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        let (mut status, mut length) = ([0; 20], [0; 20]);
        let mut pieces = [
            IoSlice::new(b"HTTP/1.1 "),
            IoSlice::new(decimal(self.status.into(), &mut status)),
            IoSlice::new(b" "),
            IoSlice::new(self.reason().as_bytes()),
            IoSlice::new(b"\r\nContent-Type: "),
            IoSlice::new(self.content_type.as_bytes()),
            IoSlice::new(b"\r\nContent-Length: "),
            IoSlice::new(decimal(self.body.len() as u64, &mut length)),
            IoSlice::new(b"\r\nConnection: close\r\n\r\n"),
            IoSlice::new(&self.body),
        ];
        let mut unsent = &mut pieces[..];
        while !unsent.is_empty() {
            match stream.write_vectored(unsent) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(sent) => IoSlice::advance_slices(&mut unsent, sent),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        stream.flush()
    }

    /// Parse a response off a stream (the probe client's half), under
    /// the same line, header and body caps as
    /// [`HttpRequest::read_from`]. A malformed `Content-Length` is
    /// refused; without one, the body runs to the end of the stream.
    pub fn read_from(stream: &mut impl Read) -> Result<HttpResponse, String> {
        let mut wire = Wire::new(stream);
        let (_, line) = wire.line("status line")?;
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

        // A header line without a colon is skipped, not refused.
        let mut content_length = None;
        wire.headers(|header| {
            if let Some((name, value)) = header.split_once(':') {
                content_length = content_length_of(name, value)?.or(content_length);
            }
            Ok(())
        })?;

        let head = wire.pos;
        let mut body = match content_length {
            Some(n) if n > MAX_BODY_BYTES => return Err(format!("body of {n} bytes refused")),
            Some(n) => wire.body(n),
            // Connection: close delimits the body; read one byte past
            // the cap to tell a body at the cap from a longer one.
            None => wire.rest(MAX_BODY_BYTES + 1),
        }
        .map_err(|e| format!("body: {e}"))?;
        body.drain(..head);
        if body.len() > MAX_BODY_BYTES {
            return Err(format!("body over {MAX_BODY_BYTES} bytes refused"));
        }
        Ok(HttpResponse {
            status,
            content_type: "",
            body,
        })
    }
}

/// `value` in decimal, written into the tail of `digits`.
fn decimal(mut value: u64, digits: &mut [u8; 20]) -> &[u8] {
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            return &digits[start..];
        }
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
        assert_eq!(req.method(), "POST");
        assert_eq!(req.path(), "/ocsp");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body(), b"abcd");
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
        assert_eq!(req.method(), "GET");
        assert_eq!(req.path().len(), MAX_LINE_BYTES - "GET  HTTP/1.1\r\n".len());
        assert_eq!(req.headers().count(), MAX_HEADERS);
        assert_eq!(
            req.headers().next().unwrap().1.len(),
            MAX_LINE_BYTES - "x-pad: \r\n".len()
        );
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
    fn lines_that_are_not_utf8_are_refused_as_such_complete_or_not() {
        let err = read(b"GET /health HTTP/1.1\r\nHost: \xff\r\n\r\n").unwrap_err();
        assert_eq!(err, "header line: stream did not contain valid UTF-8");
        // Cut short, or over the cap, a line is checked before either
        // is reported; here the cap cuts a two-byte character in half.
        let err = read(b"GET /health HTTP/1.1\r\nHost: \xff").unwrap_err();
        assert_eq!(err, "header line: stream did not contain valid UTF-8");
        let mut wire = vec![b'a'; MAX_LINE_BYTES - 1];
        wire.extend_from_slice("é\r\n".as_bytes());
        let err = read(&wire).unwrap_err();
        assert_eq!(err, "request line: stream did not contain valid UTF-8");
        let err = HttpResponse::read_from(&mut &b"HTTP/1.1 200 \xc3"[..]).unwrap_err();
        assert_eq!(err, "status line: stream did not contain valid UTF-8");
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
