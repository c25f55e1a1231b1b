//! Property tests for the daemon's HTTP framing: both readers return a
//! request or response, or a typed error, on any input, and never
//! panic. Inputs are arbitrary bytes, single-byte edits of valid
//! messages and every truncation of them. Valid messages round-trip,
//! and every proper prefix of one is refused. Where the stream's reads
//! and writes split a message changes nothing: each reader gives the
//! same request, response or error as on the whole buffer.

use mustaple_ocspd::{HttpRequest, HttpResponse};
use proptest::prelude::*;
use std::fmt::Debug;
use std::io::{self, BufReader, IoSlice, Read, Write};

fn read_request(wire: &[u8]) -> Result<HttpRequest, String> {
    HttpRequest::read_from(&mut BufReader::new(wire))
}

fn read_response(wire: &[u8]) -> Result<HttpResponse, String> {
    HttpResponse::read_from(&mut BufReader::new(wire))
}

/// A request as a client writes it: request line, headers, then the
/// `Content-Length` header and the body.
fn request_wire(method: &str, path: &str, headers: &[(String, String)], body: &[u8]) -> Vec<u8> {
    let mut wire = format!("{method} {path} HTTP/1.1\r\n");
    for (name, value) in headers {
        wire.push_str(&format!("{name}: {value}\r\n"));
    }
    wire.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut wire = wire.into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// A stream that hands out at most `step` bytes per read.
struct Trickle<'a> {
    wire: &'a [u8],
    step: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&mut self.wire).take(self.step as u64).read(buf)
    }
}

/// A sink that takes at most `step` bytes per write, across as many of
/// a vectored write's slices as they span.
struct Dribble {
    out: Vec<u8>,
    step: usize,
}

impl Write for Dribble {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let before = self.out.len();
        for buf in bufs {
            let room = self.step - (self.out.len() - before);
            self.out.extend_from_slice(&buf[..buf.len().min(room)]);
        }
        Ok(self.out.len() - before)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Both readers on `wire`, read whole and read in `step`-byte pieces,
/// must give the same results.
fn same_in_steps(wire: &[u8], step: usize) -> Result<(), TestCaseError> {
    let mut trickle = Trickle { wire, step };
    prop_assert_eq!(HttpRequest::read_from(&mut trickle), read_request(wire));
    let mut trickle = Trickle { wire, step };
    prop_assert_eq!(HttpResponse::read_from(&mut trickle), read_response(wire));
    Ok(())
}

/// Feed both readers `wire`; each must return, not panic.
fn read_both(wire: &[u8]) {
    let _ = read_request(wire);
    let _ = read_response(wire);
}

/// Both readers on one edit of every byte of `wire`, and on every
/// proper prefix of it. `read`, the reader `wire` is framed for, must
/// refuse every prefix: a message cut short is an error, never a
/// shorter message.
fn edits_and_truncations<T: Debug>(
    wire: &[u8],
    xor: u8,
    read: fn(&[u8]) -> Result<T, String>,
) -> Result<(), TestCaseError> {
    let mut edited = wire.to_vec();
    for i in 0..wire.len() {
        edited[i] ^= xor;
        read_both(&edited);
        edited[i] ^= xor;
    }
    for cut in 0..wire.len() {
        read_both(&wire[..cut]);
        let parsed = read(&wire[..cut]);
        prop_assert!(parsed.is_err(), "the {cut}-byte prefix parsed: {parsed:?}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(
        head in proptest::collection::vec(any::<u8>(), 0..64),
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        read_both(&bytes);
        // Behind a valid start line, the garbage reaches the header and
        // body parsers.
        for start in [&b"POST /ocsp HTTP/1.1\r\n"[..], b"HTTP/1.1 200 OK\r\n"] {
            let mut wire = start.to_vec();
            wire.extend_from_slice(&head);
            wire.extend_from_slice(b"\r\n");
            wire.extend_from_slice(&bytes);
            read_both(&wire);
        }
    }

    #[test]
    fn requests_round_trip_and_survive_edits(
        method in "[A-Z]{1,7}",
        path in "/[a-z0-9/._-]{0,24}",
        headers in proptest::collection::vec(("X-[A-Za-z-]{1,12}", "[!-~]{0,24}"), 0..6),
        body in proptest::collection::vec(any::<u8>(), 0..96),
        xor in 1u8..=255,
    ) {
        let wire = request_wire(&method, &path, &headers, &body);
        let request = read_request(&wire).map_err(TestCaseError::fail)?;
        prop_assert_eq!(request.method(), &method);
        prop_assert_eq!(request.path(), &path);
        let mut expected: Vec<(String, String)> = headers
            .iter()
            .map(|(name, value)| (name.to_ascii_lowercase(), value.clone()))
            .collect();
        expected.push(("content-length".into(), body.len().to_string()));
        let received: Vec<(String, String)> = request
            .headers()
            .map(|(name, value)| (name.to_ascii_lowercase(), value.to_owned()))
            .collect();
        prop_assert_eq!(&received, &expected);
        prop_assert_eq!(request.body(), &body[..]);
        edits_and_truncations(&wire, xor, read_request)?;
    }

    #[test]
    fn responses_round_trip_and_survive_edits(
        status in prop_oneof![Just(200u16), Just(400), Just(404), Just(405), Just(500)],
        body in proptest::collection::vec(any::<u8>(), 0..96),
        xor in 1u8..=255,
    ) {
        let response = HttpResponse {
            status,
            content_type: "application/ocsp-response",
            body,
        };
        let mut wire = Vec::new();
        response.write_to(&mut wire).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let back = read_response(&wire).map_err(TestCaseError::fail)?;
        prop_assert_eq!(back.status, response.status);
        prop_assert_eq!(&back.body, &response.body);
        edits_and_truncations(&wire, xor, read_response)?;
    }

    #[test]
    fn reads_and_writes_in_any_steps_frame_the_same_messages(
        method in "[A-Z]{1,7}",
        path in "/[a-z0-9/._-]{0,24}",
        headers in proptest::collection::vec(("X-[A-Za-z-]{1,12}", "[!-~]{0,24}"), 0..6),
        body in proptest::collection::vec(any::<u8>(), 0..96),
        status in prop_oneof![Just(200u16), Just(400), Just(404), Just(405), Just(500)],
        step in 1usize..=40,
        at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let response = HttpResponse {
            status,
            content_type: "application/ocsp-response",
            body: body.clone(),
        };
        let mut whole = Vec::new();
        response.write_to(&mut whole).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut dribble = Dribble { out: Vec::new(), step };
        response.write_to(&mut dribble).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&dribble.out, &whole);
        let back = HttpResponse::read_from(&mut Trickle { wire: &whole, step })
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(back.status, status);
        prop_assert_eq!(&back.body, &body);

        let request = request_wire(&method, &path, &headers, &body);
        for wire in [&request, &whole] {
            let mut edited = wire.clone();
            edited[at % wire.len()] ^= xor;
            same_in_steps(wire, step)?;
            same_in_steps(&wire[..at % (wire.len() + 1)], step)?;
            same_in_steps(&edited, step)?;
        }
    }
}
