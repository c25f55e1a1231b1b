//! The accept loop and its counterpart probe client, plus the webhook
//! poster — the only place in the workspace where the operational event
//! log leaves the process.

use crate::http::{HttpRequest, HttpResponse};
use crate::service::OcspService;
use opsmon::EventLog;
use std::io::{BufWriter, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How long the probe client and the webhook poster wait for a
/// connection, and then for each read or write, before they give up on
/// the peer.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(3);

/// Serve connections until `max_conns` have been handled (`None` =
/// forever). One request per connection, `Connection: close`. Returns
/// the number of connections served.
pub fn serve(
    listener: &TcpListener,
    service: &mut OcspService,
    max_conns: Option<u64>,
) -> std::io::Result<u64> {
    let mut served = 0u64;
    while max_conns.is_none_or(|n| served < n) {
        let (stream, _) = listener.accept()?;
        // A broken client connection must not take the daemon down, so
        // per-connection errors are swallowed after the response (or
        // refusal) is attempted.
        let _ = handle_connection(stream, service);
        served += 1;
    }
    Ok(served)
}

/// Read one request off `stream` and answer it. `&TcpStream` reads and
/// writes, so the reader and the writer borrow the one socket, and
/// neither buffers: the request is read into its own buffer, and the
/// response goes out in one vectored write.
fn handle_connection(stream: TcpStream, service: &mut OcspService) -> std::io::Result<()> {
    let response = match HttpRequest::read_from(&mut &stream) {
        Ok(request) => service.handle(&request),
        Err(reason) => HttpResponse::error(400, &reason),
    };
    response.write_to(&mut &stream)
}

/// POST each event's JSON line, in canonical order, to
/// `http://{addr}/webhook`; returns `(delivered, failed)`. A delivery
/// fails when the connection does, when the receiver stays silent for
/// [`CLIENT_TIMEOUT`], or when the status is not 200, and a failure
/// never stops the rest: an unreachable webhook must not disturb the
/// daemon. The deterministic studies never post; they stop
/// at [`EventLog`].
pub fn post_events(addr: &str, events: &EventLog) -> (u64, u64) {
    let (mut delivered, mut failed) = (0, 0);
    for event in events.sorted() {
        let payload = event.to_json_line();
        match client::post(addr, "/webhook", "application/json", payload.as_bytes()) {
            Ok((200, _)) => delivered += 1,
            _ => failed += 1,
        }
    }
    (delivered, failed)
}

/// The probe client: plain blocking HTTP/1.1 over `TcpStream`, used by
/// the `ocspd probe` subcommand and the live-smoke CI job. Connecting,
/// and each read and write after it, give up after [`CLIENT_TIMEOUT`].
pub mod client {
    use super::*;

    /// POST `body` to `http://{addr}{path}`; returns `(status, body)`.
    pub fn post(
        addr: &str,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        let stream = connect(addr)?;
        let mut writer = BufWriter::new(&stream);
        write!(
            writer,
            "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )?;
        writer.write_all(body)?;
        writer.flush()?;
        drop(writer);
        read_response(stream)
    }

    /// GET `http://{addr}{path}`; returns `(status, body)`.
    pub fn get(addr: &str, path: &str) -> std::io::Result<(u16, Vec<u8>)> {
        let stream = connect(addr)?;
        let mut writer = BufWriter::new(&stream);
        write!(
            writer,
            "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
        )?;
        writer.flush()?;
        drop(writer);
        read_response(stream)
    }

    /// Connect to `addr` as `TcpStream::connect` does, trying each
    /// address it resolves to in turn, under [`CLIENT_TIMEOUT`].
    fn connect(addr: &str) -> std::io::Result<TcpStream> {
        let mut last_error = None;
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
                    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
                    return Ok(stream);
                }
                Err(e) => last_error = Some(e),
            }
        }
        Err(last_error.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "could not resolve to any addresses",
            )
        }))
    }

    fn read_response(stream: TcpStream) -> std::io::Result<(u16, Vec<u8>)> {
        let response = HttpResponse::read_from(&mut &stream)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok((response.status, response.body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::RequestPlan;
    use opsmon::{Event, EventKind};
    use telemetry::prom::GAUGE_SECTION_MARKER;

    /// Boot a real loopback server, drive it with the probe client, and
    /// pin the live scrape's gated prefix to the offline replay — the
    /// same assertion the CI live-smoke job makes across processes.
    #[test]
    fn loopback_roundtrip_matches_offline_replay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let plan = RequestPlan {
            total: 12,
            malformed_every: 5,
        };

        let server = std::thread::spawn(move || {
            let mut service = OcspService::new(42);
            // N requests + /metrics + /health.
            serve(&listener, &mut service, Some(plan.total + 2)).unwrap();
            (service.events().to_jsonl(), service.requests_served())
        });

        let canonical = OcspService::new(42).canonical_request();
        for i in 0..plan.total {
            let body = plan.body(i, &canonical);
            let (status, der) =
                client::post(&addr, "/ocsp", "application/ocsp-request", &body).unwrap();
            assert_eq!(status, 200);
            assert!(!der.is_empty());
        }
        let (status, scrape) = client::get(&addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        let (status, table) = client::get(&addr, "/health").unwrap();
        assert_eq!(status, 200);
        assert!(String::from_utf8(table).unwrap().starts_with("subjects=1"));

        let (live_events, served) = server.join().unwrap();
        assert_eq!(served, plan.total);

        let mut offline = OcspService::new(42);
        offline.run_offline(&plan);
        let scrape = String::from_utf8(scrape).unwrap();
        let gated = scrape
            .split(&format!("{GAUGE_SECTION_MARKER}\n"))
            .next()
            .unwrap();
        assert_eq!(gated, offline.gated_metrics());
        assert_eq!(live_events, offline.events().to_jsonl());
    }

    /// `post_events` delivers each event's JSON line to a real HTTP
    /// endpoint in canonical order, and counts every delivery to a
    /// receiver that has gone as failed.
    #[test]
    fn post_events_delivers_in_canonical_order_and_tallies_failures() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();

        let receiver = std::thread::spawn(move || {
            let mut bodies = Vec::new();
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let request = HttpRequest::read_from(&mut &stream)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                assert_eq!(request.path(), "/webhook");
                bodies.push(String::from_utf8(request.body().to_vec()).unwrap());
                HttpResponse::ok("text/plain; charset=utf-8", b"ok".to_vec())
                    .write_to(&mut &stream)?;
            }
            // The listener drops here: the receiver is gone.
            Ok::<_, std::io::Error>(bodies)
        });

        // Pushed out of canonical order; posted in it.
        let epoch = asn1::Time::from_unix(crate::service::CAMPAIGN_EPOCH_UNIX);
        let mut events = EventLog::new();
        events.push(Event::new(epoch + 60, EventKind::Outage, "r", "open"));
        events.push(Event::new(
            epoch,
            EventKind::Health,
            "r",
            "healthy -> degraded",
        ));
        assert_eq!(post_events(&addr, &events), (2, 0));

        let bodies = receiver.join().unwrap().unwrap();
        let canonical: Vec<String> = events.sorted().iter().map(|e| e.to_json_line()).collect();
        assert_eq!(bodies, canonical);
        assert!(bodies[0].contains("\"kind\":\"health\""));
        assert!(bodies[1].contains("\"kind\":\"outage\""));

        assert_eq!(post_events(&addr, &events), (0, 2));
    }

    /// A receiver that accepts and never answers costs `post_events`
    /// one timeout per event, not the daemon's exit.
    #[test]
    fn post_events_gives_up_on_a_receiver_that_never_answers() {
        // The listener never accepts; the kernel completes the
        // handshake and buffers the POST all the same.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let epoch = asn1::Time::from_unix(crate::service::CAMPAIGN_EPOCH_UNIX);
        let mut events = EventLog::new();
        events.push(Event::new(epoch, EventKind::Outage, "r", "open"));

        // Without a timeout the poster never returns, so the test waits
        // on a channel and joins the poster only once it has answered.
        let (done, outcome) = std::sync::mpsc::channel();
        let poster = std::thread::spawn(move || done.send(post_events(&addr, &events)));
        assert_eq!(outcome.recv_timeout(4 * CLIENT_TIMEOUT), Ok((0, 1)));
        poster.join().unwrap().unwrap();
        drop(listener);
    }
}
