//! `ocspd` — the live operational tier as a binary.
//!
//! Subcommands:
//!
//! * `serve` — bind a loopback listener, print the bound address, and
//!   serve `POST /ocsp`, `GET /metrics`, `GET /health`;
//! * `probe` — drive a running daemon: POST a request plan, then scrape
//!   `/metrics` and `/health`;
//! * `offline` — replay the same request plan in-process and write the
//!   equality-gated exposition and the event stream;
//! * `request` — write the canonical DER request (for curl).
//!
//! `ocspd serve --help`-style documentation lives in the README's
//! "Running the live service" section.

use mustaple_ocspd::{client, post_events, serve, OcspService, RequestPlan};
use std::net::TcpListener;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("usage: ocspd <serve|probe|offline|request> [flags]");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "serve" => cmd_serve(&args[1..]),
        "probe" => cmd_probe(&args[1..]),
        "offline" => cmd_offline(&args[1..]),
        "request" => cmd_request(&args[1..]),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ocspd: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Fetch the value following `--name`, if present.
fn flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == name {
            return match iter.next() {
                Some(value) => Ok(Some(value.clone())),
                None => Err(format!("{name} needs a value")),
            };
        }
    }
    Ok(None)
}

fn parse<T: std::str::FromStr>(value: &str, name: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("{name}: cannot parse {value:?}"))
}

fn seed_of(args: &[String]) -> Result<u64, String> {
    match flag(args, "--seed")? {
        Some(v) => parse(&v, "--seed"),
        None => Ok(42),
    }
}

fn plan_of(args: &[String]) -> Result<RequestPlan, String> {
    let total = match flag(args, "--requests")? {
        Some(v) => parse(&v, "--requests")?,
        None => 20,
    };
    let malformed_every = match flag(args, "--malformed-every")? {
        Some(v) => parse(&v, "--malformed-every")?,
        None => 0,
    };
    Ok(RequestPlan {
        total,
        malformed_every,
    })
}

fn write_file(path: &str, bytes: &[u8], what: &str) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("writing {what} to {path}: {e}"))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:0".to_owned());
    let seed = seed_of(args)?;
    let max_conns = match flag(args, "--max-conns")? {
        Some(v) => Some(parse::<u64>(&v, "--max-conns")?),
        None => None,
    };
    let events_path = flag(args, "--events")?;
    let webhook = flag(args, "--webhook")?;

    let listener = TcpListener::bind(&addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    // The probe side parses this line to find the ephemeral port.
    println!("listening on {bound}");
    use std::io::Write as _;
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    let mut service = OcspService::new(seed);
    serve(&listener, &mut service, max_conns).map_err(|e| format!("serving: {e}"))?;

    let events = service.events();
    if let Some(path) = events_path {
        write_file(&path, events.to_jsonl().as_bytes(), "events")?;
    }
    if let Some(addr) = webhook {
        let (delivered, failed) = post_events(&addr, events);
        eprintln!("webhook: {delivered} delivered, {failed} failed");
    }
    Ok(())
}

fn cmd_probe(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr")?.ok_or("probe needs --addr host:port")?;
    let seed = seed_of(args)?;
    let plan = plan_of(args)?;
    let metrics_path = flag(args, "--metrics")?;

    let canonical = OcspService::new(seed).canonical_request();
    for i in 0..plan.total {
        let body = plan.body(i, &canonical);
        let (status, response) = client::post(&addr, "/ocsp", "application/ocsp-request", &body)
            .map_err(|e| format!("POST /ocsp: {e}"))?;
        if status != 200 || response.is_empty() {
            return Err(format!("POST /ocsp #{i}: status {status}"));
        }
    }
    let (status, scrape) =
        client::get(&addr, "/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics: status {status}"));
    }
    match metrics_path {
        Some(path) => write_file(&path, &scrape, "the scrape")?,
        None => print!("{}", String::from_utf8_lossy(&scrape)),
    }
    let (status, table) = client::get(&addr, "/health").map_err(|e| format!("GET /health: {e}"))?;
    if status != 200 {
        return Err(format!("GET /health: status {status}"));
    }
    eprint!("{}", String::from_utf8_lossy(&table));
    Ok(())
}

fn cmd_offline(args: &[String]) -> Result<(), String> {
    let seed = seed_of(args)?;
    let plan = plan_of(args)?;
    let mut service = OcspService::new(seed);
    service.run_offline(&plan);
    match flag(args, "--metrics")? {
        Some(path) => write_file(&path, service.gated_metrics().as_bytes(), "the exposition")?,
        None => print!("{}", service.gated_metrics()),
    }
    if let Some(path) = flag(args, "--events")? {
        write_file(&path, service.events().to_jsonl().as_bytes(), "events")?;
    }
    Ok(())
}

fn cmd_request(args: &[String]) -> Result<(), String> {
    let seed = seed_of(args)?;
    let der = OcspService::new(seed).canonical_request();
    match flag(args, "--out")? {
        Some(path) => write_file(&path, &der, "the request")?,
        None => return Err("request needs --out PATH (the body is binary DER)".to_owned()),
    }
    Ok(())
}
