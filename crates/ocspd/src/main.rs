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
use std::collections::BTreeMap;
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

/// A subcommand's arguments, flag → value.
type Flags<'a> = BTreeMap<&'a str, &'a str>;

/// Read `args` as `--flag value` pairs, each flag one of `known`. An
/// unknown flag, a flag without its value and a repeated flag are
/// errors, so a mistyped flag fails instead of being ignored.
fn flags<'a>(args: &'a [String], known: &[&str]) -> Result<Flags<'a>, String> {
    let mut flags = Flags::new();
    let mut iter = args.iter();
    while let Some(name) = iter.next() {
        if !known.contains(&name.as_str()) {
            return Err(format!("unknown flag {name:?} (takes {})", known.join(" ")));
        }
        let value = iter.next().ok_or_else(|| format!("{name} needs a value"))?;
        if flags.insert(name, value).is_some() {
            return Err(format!("{name} given twice"));
        }
    }
    Ok(flags)
}

fn parse<T: std::str::FromStr>(value: &str, name: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("{name}: cannot parse {value:?}"))
}

/// The value of `name` parsed, or `default` when the flag is absent.
fn parse_or<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String> {
    flags.get(name).map_or(Ok(default), |v| parse(v, name))
}

fn seed_of(flags: &Flags) -> Result<u64, String> {
    parse_or(flags, "--seed", 42)
}

fn plan_of(flags: &Flags) -> Result<RequestPlan, String> {
    Ok(RequestPlan {
        total: parse_or(flags, "--requests", 20)?,
        malformed_every: parse_or(flags, "--malformed-every", 0)?,
    })
}

fn write_file(path: &str, bytes: &[u8], what: &str) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("writing {what} to {path}: {e}"))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = flags(
        args,
        &["--addr", "--seed", "--max-conns", "--events", "--webhook"],
    )?;
    let addr = flags.get("--addr").copied().unwrap_or("127.0.0.1:0");
    let seed = seed_of(&flags)?;
    let max_conns = match flags.get("--max-conns") {
        Some(v) => Some(parse::<u64>(v, "--max-conns")?),
        None => None,
    };

    let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = listener.local_addr().map_err(|e| e.to_string())?;
    // The probe side parses this line to find the ephemeral port.
    println!("listening on {bound}");
    use std::io::Write as _;
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    let mut service = OcspService::new(seed);
    serve(&listener, &mut service, max_conns).map_err(|e| format!("serving: {e}"))?;

    let events = service.events();
    if let Some(path) = flags.get("--events") {
        write_file(path, events.to_jsonl().as_bytes(), "events")?;
    }
    if let Some(addr) = flags.get("--webhook") {
        let (delivered, failed) = post_events(addr, events);
        eprintln!("webhook: {delivered} delivered, {failed} failed");
    }
    Ok(())
}

fn cmd_probe(args: &[String]) -> Result<(), String> {
    let flags = flags(
        args,
        &[
            "--addr",
            "--seed",
            "--requests",
            "--malformed-every",
            "--metrics",
        ],
    )?;
    let addr = *flags.get("--addr").ok_or("probe needs --addr host:port")?;
    let seed = seed_of(&flags)?;
    let plan = plan_of(&flags)?;

    let canonical = OcspService::new(seed).canonical_request();
    for i in 0..plan.total {
        let body = plan.body(i, &canonical);
        let (status, response) = client::post(addr, "/ocsp", "application/ocsp-request", &body)
            .map_err(|e| format!("POST /ocsp: {e}"))?;
        if status != 200 || response.is_empty() {
            return Err(format!("POST /ocsp #{i}: status {status}"));
        }
    }
    let (status, scrape) =
        client::get(addr, "/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics: status {status}"));
    }
    match flags.get("--metrics") {
        Some(path) => write_file(path, &scrape, "the scrape")?,
        None => print!("{}", String::from_utf8_lossy(&scrape)),
    }
    let (status, table) = client::get(addr, "/health").map_err(|e| format!("GET /health: {e}"))?;
    if status != 200 {
        return Err(format!("GET /health: status {status}"));
    }
    eprint!("{}", String::from_utf8_lossy(&table));
    Ok(())
}

fn cmd_offline(args: &[String]) -> Result<(), String> {
    let flags = flags(
        args,
        &[
            "--seed",
            "--requests",
            "--malformed-every",
            "--metrics",
            "--events",
        ],
    )?;
    let mut service = OcspService::new(seed_of(&flags)?);
    service.run_offline(&plan_of(&flags)?);
    match flags.get("--metrics") {
        Some(path) => write_file(path, service.gated_metrics().as_bytes(), "the exposition")?,
        None => print!("{}", service.gated_metrics()),
    }
    if let Some(path) = flags.get("--events") {
        write_file(path, service.events().to_jsonl().as_bytes(), "events")?;
    }
    Ok(())
}

fn cmd_request(args: &[String]) -> Result<(), String> {
    let flags = flags(args, &["--seed", "--out"])?;
    let der = OcspService::new(seed_of(&flags)?).canonical_request();
    match flags.get("--out") {
        Some(path) => write_file(path, &der, "the request"),
        None => Err("request needs --out PATH (the body is binary DER)".to_owned()),
    }
}
