//! `sqdmctl` — typed CLI client for the `sqdmd` serving daemon.
//!
//! Speaks the shared `sqdm_edm::wire` protocol, so client and server
//! cannot drift. Every subcommand prints a human summary by default or
//! the raw JSON response with `--json`; non-2xx responses print the
//! server's error to stderr and exit 1.
//!
//! ```text
//! sqdmctl [--addr HOST:PORT] [--json] <register|submit|status|stats|drain> ...
//! ```

use sqdm_edm::wire::{self, client, json};
use std::net::{SocketAddr, ToSocketAddrs};
use std::time::Duration;

const USAGE: &str = "usage: sqdmctl [--addr HOST:PORT] [--json] <command> [options]

commands:
  register --name NAME [--preset micro|default] [--precision fp32|int8|int8-fakequant|int8-native] [--seed N]
                       make a model resident; prints its model id
  submit   --model M --id N --steps N [--seed N] [--tenant N] [--priority N]
                       queue one generation request (priority matters only
                       under the Priority admission policy; a full bounded
                       queue answers HTTP 429)
  status   --id N      query a request (queued|running|done|failed)
  stats                serving stats: clock, rounds, rejected count, per-model
                       latency percentiles and energy/occupancy, tenant rollups
  drain                stop admissions, wait for in-flight requests, print final stats

global options:
  --addr HOST:PORT     daemon address (default 127.0.0.1:7411)
  --json               print the raw JSON response body";

fn fail(msg: &str) -> ! {
    eprintln!("sqdmctl: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Flag values collected from the argument list.
struct Flags {
    values: Vec<(String, String)>,
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parse<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.get(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(&format!("invalid value {v:?} for --{name}")))
        })
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> T {
        self.parse(name)
            .unwrap_or_else(|| fail(&format!("missing required option --{name}")))
    }
}

fn resolve_addr(addr: &str) -> SocketAddr {
    addr.to_socket_addrs()
        .ok()
        .and_then(|mut it| it.next())
        .unwrap_or_else(|| fail(&format!("cannot resolve address {addr:?}")))
}

/// Sends one request; exits with the server's error on a non-2xx reply.
fn call(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> String {
    let resp = client::request(addr, method, path, body, timeout).unwrap_or_else(|e| {
        eprintln!("sqdmctl: request to {addr}{path} failed: {e}");
        std::process::exit(1);
    });
    if !resp.is_success() {
        let detail = json::from_str::<wire::ErrorReply>(&resp.body)
            .map(|e| e.error)
            .unwrap_or(resp.body);
        eprintln!("sqdmctl: {method} {path}: HTTP {}: {detail}", resp.status);
        std::process::exit(1);
    }
    resp.body
}

fn decode<'de, T: serde::Deserialize<'de>>(body: &str) -> T {
    json::from_str(body).unwrap_or_else(|e| {
        eprintln!("sqdmctl: unexpected response body: {e}");
        std::process::exit(1);
    })
}

/// Refuses to interpret a reply from a daemon speaking a newer protocol
/// revision than this build; the typed error beats a silent mis-parse.
fn check_version(proto_version: u32) {
    if let Err(e) = wire::check_proto_version(proto_version) {
        eprintln!("sqdmctl: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7411".to_string();
    let mut json_out = false;
    let mut command = None;
    let mut flags = Flags { values: Vec::new() };

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            "--addr" => addr = it.next().unwrap_or_else(|| fail("--addr needs a value")),
            "--json" => json_out = true,
            flag if flag.starts_with("--") => {
                let value = it
                    .next()
                    .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
                flags.values.push((flag[2..].to_string(), value));
            }
            cmd if command.is_none() => command = Some(cmd.to_string()),
            other => fail(&format!("unexpected argument {other:?}")),
        }
    }
    let command = command.unwrap_or_else(|| fail("missing command"));
    let addr = resolve_addr(&addr);
    let timeout = Duration::from_secs(30);

    match command.as_str() {
        "register" => {
            let req = wire::RegisterModel {
                name: flags.require("name"),
                preset: flags.get("preset").unwrap_or("micro").to_string(),
                precision: flags.get("precision").unwrap_or("fp32").to_string(),
                seed: flags.parse("seed").unwrap_or(0),
            };
            let body = json::to_string(&req).expect("request encoding is infallible");
            let reply = call(addr, "POST", "/v1/models", Some(&body), timeout);
            if json_out {
                println!("{reply}");
            } else {
                let r: wire::ModelRegistered = decode(&reply);
                check_version(r.proto_version);
                println!("registered model {} ({}, {})", r.model, r.name, r.precision);
            }
        }
        "submit" => {
            let id: u64 = flags.require("id");
            let req = wire::Submit {
                model: flags.require("model"),
                id,
                seed: flags.parse("seed").unwrap_or(id),
                steps: flags.require("steps"),
                tenant: flags.parse("tenant").unwrap_or(0),
                priority: flags.parse("priority").unwrap_or(0),
            };
            let body = json::to_string(&req).expect("request encoding is infallible");
            let reply = call(addr, "POST", "/v1/submit", Some(&body), timeout);
            if json_out {
                println!("{reply}");
            } else {
                let r: wire::Submitted = decode(&reply);
                check_version(r.proto_version);
                println!(
                    "submitted request {} to model {} at step {}",
                    r.id, r.model, r.arrival_step
                );
            }
        }
        "status" => {
            let id: u64 = flags.require("id");
            let reply = call(addr, "GET", &format!("/v1/status/{id}"), None, timeout);
            if json_out {
                println!("{reply}");
            } else {
                let r: wire::StatusReply = decode(&reply);
                check_version(r.proto_version);
                match (r.state.as_str(), &r.image, &r.error) {
                    ("done", Some(img), _) => println!(
                        "request {} on model {}: done, image {:?} ({} px)",
                        r.id,
                        r.model,
                        img.dims,
                        img.bits.len()
                    ),
                    ("failed", _, Some(err)) => {
                        println!("request {} on model {}: failed: {err}", r.id, r.model)
                    }
                    (state, _, _) => println!("request {} on model {}: {state}", r.id, r.model),
                }
            }
        }
        "stats" => {
            let reply = call(addr, "GET", "/v1/stats", None, timeout);
            if json_out {
                println!("{reply}");
            } else {
                let s: wire::StatsReply = decode(&reply);
                check_version(s.proto_version);
                println!(
                    "clock {} | rounds {} | active {} | rejected {} | draining {}",
                    s.clock, s.rounds, s.active_requests, s.rejected, s.draining
                );
                for m in &s.models {
                    let pct =
                        |v: Option<usize>| v.map(|p| p.to_string()).unwrap_or_else(|| "-".into());
                    let num = |v: Option<f64>, digits: usize| {
                        v.map(|x| format!("{x:.digits$}"))
                            .unwrap_or_else(|| "-".into())
                    };
                    println!(
                        "model {} ({}, {}): {} completed, {} rounds, latency p50/p95/p99 {}/{}/{} steps, \
                         energy/image {} pJ, occupancy mean/peak {}/{}",
                        m.model,
                        m.name,
                        m.precision,
                        m.completed,
                        m.rounds,
                        pct(m.p50_latency),
                        pct(m.p95_latency),
                        pct(m.p99_latency),
                        num(m.energy_per_image_pj, 0),
                        num(m.mean_occupancy, 3),
                        num(m.peak_occupancy, 3)
                    );
                }
                for t in &s.tenants {
                    println!(
                        "tenant {}: {} requests, {} steps, mean latency {:.2}",
                        t.tenant, t.requests, t.total_steps, t.mean_latency
                    );
                }
            }
        }
        "drain" => {
            // Drain blocks until in-flight requests finish; allow longer.
            let reply = call(addr, "POST", "/v1/drain", None, Duration::from_secs(600));
            if json_out {
                println!("{reply}");
            } else {
                let r: wire::DrainReply = decode(&reply);
                check_version(r.proto_version);
                println!(
                    "drained: {} requests completed, {} rounds, final step {}",
                    r.completed, r.rounds, r.final_step
                );
            }
        }
        other => fail(&format!("unknown command {other:?}")),
    }
}
