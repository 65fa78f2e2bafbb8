//! Protocol-robustness sweep for the `sqdmd` daemon: every malformed,
//! truncated, oversized, or otherwise hostile input must come back as a
//! clean 4xx over the socket — the daemon never panics, never wedges a
//! connection thread, and keeps serving afterwards.

mod common;

use common::{get, post, submit_ok, wait_done, watchdog};
use sqdm_edm::daemon::{self, DaemonConfig};
use sqdm_edm::wire::{json, RegisterModel, Submit};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// Writes raw bytes, half-closes the connection, and returns the parsed
/// status code of whatever the daemon answers.
fn raw(addr: SocketAddr, bytes: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(bytes).expect("write");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    text.strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {text:?}"))
}

/// A well-formed POST with an arbitrary body, sent raw.
fn raw_post(addr: SocketAddr, path: &str, body: &str) -> u16 {
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    raw(addr, format!("{head}{body}").as_bytes())
}

fn boot() -> (daemon::DaemonHandle, SocketAddr) {
    let handle = daemon::spawn(DaemonConfig::default()).unwrap();
    let addr = handle.addr();
    let resp = post(
        addr,
        "/v1/models",
        &RegisterModel {
            name: "m".into(),
            preset: "micro".into(),
            precision: "fp32".into(),
            seed: 1,
        },
    );
    assert_eq!(resp.status, 200, "{}", resp.body);
    (handle, addr)
}

/// Proves the daemon is still fully alive: stats answer and a fresh
/// submit runs to completion.
fn assert_healthy(addr: SocketAddr, id: u64) {
    assert_eq!(get(addr, "/v1/stats").status, 200);
    submit_ok(
        addr,
        Submit {
            model: 0,
            id,
            seed: id,
            steps: 2,
            tenant: 0,
            priority: 0,
        },
    );
    assert_eq!(wait_done(addr, id).state, "done");
}

#[test]
fn malformed_inputs_get_clean_4xx_and_never_wedge_the_daemon() {
    let _wd = watchdog(600);
    let (handle, addr) = boot();

    // Truncated request line (peer hangs up mid-line).
    assert_eq!(raw(addr, b"GET /v1/st"), 400);
    // Empty connection.
    assert_eq!(raw(addr, b""), 400);
    // Request line without an HTTP version.
    assert_eq!(raw(addr, b"FOO\r\n\r\n"), 400);
    // Unsupported method on a known path.
    assert_eq!(raw(addr, b"DELETE /v1/stats HTTP/1.1\r\n\r\n"), 405);
    assert_eq!(raw(addr, b"POST /v1/status/1 HTTP/1.1\r\n\r\n"), 405);
    // Unknown paths.
    assert_eq!(raw(addr, b"GET /v1/nope HTTP/1.1\r\n\r\n"), 404);
    assert_eq!(raw(addr, b"GET / HTTP/1.1\r\n\r\n"), 404);
    // Oversized body, rejected on the declared length alone.
    assert_eq!(
        raw(
            addr,
            b"POST /v1/submit HTTP/1.1\r\nContent-Length: 2097152\r\n\r\n"
        ),
        413
    );
    // Unparseable content length.
    assert_eq!(
        raw(
            addr,
            b"POST /v1/submit HTTP/1.1\r\nContent-Length: banana\r\n\r\n"
        ),
        400
    );
    // Body shorter than its declared length (truncated mid-body).
    assert_eq!(
        raw(
            addr,
            b"POST /v1/submit HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"model\""
        ),
        400
    );
    // Malformed JSON.
    assert_eq!(raw_post(addr, "/v1/submit", "{not json"), 400);
    // Valid JSON of the wrong shape.
    assert_eq!(raw_post(addr, "/v1/submit", "{}"), 400);
    assert_eq!(raw_post(addr, "/v1/submit", "[1,2,3]"), 400);
    // Nesting bomb: the parser's depth guard turns it into a 400 instead
    // of a connection-thread stack overflow.
    assert_eq!(raw_post(addr, "/v1/submit", &"[".repeat(50_000)), 400);
    // Bad status ids.
    assert_eq!(raw(addr, b"GET /v1/status/banana HTTP/1.1\r\n\r\n"), 400);
    assert_eq!(raw(addr, b"GET /v1/status/ HTTP/1.1\r\n\r\n"), 400);
    assert_eq!(get(addr, "/v1/status/424242").status, 404);

    // After the whole sweep the daemon still serves requests end to end.
    assert_healthy(addr, 900);
    handle.shutdown();
}

#[test]
fn semantic_rejections_map_to_the_right_status_codes() {
    let _wd = watchdog(600);
    let (handle, addr) = boot();

    // Unknown model.
    let resp = post(
        addr,
        "/v1/submit",
        &Submit {
            model: 99,
            id: 1,
            seed: 1,
            steps: 3,
            tenant: 0,
            priority: 0,
        },
    );
    assert_eq!(resp.status, 404, "{}", resp.body);
    // Step budget below the Karras minimum.
    for steps in [0, 1] {
        let resp = post(
            addr,
            "/v1/submit",
            &Submit {
                model: 0,
                id: 1,
                seed: 1,
                steps,
                tenant: 0,
                priority: 0,
            },
        );
        assert_eq!(resp.status, 400, "steps {steps}: {}", resp.body);
        assert!(resp.body.contains("at least 2 required"), "{}", resp.body);
    }
    // Unknown register preset / precision.
    for (preset, precision) in [("mega", "fp32"), ("micro", "int4")] {
        let resp = post(
            addr,
            "/v1/models",
            &RegisterModel {
                name: "bad".into(),
                preset: preset.into(),
                precision: precision.into(),
                seed: 1,
            },
        );
        assert_eq!(resp.status, 400, "{}", resp.body);
    }

    // Duplicate request id: the in-process EdmError::Config surfaces as
    // 409 Conflict over the wire.
    let first = Submit {
        model: 0,
        id: 7,
        seed: 7,
        steps: 2,
        tenant: 0,
        priority: 0,
    };
    submit_ok(addr, first);
    let resp = post(addr, "/v1/submit", &first);
    assert_eq!(resp.status, 409, "{}", resp.body);
    assert!(
        resp.body.contains("duplicate request id 7"),
        "{}",
        resp.body
    );
    // A completed id stays reserved for the daemon's lifetime.
    wait_done(addr, 7);
    let resp = post(addr, "/v1/submit", &first);
    assert_eq!(resp.status, 409, "{}", resp.body);

    assert_healthy(addr, 901);
    handle.shutdown();
}

#[test]
fn proto_version_skew_is_a_typed_error_not_a_misparse() {
    let _wd = watchdog(600);
    let (handle, addr) = boot();

    // A live daemon of this build always passes the client-side check.
    let resp = get(addr, "/v1/stats");
    assert_eq!(resp.status, 200, "{}", resp.body);
    let stats: sqdm_edm::wire::StatsReply = json::from_str(&resp.body).unwrap();
    assert_eq!(stats.proto_version, sqdm_edm::wire::PROTO_VERSION);
    assert!(sqdm_edm::wire::check_proto_version(stats.proto_version).is_ok());

    // Simulate a *newer* daemon by rewriting the version field of the
    // real reply: the body still decodes (added fields would be absent),
    // but the version check must surface a typed ProtocolMismatch instead
    // of letting the client silently mis-interpret the reply.
    let future = resp.body.replace(
        &format!("\"proto_version\":{}", sqdm_edm::wire::PROTO_VERSION),
        &format!("\"proto_version\":{}", sqdm_edm::wire::PROTO_VERSION + 5),
    );
    assert_ne!(
        future, resp.body,
        "version field must be present to rewrite"
    );
    let skewed: sqdm_edm::wire::StatsReply = json::from_str(&future).unwrap();
    match sqdm_edm::wire::check_proto_version(skewed.proto_version) {
        Err(sqdm_edm::EdmError::ProtocolMismatch { expected, got }) => {
            assert_eq!(expected, sqdm_edm::wire::PROTO_VERSION);
            assert_eq!(got, sqdm_edm::wire::PROTO_VERSION + 5);
        }
        other => panic!("expected ProtocolMismatch, got {other:?}"),
    }

    assert_healthy(addr, 902);
    handle.shutdown();
}

#[test]
fn concurrent_hostile_connections_do_not_wedge_serving() {
    let _wd = watchdog(600);
    let (handle, addr) = boot();

    // Hammer the daemon from several threads with a rotation of hostile
    // payloads while it is also serving real work.
    submit_ok(
        addr,
        Submit {
            model: 0,
            id: 50,
            seed: 50,
            steps: 6,
            tenant: 1,
            priority: 0,
        },
    );
    let attackers: Vec<_> = (0..8)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..5 {
                    let status = match (t + i) % 4 {
                        0 => raw(addr, b"GET /v1/st"),
                        1 => raw_post(addr, "/v1/submit", "{broken"),
                        2 => raw(addr, b"PATCH /v1/models HTTP/1.1\r\n\r\n"),
                        _ => raw(addr, b"GET /v1/nowhere HTTP/1.1\r\n\r\n"),
                    };
                    assert!((400..500).contains(&status), "got {status}");
                }
            })
        })
        .collect();
    for a in attackers {
        a.join().expect("attacker thread must not panic");
    }

    // The legitimate request finished untouched and the daemon drains
    // cleanly afterwards.
    assert_eq!(wait_done(addr, 50).state, "done");
    let resp = post(addr, "/v1/drain", &());
    assert_eq!(resp.status, 200, "{}", resp.body);
    let drain: sqdm_edm::wire::DrainReply = json::from_str(&resp.body).unwrap();
    assert_eq!(drain.completed, 1);
    handle.shutdown();
}
