//! `sqdmd`: the serving stack behind a real network boundary.
//!
//! A std-only HTTP/1.1 daemon over [`std::net::TcpListener`] exposing the
//! registry serving loop on five endpoints (see [`crate::wire`] for the
//! endpoint table and body types). Threading follows the
//! `sqdm_tensor::parallel` idioms — named threads coordinating through a
//! `Mutex` + `Condvar` pair, workers parked on a condvar instead of
//! spinning:
//!
//! * `sqdmd-serve` — the serve loop. Each iteration is one tick of the
//!   shared virtual clock: fair-share admission at the step boundary, one
//!   batched Heun round per non-idle model, retirement of exhausted
//!   streams. The whole loop runs inside one [`arena::scope`] so the
//!   steady state keeps the library's zero-allocation behavior.
//! * `sqdmd-listener` — accepts connections and hands each to a detached
//!   `sqdmd-conn` thread (thread-per-connection; requests are tiny and
//!   `Connection: close`).
//!
//! # Determinism contract
//!
//! The wall clock decides only *when* requests are admitted, never what
//! they compute: every served image is bitwise identical to the solo
//! [`crate::sample`] run with the same `(seed, steps)` on the same model,
//! whatever the batch composition, `SQDM_EXEC` mode, or `SQDM_THREADS`.
//! The socket-level e2e suite pins this over a real TCP connection.
//!
//! # Drain semantics
//!
//! `POST /v1/drain` flips the daemon into draining mode: new submissions
//! (and registrations) are rejected with 503, requests already queued or
//! in flight complete their remaining denoise rounds, and the drain
//! response is sent only once the last stream has retired — carrying the
//! final lifetime stats. The listener itself stays up (status and stats
//! remain queryable) until the embedder calls [`DaemonHandle::shutdown`];
//! the `sqdmd` binary does so as soon as [`DaemonHandle::wait_drained`]
//! returns.

use crate::cost::CostModelConfig;
use crate::denoiser::Denoiser;
use crate::error::EdmError;
use crate::model::{UNet, UNetConfig};
use crate::registry::{ModelId, ModelRegistry};
use crate::schedule::EdmSchedule;
use crate::serve::{
    AdmissionPolicy, Backpressure, BackpressurePolicy, BatchSampler, QueueBound, ScheduledRequest,
    ServeCore, ServeRequest, ServeStats,
};
use crate::wire::{self, json};
use serde::Serialize;
use sqdm_accel::PowerProfile;
use sqdm_quant::{BlockPrecision, ExecMode, PrecisionAssignment, QuantFormat};
use sqdm_tensor::{arena, Rng};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest request body the daemon accepts; bigger gets 413 up front.
const MAX_BODY: usize = 1 << 20;
/// Largest request head (request line + headers) before the read aborts
/// with 400.
const MAX_HEAD: usize = 8 * 1024;
/// Per-connection socket I/O deadline: a stalled peer frees its thread.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Configuration of a daemon instance.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Bind address; port 0 picks an ephemeral port (its resolution is
    /// available from [`DaemonHandle::addr`]).
    pub addr: String,
    /// Per-model in-flight batch capacity (must be at least 1).
    pub max_batch: usize,
    /// Artificial pause between serve-loop ticks, slept **outside** the
    /// state lock. Zero (the default) for production; tests use it to
    /// widen the drain window deterministically.
    pub round_delay: Duration,
    /// Bound on each model's pending queue. `None` (the default) admits
    /// unboundedly as before; `Some(n)` refuses the `n+1`-th queued
    /// submission with HTTP 429 until admission makes room.
    pub max_pending: Option<usize>,
    /// Simulated per-window energy budget in pJ (`--energy-budget`).
    /// `None` (the default) keeps fair-share admission with the no-op
    /// cost model — bitwise identical to the previous daemon behavior.
    /// `Some(pj)` switches every model's engine to
    /// [`AdmissionPolicy::EnergyCapped`] over the accelerator-backed cost
    /// model under the `Efficiency` throttle profile, with window length
    /// [`ENERGY_WINDOW_STEPS`].
    pub energy_budget: Option<u64>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            addr: "127.0.0.1:0".into(),
            max_batch: 4,
            round_delay: Duration::ZERO,
            max_pending: None,
            energy_budget: None,
        }
    }
}

/// Admission window of the daemon's energy-capped mode, in virtual steps:
/// `--energy-budget` is spent per window of this many scheduler ticks.
pub const ENERGY_WINDOW_STEPS: u32 = 8;

/// Lifecycle of one submitted request.
enum ReqState {
    /// Accepted, waiting for batch capacity.
    Queued,
    /// Admitted into its model's in-flight batch.
    Running,
    /// Completed; the image is held in transport form.
    Done(wire::ImagePayload),
    /// Its model's round failed; the reason is kept for status queries.
    Failed(String),
}

/// One entry in the daemon-lifetime request table.
struct RequestEntry {
    model: ModelId,
    state: ReqState,
}

/// Continuous-batching state of one resident model.
struct ModelServe {
    /// The model's serving core: fair-share (or energy-capped) admission
    /// over a pending queue bounded when the daemon was configured with
    /// `max_pending`, the in-flight batch, and lifetime stats whose
    /// request records cover completed requests only.
    core: ServeCore,
    precision_label: String,
}

/// Everything behind the mutex.
struct ServerState {
    registry: ModelRegistry,
    serving: Vec<ModelServe>,
    /// Every request ever submitted, keyed by id (also the duplicate-id
    /// guard).
    requests: BTreeMap<u64, RequestEntry>,
    /// Shared virtual clock, one tick per serve-loop iteration with work.
    clock: usize,
    draining: bool,
    shutdown: bool,
    max_batch: usize,
    round_delay: Duration,
    /// Pending-queue bound applied to every model's engine.
    max_pending: Option<usize>,
    /// Per-window energy budget applied to every model's engine.
    energy_budget: Option<u64>,
}

impl ServerState {
    /// No request queued, parked or in flight on any model.
    fn is_idle(&self) -> bool {
        self.serving.iter().all(|m| m.core.is_idle())
    }

    /// Total rounds executed across models.
    fn rounds(&self) -> usize {
        self.serving.iter().map(|m| m.core.stats().rounds).sum()
    }

    /// One tick of the virtual clock: every model steps its core once
    /// (admission, one batched round when anything is in flight,
    /// retirement). Called with work present.
    fn tick(&mut self) {
        let ServerState {
            registry,
            serving,
            requests,
            clock,
            ..
        } = self;
        for (m, ms) in serving.iter_mut().enumerate() {
            let Some(model) = registry.model_mut(m) else {
                continue;
            };
            let (net, assignment, packs) = model.serve_parts();
            let stepped = ms.core.step(*clock, 0, net, assignment, packs, |done| {
                // Stash the image bits in transport form.
                let image = &done.output.image;
                let payload = wire::ImagePayload {
                    dims: image.dims().to_vec(),
                    bits: image.as_slice().iter().map(|v| v.to_bits()).collect(),
                };
                requests.insert(
                    done.record.id,
                    RequestEntry {
                        model: m,
                        state: ReqState::Done(payload),
                    },
                );
            });
            match stepped {
                Ok(_) => {
                    for id in ms.core.inflight_ids() {
                        if let Some(entry) = requests.get_mut(&id) {
                            entry.state = ReqState::Running;
                        }
                    }
                }
                Err(e) => {
                    // Fail this model's in-flight requests; other models
                    // and future submissions keep serving.
                    let msg = e.to_string();
                    ms.core.fail_inflight(|id| {
                        if let Some(entry) = requests.get_mut(&id) {
                            entry.state = ReqState::Failed(msg.clone());
                        }
                    });
                }
            }
        }
        *clock += 1;
    }
}

/// The mutex and the two condvars every daemon thread coordinates on.
struct Shared {
    state: Mutex<ServerState>,
    /// Work arrived (submit), or the lifecycle changed (drain/shutdown):
    /// wakes the serve loop.
    work: Condvar,
    /// Progress was made (tick finished, queues went idle): wakes drain
    /// and `wait_drained` waiters.
    done: Condvar,
}

impl Shared {
    /// Locks the state, recovering from a poisoned mutex — a panicking
    /// connection thread must never wedge the daemon.
    fn lock(&self) -> MutexGuard<'_, ServerState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait_work<'a>(&self, guard: MutexGuard<'a, ServerState>) -> MutexGuard<'a, ServerState> {
        self.work.wait(guard).unwrap_or_else(|e| e.into_inner())
    }

    fn wait_done<'a>(&self, guard: MutexGuard<'a, ServerState>) -> MutexGuard<'a, ServerState> {
        self.done.wait(guard).unwrap_or_else(|e| e.into_inner())
    }
}

/// Handle to a running daemon: its resolved address plus lifecycle
/// control. Dropping the handle shuts the daemon down.
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener_thread: Option<JoinHandle<()>>,
    serve_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for DaemonHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonHandle")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

impl DaemonHandle {
    /// The daemon's resolved bind address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a `/v1/drain` has been accepted **and** every queued
    /// or in-flight request has completed (or the daemon is shut down).
    pub fn wait_drained(&self) {
        let mut st = self.shared.lock();
        while !(st.shutdown || st.draining && st.is_idle()) {
            st = self.shared.wait_done(st);
        }
    }

    /// Stops the listener and the serve loop and joins both threads.
    /// In-flight connection threads finish their current response.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            self.shared.work.notify_all();
            self.shared.done.notify_all();
        }
        // Kick the listener out of its blocking accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.serve_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Binds the listener and starts the serve loop; returns once the daemon
/// is accepting connections.
///
/// # Errors
///
/// Returns the bind error, or `InvalidInput` for a zero `max_batch`.
pub fn spawn(config: DaemonConfig) -> std::io::Result<DaemonHandle> {
    if config.max_batch == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "daemon max_batch must be at least 1",
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        state: Mutex::new(ServerState {
            registry: ModelRegistry::new(),
            serving: Vec::new(),
            requests: BTreeMap::new(),
            clock: 0,
            draining: false,
            shutdown: false,
            max_batch: config.max_batch,
            round_delay: config.round_delay,
            max_pending: config.max_pending,
            energy_budget: config.energy_budget,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
    });

    let serve_shared = Arc::clone(&shared);
    let serve_thread = std::thread::Builder::new()
        .name("sqdmd-serve".into())
        .spawn(move || serve_loop(&serve_shared))?;

    let accept_shared = Arc::clone(&shared);
    let listener_thread = std::thread::Builder::new()
        .name("sqdmd-listener".into())
        .spawn(move || listener_loop(&listener, &accept_shared))?;

    Ok(DaemonHandle {
        addr,
        shared,
        listener_thread: Some(listener_thread),
        serve_thread: Some(serve_thread),
    })
}

/// The serve loop: tick while work exists, park on the work condvar while
/// idle. One arena scope for the whole lifetime keeps steady-state rounds
/// allocation-free.
fn serve_loop(shared: &Shared) {
    arena::scope(|| {
        let mut st = shared.lock();
        loop {
            if st.shutdown {
                break;
            }
            if st.is_idle() {
                // Idle is what drain waiters wait for.
                shared.done.notify_all();
                st = shared.wait_work(st);
                continue;
            }
            st.tick();
            shared.done.notify_all();
            let delay = st.round_delay;
            if !delay.is_zero() {
                drop(st);
                std::thread::sleep(delay);
                st = shared.lock();
            }
        }
    });
}

/// Accepts connections until shutdown; each goes to a detached
/// thread-per-connection handler.
fn listener_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.lock().shutdown {
            break;
        }
        let Ok(stream) = conn else { continue };
        let conn_shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("sqdmd-conn".into())
            .spawn(move || handle_connection(stream, &conn_shared));
    }
}

// ---------------------------------------------------------------------
// HTTP layer.
// ---------------------------------------------------------------------

struct HttpRequest {
    method: String,
    path: String,
    body: String,
}

#[derive(Debug)]
struct HttpResponse {
    status: u16,
    body: String,
}

/// An error response with a JSON [`wire::ErrorReply`] body.
fn error_response(status: u16, message: impl Into<String>) -> HttpResponse {
    let reply = wire::ErrorReply {
        error: message.into(),
    };
    HttpResponse {
        status,
        body: json::to_string(&reply).unwrap_or_else(|_| "{\"error\":\"internal\"}".into()),
    }
}

/// A 200 response with a JSON body.
fn ok_json<T: Serialize>(value: &T) -> HttpResponse {
    match json::to_string(value) {
        Ok(body) => HttpResponse { status: 200, body },
        Err(e) => error_response(500, format!("response encoding failed: {e}")),
    }
}

/// Maps a library error onto a wire status: the duplicate-id
/// [`EdmError::Config`] becomes 409 Conflict, other config errors are the
/// caller's fault (400), a full pending queue is 429 Too Many Requests,
/// anything else is the server's fault (500).
fn error_status(e: &EdmError) -> u16 {
    match e {
        EdmError::Config { reason } if reason.contains("duplicate request id") => 409,
        EdmError::Config { .. } => 400,
        EdmError::Overloaded { .. } => 429,
        _ => 500,
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// One connection: parse, route, respond, close. Panics in a handler are
/// caught and answered with 500 — the daemon must never wedge or die on a
/// bad request.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_request(&mut stream) {
        Err(resp) => resp,
        Ok(req) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(shared, &req)))
            .unwrap_or_else(|_| error_response(500, "internal error handling request")),
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        reason_phrase(response.status),
        response.body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(response.body.as_bytes());
    let _ = stream.flush();
}

/// Reads and parses one HTTP/1.1 request, with hard caps on head and body
/// size. Malformed or truncated input maps to a clean 4xx.
fn read_request(stream: &mut TcpStream) -> Result<HttpRequest, HttpResponse> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_terminator(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(error_response(400, "request head too large"));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| error_response(400, format!("failed to read request: {e}")))?;
        if n == 0 {
            return Err(error_response(400, "truncated request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| error_response(400, "request head is not valid utf-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/") {
        return Err(error_response(400, "malformed request line"));
    }

    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse::<usize>()
                .map_err(|_| error_response(400, "invalid content-length"))?;
        }
    }
    if content_length > MAX_BODY {
        return Err(error_response(
            413,
            format!("request body of {content_length} bytes exceeds the {MAX_BODY} byte limit"),
        ));
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| error_response(400, format!("failed to read request body: {e}")))?;
        if n == 0 {
            return Err(error_response(400, "truncated request body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body)
        .map_err(|_| error_response(400, "request body is not valid utf-8"))?;
    Ok(HttpRequest { method, path, body })
}

/// Position of the `\r\n\r\n` head terminator, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn route(shared: &Arc<Shared>, req: &HttpRequest) -> HttpResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/models") => handle_register(shared, &req.body),
        ("POST", "/v1/submit") => handle_submit(shared, &req.body),
        ("GET", "/v1/stats") => handle_stats(shared),
        ("POST", "/v1/drain") => handle_drain(shared),
        (_, "/v1/models" | "/v1/submit" | "/v1/stats" | "/v1/drain") => error_response(
            405,
            format!("method {} not allowed on {}", req.method, req.path),
        ),
        (method, path) if path.starts_with("/v1/status/") => {
            if method != "GET" {
                return error_response(405, format!("method {method} not allowed on {path}"));
            }
            match path["/v1/status/".len()..].parse::<u64>() {
                Ok(id) => handle_status(shared, id),
                Err(_) => error_response(400, "request id must be an unsigned integer"),
            }
        }
        (_, path) => error_response(404, format!("unknown path {path}")),
    }
}

/// Resolves a wire precision label into an assignment (None = fp32) and
/// its canonical echo form. A bare `"int8"` picks up the daemon's
/// `SQDM_EXEC` execution mode.
fn parse_precision(label: &str) -> Result<(Option<PrecisionAssignment>, String), HttpResponse> {
    let int8 = |mode: ExecMode| {
        PrecisionAssignment::uniform(
            crate::model::block_ids::COUNT,
            BlockPrecision::uniform(QuantFormat::int8()),
            "INT8",
        )
        .with_mode(mode)
    };
    let resolved = |mode: ExecMode| match mode {
        ExecMode::FakeQuant => "int8-fakequant".to_string(),
        ExecMode::NativeInt => "int8-native".to_string(),
    };
    match label {
        "fp32" | "none" => Ok((None, "fp32".into())),
        "int8" => {
            let mode = ExecMode::from_env();
            Ok((Some(int8(mode)), resolved(mode)))
        }
        "int8-fakequant" => Ok((
            Some(int8(ExecMode::FakeQuant)),
            resolved(ExecMode::FakeQuant),
        )),
        "int8-native" => Ok((
            Some(int8(ExecMode::NativeInt)),
            resolved(ExecMode::NativeInt),
        )),
        other => Err(error_response(
            400,
            format!(
                "unknown precision {other:?}; expected fp32, int8, int8-fakequant, or int8-native"
            ),
        )),
    }
}

fn handle_register(shared: &Arc<Shared>, body: &str) -> HttpResponse {
    let req: wire::RegisterModel = match json::from_str(body) {
        Ok(r) => r,
        Err(e) => return error_response(400, format!("invalid register body: {e}")),
    };
    let mcfg = match req.preset.as_str() {
        "micro" => UNetConfig::micro(),
        "default" => UNetConfig::default(),
        other => {
            return error_response(
                400,
                format!("unknown preset {other:?}; expected micro or default"),
            )
        }
    };
    let (assignment, precision) = match parse_precision(&req.precision) {
        Ok(p) => p,
        Err(resp) => return resp,
    };
    // Weight init happens outside the lock: registration never stalls the
    // serve loop or other connections.
    let mut rng = Rng::seed_from(req.seed);
    let net = match UNet::new(mcfg, &mut rng) {
        Ok(n) => n,
        Err(e) => return error_response(400, format!("model construction failed: {e}")),
    };
    let den = Denoiser::new(EdmSchedule::default());

    let mut st = shared.lock();
    if st.draining {
        return error_response(503, "daemon is draining; not accepting new models");
    }
    let model = st.registry.register(req.name.clone(), net, assignment, den);
    let bound = st.max_pending.map(|capacity| QueueBound {
        capacity,
        policy: BackpressurePolicy::Reject,
    });
    // `--energy-budget` switches admission to the energy-capped policy
    // over the accelerator-backed cost model; the default stays fair
    // share over the no-op model (decisions bitwise identical to before
    // costs existed).
    let (policy, cost) = match st.energy_budget {
        Some(budget_pj) => (
            AdmissionPolicy::EnergyCapped {
                budget_pj,
                window: ENERGY_WINDOW_STEPS,
            },
            CostModelConfig::Accel {
                profile: PowerProfile::Efficiency,
            },
        ),
        None => (AdmissionPolicy::FairShare, CostModelConfig::Noop),
    };
    let max_batch = st.max_batch;
    st.serving.push(ModelServe {
        core: ServeCore::new(
            BatchSampler::new(den).with_traces(false),
            policy,
            bound,
            cost,
            max_batch,
        ),
        precision_label: precision.clone(),
    });
    ok_json(&wire::ModelRegistered {
        model,
        name: req.name,
        precision,
        proto_version: wire::PROTO_VERSION,
    })
}

fn handle_submit(shared: &Arc<Shared>, body: &str) -> HttpResponse {
    let req: wire::Submit = match json::from_str(body) {
        Ok(r) => r,
        Err(e) => return error_response(400, format!("invalid submit body: {e}")),
    };
    let mut st = shared.lock();
    if st.draining {
        return error_response(503, "daemon is draining; not accepting new requests");
    }
    if req.model >= st.registry.len() {
        return error_response(
            404,
            format!(
                "unknown model {}; the registry holds {}",
                req.model,
                st.registry.len()
            ),
        );
    }
    if st.requests.contains_key(&req.id) {
        // The same duplicate-id rejection the in-process schedulers
        // raise, surfaced as 409 Conflict.
        let err = EdmError::Config {
            reason: format!("duplicate request id {}", req.id),
        };
        return error_response(error_status(&err), err.to_string());
    }
    let arrival_step = st.clock;
    let serve_req = ServeRequest::new(req.id, req.steps)
        .seed(req.seed)
        .tenant(req.tenant)
        .priority(req.priority);
    let core = &mut st.serving[req.model].core;
    match core.submit(ScheduledRequest::new(serve_req, arrival_step)) {
        // A step budget below 2: the 400 every serving surface raises.
        Err(err) => return error_response(error_status(&err), err.to_string()),
        Ok(Backpressure::Accepted) => {}
        // The daemon's bound uses the Reject policy, so Shed never
        // arrives here; refuse with 429 and keep the id reusable.
        Ok(Backpressure::Rejected(_) | Backpressure::Shed { .. }) => {
            let err = EdmError::Overloaded {
                reason: format!(
                    "model {} pending queue is full ({} queued); retry after admissions drain",
                    req.model,
                    core.queue_len()
                ),
            };
            return error_response(error_status(&err), err.to_string());
        }
    }
    st.requests.insert(
        req.id,
        RequestEntry {
            model: req.model,
            state: ReqState::Queued,
        },
    );
    shared.work.notify_all();
    ok_json(&wire::Submitted {
        id: req.id,
        model: req.model,
        arrival_step,
        proto_version: wire::PROTO_VERSION,
    })
}

fn handle_status(shared: &Arc<Shared>, id: u64) -> HttpResponse {
    let st = shared.lock();
    let Some(entry) = st.requests.get(&id) else {
        return error_response(404, format!("unknown request id {id}"));
    };
    let (state, image, error) = match &entry.state {
        ReqState::Queued => ("queued", None, None),
        ReqState::Running => ("running", None, None),
        ReqState::Done(img) => ("done", Some(img.clone()), None),
        ReqState::Failed(msg) => ("failed", None, Some(msg.clone())),
    };
    ok_json(&wire::StatusReply {
        id,
        state: state.into(),
        model: entry.model,
        image,
        error,
        proto_version: wire::PROTO_VERSION,
    })
}

fn handle_stats(shared: &Arc<Shared>) -> HttpResponse {
    let st = shared.lock();
    let some_finite = |v: f64| if v.is_finite() { Some(v) } else { None };
    // Energy/occupancy are meaningful only under a real cost model; the
    // no-op model's all-zero accounting stays absent on the wire.
    let some_pos = |v: f64| {
        if v.is_finite() && v > 0.0 {
            Some(v)
        } else {
            None
        }
    };
    let models = st
        .serving
        .iter()
        .enumerate()
        .map(|(m, ms)| {
            let s = ms.core.stats();
            wire::ModelStatsWire {
                model: m,
                name: st
                    .registry
                    .model(m)
                    .map(|r| r.name().to_string())
                    .unwrap_or_default(),
                precision: ms.precision_label.clone(),
                completed: s.requests.len(),
                rounds: s.rounds,
                mean_latency: some_finite(s.mean_latency()),
                p50_latency: s.p50_latency(),
                p95_latency: s.p95_latency(),
                p99_latency: s.p99_latency(),
                mean_batch_occupancy: some_finite(s.mean_batch_occupancy()),
                energy_per_image_pj: some_pos(s.energy_per_image_pj()),
                mean_occupancy: some_pos(s.mean_occupancy()),
                peak_occupancy: some_pos(s.peak_occupancy()),
            }
        })
        .collect();
    // Cross-model tenant rollups over completed requests (their per-tenant
    // means are always finite because each rollup has >= 1 request).
    let all = ServeStats {
        requests: st
            .serving
            .iter()
            .flat_map(|ms| ms.core.stats().requests.iter().copied())
            .collect(),
        ..ServeStats::default()
    };
    let active_requests = st.serving.iter().map(|ms| ms.core.active()).sum();
    // Every 429 refusal is a rejected id in its model's stats.
    let rejected = st
        .serving
        .iter()
        .map(|ms| ms.core.stats().rejected_ids.len() as u64)
        .sum();
    ok_json(&wire::StatsReply {
        clock: st.clock,
        rounds: st.rounds(),
        draining: st.draining,
        active_requests,
        rejected,
        proto_version: wire::PROTO_VERSION,
        models,
        tenants: all.tenant_rollups(),
    })
}

fn handle_drain(shared: &Arc<Shared>) -> HttpResponse {
    let mut st = shared.lock();
    st.draining = true;
    // Wake the serve loop (to finish queued work) and any other waiters
    // re-checking the draining flag.
    shared.work.notify_all();
    shared.done.notify_all();
    while !st.shutdown && !st.is_idle() {
        st = shared.wait_done(st);
    }
    if st.shutdown {
        return error_response(503, "daemon shut down before the drain completed");
    }
    let completed = st
        .serving
        .iter()
        .map(|ms| ms.core.stats().requests.len())
        .sum();
    ok_json(&wire::DrainReply {
        completed,
        rounds: st.rounds(),
        final_step: st.clock,
        proto_version: wire::PROTO_VERSION,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_rejects_zero_batch_capacity() {
        let err = spawn(DaemonConfig {
            max_batch: 0,
            ..DaemonConfig::default()
        })
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn error_status_maps_duplicate_ids_to_conflict() {
        let dup = EdmError::Config {
            reason: "duplicate request id 7".into(),
        };
        assert_eq!(error_status(&dup), 409);
        let other = EdmError::Config {
            reason: "max_batch must be at least 1".into(),
        };
        assert_eq!(error_status(&other), 400);
        let full = EdmError::Overloaded {
            reason: "model 0 pending queue is full".into(),
        };
        assert_eq!(error_status(&full), 429);
        assert_eq!(reason_phrase(429), "Too Many Requests");
        assert_eq!(error_status(&EdmError::MissingState { what: "x" }), 500);
    }

    #[test]
    fn precision_labels_resolve() {
        assert_eq!(parse_precision("fp32").unwrap().1, "fp32");
        assert_eq!(parse_precision("int8-native").unwrap().1, "int8-native");
        assert_eq!(
            parse_precision("int8-fakequant").unwrap().1,
            "int8-fakequant"
        );
        assert!(parse_precision("int4").is_err());
        let (asg, _) = parse_precision("int8").unwrap();
        assert!(asg.is_some());
    }

    #[test]
    fn head_terminator_detection() {
        assert_eq!(find_terminator(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_terminator(b"GET / HTTP/1.1\r\n"), None);
    }
}
