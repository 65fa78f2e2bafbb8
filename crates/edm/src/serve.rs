//! Batched multi-request inference serving.
//!
//! Production diffusion serving does not generate one image at a time: a
//! [`BatchSampler`] packs N concurrent denoising requests — possibly at
//! **different** noise steps, with different step budgets — into a single
//! batched U-Net forward per sampler round, so per-step fixed costs
//! (weight (re)quantization on the integer engine, fake-quant weight
//! passes, im2col lowerings, GEMM operand packs) are paid once per round
//! instead of once per request, and the worker pool sees batch × rows of
//! work at a time.
//!
//! # Determinism contract
//!
//! Serving is **bitwise transparent**: the image produced for a request is
//! bit-for-bit the image [`crate::sample`] would produce for the same
//! `(seed, steps)` with the same model and precision assignment — at any
//! batch composition, in either [`sqdm_quant::ExecMode`], at any
//! `SQDM_THREADS`. Two ingredients make this hold:
//!
//! * every packed forward runs with [`RunConfig::batched`], which
//!   quantizes activations per request (one grid per stream, never across
//!   the batch) while weights are still packed once per layer call;
//! * all sampler arithmetic (Heun updates, preconditioning) is
//!   per-sample, and the batched kernels produce each output element with
//!   the exact single-request operation sequence.
//!
//! # Temporal sparsity per stream
//!
//! Each request accumulates its own per-block [`TemporalTrace`] while it
//! denoises, so the change masks that drive the sparse-delta kernel
//! (`sqdm_tensor::ops::int::qgemm_delta_multi`) stay per stream: one
//! request at a fully-dense step coexists with a neighbor that skips
//! nearly all of its reduction rows. [`delta_row_masks`] assembles the
//! concatenated per-stream row mask in exactly the layout that kernel
//! consumes.
//!
//! # Continuous batching
//!
//! [`BatchSampler::run`] serves a *static* batch: every request must be
//! present before the first Heun round. The [`Scheduler`] on top of it is
//! an Orca-style continuous-batching front-end: requests carry an
//! [`ScheduledRequest::arrival_step`] on a virtual clock (one tick per
//! outer denoise round), a pending queue feeds an in-flight batch capped
//! at [`Scheduler::max_batch`], and queued requests are admitted at step
//! boundaries — the packed `[A, C, S, S]` state re-forms as streams join
//! and retire, so a long-running request never blocks a short one behind
//! a full gang.
//!
//! Both run on one per-model serving core (`ServeCore`): it owns the
//! sampler, the admission engine, the admitted streams with their
//! per-request metadata, and the [`ServeStats`], and each `step` runs one
//! boundary, one batched round, its accounting and the retirements. The
//! offline front-ends — [`BatchSampler::run`], [`Scheduler::run`] and
//! [`crate::registry::RegistryScheduler::run`] (one core per model on a
//! shared clock) — only feed arrivals and advance the clock; the `sqdmd`
//! daemon steps each model's core once per tick of its serve loop.
//!
//! # Admission policies and backpressure
//!
//! Admission order is decided by a sealed, deterministic [`Policy`] trait
//! — the serving core never special-cases a policy. The
//! [`AdmissionPolicy`] enum is the serializable selector over the eight
//! built-in implementations: FIFO, shortest-budget-first, the
//! gang-scheduling baseline, tenant fair share, static [`ServeRequest`]
//! priority, budget-aware preemption (which *parks* an in-flight stream —
//! state frozen bit-for-bit — and resumes it at a later boundary), an
//! energy budget, and an occupancy band (which parks as well). The
//! pending queue can be bounded with a [`QueueBound`] whose
//! [`BackpressurePolicy`] either rejects the newcomer or sheds the oldest
//! / largest-budget queued request. Every run records per-request
//! queueing delay and latency, per-round batch occupancy, queue depth,
//! and wall-clock, plus shed/reject ids and preemption counts, into a
//! serializable [`ServeStats`].
//!
//! The determinism contract extends unchanged: admission timing only
//! decides *which* rounds a stream shares with whom, never the arithmetic
//! inside its own stripe, so any request's output is bitwise identical to
//! a solo [`crate::sample`] run regardless of who shares its batch.

use crate::cost::{CostEstimate, CostModel, CostModelConfig};
use crate::denoiser::Denoiser;
use crate::error::{EdmError, Result};
use crate::model::{ActEvent, RunConfig, UNet, UNetConfig};
use serde::{Deserialize, Serialize};
use sqdm_nn::PackCache;
use sqdm_quant::PrecisionAssignment;
use sqdm_sparsity::{channel_sparsity, ChangeMask, TemporalTrace};
use sqdm_tensor::{arena, Rng, Tensor};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Identifies the tenant (customer, workload class) a request belongs to.
/// Tenancy is a pure scheduling attribute: it decides admission order under
/// [`AdmissionPolicy::FairShare`] and how [`ServeStats`] roll up, never the
/// arithmetic of any stream.
pub type TenantId = u32;

/// One queued generation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeRequest {
    /// Caller-chosen identifier, echoed in the matching [`ServedOutput`].
    pub id: u64,
    /// Seed of the request's private noise stream. A request's result
    /// depends only on `(seed, steps)` — never on its batch neighbors.
    pub seed: u64,
    /// Sigma-grid points for this request (model evaluations ≈ 2·steps−1);
    /// must be at least 2 (the Karras grid needs two endpoints). Requests
    /// in one batch may use different budgets; streams simply retire early
    /// and the batch shrinks.
    pub steps: usize,
    /// The submitting tenant (0 when unspecified). Only admission order and
    /// stat rollups look at it.
    pub tenant: TenantId,
    /// Static priority (0 when unspecified, higher is more urgent). Only
    /// [`AdmissionPolicy::Priority`] looks at it; like tenancy it is a pure
    /// scheduling attribute and never touches stream arithmetic.
    pub priority: u32,
}

impl ServeRequest {
    /// A request with the given id and step budget, seeding the noise
    /// stream from the id. Refine with the builder methods:
    /// `ServeRequest::new(id, steps).tenant(t).priority(p).seed(s)`.
    pub fn new(id: u64, steps: usize) -> Self {
        ServeRequest {
            id,
            seed: id,
            steps,
            tenant: 0,
            priority: 0,
        }
    }

    /// This request tagged with a tenant.
    #[must_use]
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// This request with a static priority (higher is more urgent).
    #[must_use]
    pub fn priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// This request with an explicit noise seed (instead of seed = id).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A finished generation plus its per-stream temporal-sparsity record.
#[derive(Debug, Clone)]
pub struct ServedOutput {
    /// The request identifier.
    pub id: u64,
    /// The generated image, `[1, C, S, S]`.
    pub image: Tensor,
    /// The step budget the request ran with.
    pub steps: usize,
    /// Per-(block, stage) activation-sparsity traces recorded at each of
    /// this stream's denoising steps (first Heun evaluation per step).
    traces: BTreeMap<(usize, usize), TemporalTrace>,
}

impl ServedOutput {
    /// The temporal trace of one observed `(block, stage)` activation, or
    /// `None` when tracing was disabled or the block was not observed.
    pub fn trace(&self, block: usize, stage: usize) -> Option<&TemporalTrace> {
        self.traces.get(&(block, stage))
    }

    /// The `(block, stage)` keys with recorded traces, in order.
    pub fn traced_keys(&self) -> Vec<(usize, usize)> {
        self.traces.keys().copied().collect()
    }

    /// This stream's change mask for one observed activation at `step`: the
    /// channels whose sparsity moved more than `tol` since the stream's
    /// previous denoising step (step 0 is always fully dense).
    pub fn change_mask(
        &self,
        block: usize,
        stage: usize,
        step: usize,
        tol: f64,
    ) -> Option<ChangeMask> {
        self.trace(block, stage).map(|t| t.change_mask(step, tol))
    }
}

/// Builds the concatenated per-stream reduction-row mask for the batched
/// sparse-delta GEMM (`sqdm_tensor::ops::int::qgemm_delta_multi`): stream
/// `s`'s channel mask at `step` is expanded to `rows_per_channel`
/// consecutive reduction rows (`kh · kw` for a convolution lowered by
/// im2col) and streams are laid out back to back — `mask[s · k + r]`.
///
/// Returns `None` if any stream lacks a trace for `(block, stage)` or has
/// not reached `step`.
pub fn delta_row_masks(
    outputs: &[ServedOutput],
    block: usize,
    stage: usize,
    step: usize,
    tol: f64,
    rows_per_channel: usize,
) -> Option<Vec<bool>> {
    let mut mask = Vec::new();
    for out in outputs {
        let trace = out.trace(block, stage)?;
        if step >= trace.steps() {
            return None;
        }
        mask.extend(trace.change_mask(step, tol).expand_rows(rows_per_channel));
    }
    Some(mask)
}

/// Packs concurrent denoising requests into batched Heun steps.
#[derive(Debug, Clone, Copy)]
pub struct BatchSampler {
    /// The preconditioned denoiser driving every stream.
    pub den: Denoiser,
    /// Record per-stream [`TemporalTrace`]s during serving (adds one
    /// observer pass per step; disable for pure-throughput serving).
    pub record_traces: bool,
}

/// One admitted request stream: its denoising state plus the admission
/// metadata its [`RequestStats`] record is built from.
struct Stream {
    scheduled: ScheduledRequest,
    /// The owning [`ServeCore`]'s submission index; also the stream's key
    /// in the admission engine's park and resume decisions.
    submit_index: usize,
    /// Boundary at which the stream was admitted.
    admitted_step: usize,
    /// Boundary of the stream's most recent park.
    parked_at: usize,
    /// Steps spent parked so far.
    parked_steps: usize,
    /// This stream's sigma grid, `steps + 1` points ending at 0.
    grid: Vec<f32>,
    /// Next step index; the stream retires at `cursor == steps`.
    cursor: usize,
    /// Current state, `[1, C, S, S]`.
    x: Tensor,
    traces: BTreeMap<(usize, usize), TemporalTrace>,
}

impl Stream {
    /// Denoise steps still owed before the stream retires.
    fn remaining(&self) -> usize {
        self.scheduled.request.steps - self.cursor
    }

    /// The stream's timing record, had it retired at `completed_step`.
    fn record(&self, completed_step: usize) -> RequestStats {
        let (arrival, admitted) = (self.scheduled.arrival_step, self.admitted_step);
        RequestStats {
            id: self.scheduled.request.id,
            tenant: self.scheduled.request.tenant,
            arrival_step: arrival,
            admitted_step: admitted,
            completed_step,
            queue_delay: admitted - arrival,
            steps_in_batch: completed_step - admitted - self.parked_steps,
            parked_steps: self.parked_steps,
            latency: completed_step - arrival,
        }
    }

    /// Consumes a retired stream into its served output.
    fn into_output(self) -> ServedOutput {
        ServedOutput {
            id: self.scheduled.request.id,
            image: self.x,
            steps: self.scheduled.request.steps,
            traces: self.traces,
        }
    }
}

impl BatchSampler {
    /// Creates a batch sampler with per-stream trace recording enabled.
    pub fn new(den: Denoiser) -> Self {
        BatchSampler {
            den,
            record_traces: true,
        }
    }

    /// This sampler with trace recording switched on or off.
    pub fn with_traces(mut self, record: bool) -> Self {
        self.record_traces = record;
        self
    }

    /// Serves a batch of requests to completion and returns one output per
    /// request, in request order.
    ///
    /// Each sampler round advances every in-flight stream by one Heun step
    /// with **one** batched denoiser evaluation (plus one batched
    /// correction evaluation for the streams not on their final step).
    /// Streams that exhaust their step budget retire and the packed batch
    /// shrinks. See the module docs for the determinism contract.
    ///
    /// # Errors
    ///
    /// Returns [`EdmError::Config`] for duplicate request ids or a step
    /// budget below 2, and propagates model errors.
    pub fn run(
        &self,
        net: &mut UNet,
        requests: &[ServeRequest],
        assignment: Option<&PrecisionAssignment>,
    ) -> Result<Vec<ServedOutput>> {
        let packs = PackCache::new();
        self.run_with_packs(net, requests, assignment, &packs)
    }

    /// [`BatchSampler::run`] against a caller-owned [`PackCache`]: every
    /// layer's quantization artifact is fetched from (or built once into)
    /// `packs`, so a resident model serving many batches over its lifetime
    /// never rebuilds a weight pack. Bitwise identical to
    /// [`BatchSampler::run`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`BatchSampler::run`].
    pub fn run_with_packs(
        &self,
        net: &mut UNet,
        requests: &[ServeRequest],
        assignment: Option<&PrecisionAssignment>,
        packs: &PackCache,
    ) -> Result<Vec<ServedOutput>> {
        // A static batch is continuous batching with everyone present at
        // step 0 and room for all of them.
        let sched = Scheduler {
            sampler: *self,
            max_batch: requests.len().max(1),
            ..Scheduler::new(self.den, 1)
        };
        let requests: Vec<_> = requests
            .iter()
            .map(|&r| ScheduledRequest::new(r, 0))
            .collect();
        Ok(sched.run_with_packs(net, &requests, assignment, packs)?.0)
    }

    /// Initializes one admitted stream and draws the request's private
    /// initial noise. The state depends only on `(seed, steps)`, never on
    /// *when* the stream is admitted, which is what lets streams be created
    /// lazily at admission without perturbing results. The budget was
    /// checked by [`validate_request`] at submission.
    fn make_stream(
        &self,
        mcfg: &UNetConfig,
        scheduled: ScheduledRequest,
        submit_index: usize,
        clock: usize,
    ) -> Stream {
        let req = scheduled.request;
        let s = mcfg.image_size;
        let grid = self.den.schedule.sigma_steps(req.steps);
        let mut rng = Rng::seed_from(req.seed);
        let x = Tensor::randn([1, mcfg.in_channels, s, s], &mut rng).scale(grid[0]);
        Stream {
            scheduled,
            submit_index,
            admitted_step: clock,
            parked_at: 0,
            parked_steps: 0,
            grid,
            cursor: 0,
            x,
            traces: BTreeMap::new(),
        }
    }

    /// Advances every stream in `streams` by one Heun step with one batched
    /// denoiser evaluation (plus one batched correction evaluation for the
    /// streams not on their final step). The batch composition may differ
    /// on every call — streams join and retire between rounds — and each
    /// stream's arithmetic is independent of its neighbors, so any
    /// composition produces the solo-`sample()` bits.
    fn round(
        &self,
        net: &mut UNet,
        streams: &mut [Stream],
        assignment: Option<&PrecisionAssignment>,
        packs: &PackCache,
    ) -> Result<()> {
        let dims = streams[0].x.dims();
        let (c, s) = (dims[1], dims[2]);
        let chw = c * s * s;
        let a = streams.len();
        // Pack the in-flight states into one [A, C, S, S] batch; every
        // stream contributes its own sigma, so streams at different
        // noise steps share the forward.
        let mut packed = arena::take::<f32>(a * chw);
        for st in streams.iter() {
            packed.extend_from_slice(st.x.as_slice());
        }
        let packed = Tensor::from_vec(packed, [a, c, s, s])?;
        let mut sigmas = arena::take::<f32>(a);
        sigmas.extend(streams.iter().map(|st| st.grid[st.cursor]));
        let d0 = {
            let record = self.record_traces;
            let mut obs = |ev: ActEvent<'_>| {
                record_event(streams, &ev);
            };
            let mut rc = RunConfig {
                train: false,
                assignment,
                observer: if record { Some(&mut obs) } else { None },
                batched: true,
                packs: Some(packs),
                delta: None,
            };
            self.den.denoise(net, &packed, &sigmas, &mut rc)?
        };
        arena::recycle(sigmas);
        // First-order (Euler) update per stream, exactly the arithmetic of
        // `crate::sample` on this stream's state. Midpoints and slopes land
        // in pooled flat buffers (slot-major) instead of per-stream
        // tensors, so the round's spine stays allocation-free; the values
        // pass through unchanged, which preserves the bitwise contract.
        let mut nexts = arena::take_zeroed::<f32>(a * chw);
        let mut slopes = arena::take_zeroed::<f32>(a * chw);
        for (slot, st) in streams.iter().enumerate() {
            let (sig, sig_next) = (st.grid[st.cursor], st.grid[st.cursor + 1]);
            let d0_i = d0.batch_sample(slot)?;
            let slope = st.x.sub(&d0_i)?.scale(1.0 / sig);
            let mut x_next = st.x.clone();
            x_next.add_scaled(&slope, sig_next - sig)?;
            nexts[slot * chw..(slot + 1) * chw].copy_from_slice(x_next.as_slice());
            slopes[slot * chw..(slot + 1) * chw].copy_from_slice(slope.as_slice());
        }
        // Heun correction, batched over the streams whose next sigma is
        // nonzero (a stream's final step is first-order, as in
        // `crate::sample`).
        let mut corr = arena::take::<usize>(a);
        corr.extend((0..a).filter(|&slot| {
            let st = &streams[slot];
            st.grid[st.cursor + 1] > 0.0
        }));
        if !corr.is_empty() {
            let mut packed_next = arena::take::<f32>(corr.len() * chw);
            let mut sig_nexts = arena::take::<f32>(corr.len());
            for &slot in corr.iter() {
                packed_next.extend_from_slice(&nexts[slot * chw..(slot + 1) * chw]);
                let st = &streams[slot];
                sig_nexts.push(st.grid[st.cursor + 1]);
            }
            let packed_next = Tensor::from_vec(packed_next, [corr.len(), c, s, s])?;
            let d1 = {
                let mut rc = RunConfig {
                    train: false,
                    assignment,
                    observer: None,
                    batched: true,
                    packs: Some(packs),
                    delta: None,
                };
                self.den.denoise(net, &packed_next, &sig_nexts, &mut rc)?
            };
            arena::recycle(sig_nexts);
            for (cslot, &slot) in corr.iter().enumerate() {
                let st = &streams[slot];
                let (sig, sig_next) = (st.grid[st.cursor], st.grid[st.cursor + 1]);
                let d1_i = d1.batch_sample(cslot)?;
                let x_next = tensor_from(&nexts[slot * chw..(slot + 1) * chw], [1, c, s, s])?;
                let slope = tensor_from(&slopes[slot * chw..(slot + 1) * chw], [1, c, s, s])?;
                let slope2 = x_next.sub(&d1_i)?.scale(1.0 / sig_next);
                let mut avg = slope;
                avg.add_scaled(&slope2, 1.0)?;
                let mut corrected = st.x.clone();
                corrected.add_scaled(&avg, 0.5 * (sig_next - sig))?;
                nexts[slot * chw..(slot + 1) * chw].copy_from_slice(corrected.as_slice());
            }
        }
        arena::recycle(corr);
        for (slot, st) in streams.iter_mut().enumerate() {
            st.x.as_mut_slice()
                .copy_from_slice(&nexts[slot * chw..(slot + 1) * chw]);
            st.cursor += 1;
        }
        arena::recycle(nexts);
        arena::recycle(slopes);
        Ok(())
    }
}

/// A `[1, C, S, S]` tensor holding a copy of `data`, drawn from the pool.
fn tensor_from(data: &[f32], dims: [usize; 4]) -> Result<Tensor> {
    let mut buf = arena::take::<f32>(data.len());
    buf.extend_from_slice(data);
    Ok(Tensor::from_vec(buf, dims)?)
}

/// Rejects duplicate request ids up front: a duplicate would make
/// [`ServedOutput`] lookup by id ambiguous, so serving refuses the batch
/// at entry instead of silently returning two outputs under one id.
fn validate_unique_ids(ids: impl Iterator<Item = u64>) -> Result<()> {
    let mut seen = BTreeSet::new();
    for id in ids {
        if !seen.insert(id) {
            return Err(EdmError::Config {
                reason: format!("duplicate request id {id}"),
            });
        }
    }
    Ok(())
}

/// Rejects a request every serving surface would refuse: the Karras grid
/// needs at least two sigma points, so the step budget must be at least 2.
fn validate_request(req: &ServeRequest) -> Result<()> {
    if req.steps < 2 {
        return Err(EdmError::Config {
            reason: format!(
                "request {} has step budget {}; at least 2 required",
                req.id, req.steps
            ),
        });
    }
    Ok(())
}

/// A [`ServeRequest`] annotated with its arrival time on the scheduler's
/// virtual clock (one tick per outer denoise round).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledRequest {
    /// The generation request itself.
    pub request: ServeRequest,
    /// Virtual step at which the request becomes visible to the scheduler.
    /// Requests arriving mid-round wait for the next step boundary, which
    /// is exactly when continuous batching re-packs the in-flight batch.
    pub arrival_step: usize,
}

impl ScheduledRequest {
    /// Wraps a request with an arrival step.
    pub fn new(request: ServeRequest, arrival_step: usize) -> Self {
        ScheduledRequest {
            request,
            arrival_step,
        }
    }

    /// A request with the given id and step budget (seed = id, as in
    /// [`ServeRequest::new`]) arriving at `arrival_step`.
    pub fn at(id: u64, steps: usize, arrival_step: usize) -> Self {
        ScheduledRequest::new(ServeRequest::new(id, steps), arrival_step)
    }
}

/// One admissible unit of work at a step boundary: either a queued request
/// that has arrived, or a parked stream eligible to resume. Candidates are
/// presented to [`Policy::admit`] pre-sorted in canonical arrival order
/// `(arrival_step, submit_index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The request id.
    pub id: u64,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Static priority carried on the request (higher is more urgent).
    pub priority: u32,
    /// Virtual step at which the request arrived.
    pub arrival_step: usize,
    /// Submission index: a total order over every request of one run.
    pub submit_index: usize,
    /// Denoise steps still owed: the full budget for a fresh request, the
    /// frozen remainder for a parked stream.
    pub remaining: usize,
    /// True when this candidate is a parked stream resuming (its state is
    /// already allocated; admitting it creates no new stream).
    pub parked: bool,
}

/// A stream currently in flight, as [`Policy::admit`] sees it. Positions
/// in the [`AdmitCtx::inflight`] slice are the handles park decisions use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InflightInfo {
    /// The request id.
    pub id: u64,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Static priority carried on the request.
    pub priority: u32,
    /// Denoise steps still owed before the stream retires.
    pub remaining: usize,
}

/// Everything a [`Policy`] may observe at one step boundary. Deliberately
/// *no* wall-clock access: admission must be a pure function of the
/// virtual schedule state (plus the policy's own deterministic state) so
/// every run stays bitwise reproducible at any thread count.
#[derive(Debug)]
pub struct AdmitCtx<'a> {
    /// Admissible candidates, in canonical `(arrival_step, submit_index)`
    /// order.
    pub candidates: &'a [Candidate],
    /// The in-flight batch, oldest stream first.
    pub inflight: &'a [InflightInfo],
    /// Free in-flight slots before any parking:
    /// `max_batch - inflight.len()`.
    pub capacity: usize,
    /// The in-flight batch capacity.
    pub max_batch: usize,
    /// The virtual clock (outer denoise rounds since the run began).
    pub clock: usize,
    /// Requests known to arrive strictly after `clock` — lets a gang-style
    /// policy decide whether waiting could ever assemble a fuller batch.
    pub pending_future: usize,
    /// Per-candidate cost estimates, parallel to
    /// [`AdmitCtx::candidates`], supplied by the engine's
    /// [`crate::cost::CostModel`]. All-zero under the default
    /// [`crate::cost::NoopCostModel`]; pre-existing policies ignore this
    /// slice entirely, which is what keeps their decisions bitwise
    /// unchanged by the cost layer.
    pub costs: &'a [CostEstimate],
    /// Per-stream cost estimates, parallel to [`AdmitCtx::inflight`].
    pub inflight_costs: &'a [CostEstimate],
}

mod sealed {
    /// Seals [`super::Policy`]: admission decisions feed the bitwise
    /// determinism contract, so the set of implementations is closed to
    /// this crate.
    pub trait Sealed {}
}

/// What a [`Policy`] decided at one step boundary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdmitDecision {
    /// Indices into [`AdmitCtx::candidates`] to admit, in admission order.
    pub admit: Vec<usize>,
    /// Positions into [`AdmitCtx::inflight`] to park. A parked stream
    /// keeps its state bit-for-bit and re-enters the candidate set at the
    /// next boundary with its remaining budget frozen.
    pub park: Vec<usize>,
}

/// A deterministic admission policy (sealed).
///
/// [`Policy::admit`] runs at every step boundary. It must be a pure
/// function of the [`AdmitCtx`] and the policy's own state — no wall
/// clock, no ambient randomness — which is what keeps serving bitwise
/// reproducible under any `SQDM_THREADS`. Obtain implementations via
/// [`AdmissionPolicy::into_policy`]; the scheduler core dispatches through
/// this trait alone, so new policies never edit the serve loop.
pub trait Policy: sealed::Sealed + std::fmt::Debug + Send {
    /// Chooses which candidates join (and which in-flight streams leave)
    /// the batch at this boundary.
    fn admit(&mut self, ctx: &AdmitCtx<'_>) -> AdmitDecision;
}

/// First come, first served (see [`AdmissionPolicy::Fifo`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoPolicy;

impl sealed::Sealed for FifoPolicy {}
impl Policy for FifoPolicy {
    fn admit(&mut self, ctx: &AdmitCtx<'_>) -> AdmitDecision {
        AdmitDecision {
            admit: (0..ctx.candidates.len().min(ctx.capacity)).collect(),
            park: Vec::new(),
        }
    }
}

/// Shortest budget first (see [`AdmissionPolicy::ShortestBudgetFirst`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestBudgetFirstPolicy;

impl sealed::Sealed for ShortestBudgetFirstPolicy {}
impl Policy for ShortestBudgetFirstPolicy {
    fn admit(&mut self, ctx: &AdmitCtx<'_>) -> AdmitDecision {
        let mut order: Vec<usize> = (0..ctx.candidates.len()).collect();
        order.sort_by_key(|&i| {
            let c = &ctx.candidates[i];
            (c.remaining, c.arrival_step, c.submit_index)
        });
        order.truncate(ctx.capacity);
        AdmitDecision {
            admit: order,
            park: Vec::new(),
        }
    }
}

/// Gang scheduling, the static-batching baseline (see
/// [`AdmissionPolicy::Gang`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct GangPolicy;

impl sealed::Sealed for GangPolicy {}
impl Policy for GangPolicy {
    fn admit(&mut self, ctx: &AdmitCtx<'_>) -> AdmitDecision {
        let drained = ctx.inflight.is_empty();
        let ready = ctx.candidates.len() >= ctx.max_batch
            || (ctx.pending_future == 0 && !ctx.candidates.is_empty());
        if drained && ready {
            AdmitDecision {
                admit: (0..ctx.candidates.len().min(ctx.max_batch)).collect(),
                park: Vec::new(),
            }
        } else {
            AdmitDecision::default()
        }
    }
}

/// Deterministic round-robin fair share across tenants (see
/// [`AdmissionPolicy::FairShare`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct FairSharePolicy {
    /// The tenant id after the last one served, so the next boundary
    /// resumes the cycle instead of restarting at the smallest tenant.
    resume: TenantId,
}

impl sealed::Sealed for FairSharePolicy {}
impl Policy for FairSharePolicy {
    fn admit(&mut self, ctx: &AdmitCtx<'_>) -> AdmitDecision {
        let cands = ctx.candidates;
        if cands.is_empty() || ctx.capacity == 0 {
            return AdmitDecision::default();
        }
        // Tenant-major, FIFO within tenant.
        let mut order: Vec<usize> = (0..cands.len()).collect();
        order.sort_by_key(|&i| {
            (
                cands[i].tenant,
                cands[i].arrival_step,
                cands[i].submit_index,
            )
        });
        // Per-tenant queues over the sorted order: (tenant, start, len,
        // taken).
        let mut queues: Vec<(TenantId, usize, usize, usize)> = Vec::new();
        for (pos, &i) in order.iter().enumerate() {
            let t = cands[i].tenant;
            match queues.last_mut() {
                Some(q) if q.0 == t => q.2 += 1,
                _ => queues.push((t, pos, 1, 0)),
            }
        }
        // Start the cycle at the first tenant at or after the resume
        // point, wrapping.
        let start = queues
            .iter()
            .position(|q| q.0 >= self.resume)
            .unwrap_or(0usize);
        let mut admit = Vec::with_capacity(ctx.capacity.min(cands.len()));
        let mut qi = start;
        let mut exhausted = 0usize;
        let nq = queues.len();
        while admit.len() < ctx.capacity && exhausted < nq {
            let q = &mut queues[qi % nq];
            if q.3 < q.2 {
                admit.push(order[q.1 + q.3]);
                q.3 += 1;
                self.resume = q.0.wrapping_add(1);
                exhausted = 0;
            } else {
                exhausted += 1;
            }
            qi += 1;
        }
        AdmitDecision {
            admit,
            park: Vec::new(),
        }
    }
}

/// Queued steps after which the [`PriorityPolicy`] boosts a waiting
/// candidate's effective priority by one class. Bounds priority-inversion
/// starvation: a low-priority request flooded by an endless stream of
/// high-priority work gains one class per `PRIORITY_AGE_STEPS` spent
/// queued, so it eventually outranks fresh arrivals of any static class.
pub const PRIORITY_AGE_STEPS: usize = 8;

/// Static priority admission with aging (see
/// [`AdmissionPolicy::Priority`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityPolicy;

impl sealed::Sealed for PriorityPolicy {}
impl Policy for PriorityPolicy {
    fn admit(&mut self, ctx: &AdmitCtx<'_>) -> AdmitDecision {
        let mut order: Vec<usize> = (0..ctx.candidates.len()).collect();
        order.sort_by_key(|&i| {
            let c = &ctx.candidates[i];
            // Effective priority = static class + one boost per
            // PRIORITY_AGE_STEPS queued. Pure function of the virtual
            // clock, so decisions stay deterministic.
            let age = ctx.clock.saturating_sub(c.arrival_step);
            let effective = u64::from(c.priority) + (age / PRIORITY_AGE_STEPS) as u64;
            (Reverse(effective), c.arrival_step, c.submit_index)
        });
        order.truncate(ctx.capacity);
        AdmitDecision {
            admit: order,
            park: Vec::new(),
        }
    }
}

/// Budget-aware preemption (see [`AdmissionPolicy::Preempt`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PreemptPolicy;

impl sealed::Sealed for PreemptPolicy {}
impl Policy for PreemptPolicy {
    fn admit(&mut self, ctx: &AdmitCtx<'_>) -> AdmitDecision {
        // Shortest remaining budget first over fresh and parked work alike.
        let mut order: Vec<usize> = (0..ctx.candidates.len()).collect();
        order.sort_by_key(|&i| {
            let c = &ctx.candidates[i];
            (c.remaining, c.arrival_step, c.submit_index)
        });
        let mut decision = AdmitDecision::default();
        let mut next = 0usize;
        while next < order.len() && decision.admit.len() < ctx.capacity {
            decision.admit.push(order[next]);
            next += 1;
        }
        // Free slots exhausted: park in-flight streams with strictly more
        // remaining work than the best waiting candidate, longest first.
        // Strict inequality is what prevents ping-pong — a parked stream's
        // remainder is frozen while running streams only shrink, so any
        // pair can swap at most once.
        let mut victims: Vec<usize> = (0..ctx.inflight.len()).collect();
        victims.sort_by_key(|&p| Reverse((ctx.inflight[p].remaining, p)));
        let mut vi = 0usize;
        while next < order.len() && vi < victims.len() {
            let cand = &ctx.candidates[order[next]];
            if ctx.inflight[victims[vi]].remaining > cand.remaining {
                decision.park.push(victims[vi]);
                decision.admit.push(order[next]);
                next += 1;
                vi += 1;
            } else {
                break;
            }
        }
        decision
    }
}

/// Energy-budgeted admission (see [`AdmissionPolicy::EnergyCapped`]).
///
/// Tracks simulated energy *committed* per window of the virtual clock:
/// admitting a candidate charges its whole remaining trajectory
/// (`per-round estimate × remaining steps`) against the window's budget,
/// and admission stops once the budget is exhausted — deferred candidates
/// simply stay queued until a fresh window opens. Never parks.
#[derive(Debug, Clone, Copy)]
pub struct EnergyCappedPolicy {
    budget_pj: u64,
    window: u32,
    /// Window index (`clock / window`) the running total belongs to.
    window_id: usize,
    /// Simulated energy committed in the current window, pJ.
    committed_pj: f64,
}

impl EnergyCappedPolicy {
    fn new(budget_pj: u64, window: u32) -> Self {
        EnergyCappedPolicy {
            budget_pj,
            window: window.max(1),
            window_id: 0,
            committed_pj: 0.0,
        }
    }
}

impl sealed::Sealed for EnergyCappedPolicy {}
impl Policy for EnergyCappedPolicy {
    fn admit(&mut self, ctx: &AdmitCtx<'_>) -> AdmitDecision {
        let wid = ctx.clock / self.window as usize;
        if wid != self.window_id {
            self.window_id = wid;
            self.committed_pj = 0.0;
        }
        let budget = self.budget_pj as f64;
        let mut admit = Vec::new();
        for i in 0..ctx.candidates.len().min(ctx.capacity) {
            let c = &ctx.candidates[i];
            let cost = ctx
                .costs
                .get(i)
                .map_or(0.0, |e| e.round_energy_pj * c.remaining as f64);
            let within = self.committed_pj + cost <= budget;
            // The stall guard: with nothing in flight the first candidate
            // is admitted even over budget — otherwise a budget smaller
            // than one trajectory would wedge the queue forever.
            if within || (ctx.inflight.is_empty() && admit.is_empty()) {
                self.committed_pj += cost;
                admit.push(i);
            } else {
                break;
            }
        }
        AdmitDecision {
            admit,
            park: Vec::new(),
        }
    }
}

/// Occupancy-band admission (see [`AdmissionPolicy::OccupancyTarget`]).
///
/// Packs the batch toward a target PE-utilisation band `[lo, hi]` (as
/// fractions of the provisioned array, from the configured percentages):
/// candidates are admitted FIFO while the projected occupancy — in-flight
/// shares plus admitted shares — stays at or below `hi`, and in-flight
/// streams are parked (newest first, always keeping one) while their
/// occupancy alone exceeds `hi`. With zero-cost estimates (the no-op
/// model) projections are always zero and the policy degrades to FIFO.
#[derive(Debug, Clone, Copy)]
pub struct OccupancyTargetPolicy {
    lo: f64,
    hi: f64,
}

impl OccupancyTargetPolicy {
    fn new(lo_pct: u8, hi_pct: u8) -> Self {
        let lo = f64::from(lo_pct.min(100)) / 100.0;
        let hi = (f64::from(hi_pct.min(100)) / 100.0).max(lo);
        OccupancyTargetPolicy { lo, hi }
    }
}

impl sealed::Sealed for OccupancyTargetPolicy {}
impl Policy for OccupancyTargetPolicy {
    fn admit(&mut self, ctx: &AdmitCtx<'_>) -> AdmitDecision {
        let mut occupied: f64 = ctx.inflight_costs.iter().map(|e| e.occupancy_share).sum();
        let mut decision = AdmitDecision::default();
        // Over the band on in-flight work alone: shed load by parking the
        // newest streams until back inside, always keeping one running.
        let mut parked_share = 0.0;
        if occupied > self.hi {
            for p in (1..ctx.inflight.len()).rev() {
                if occupied - parked_share <= self.hi {
                    break;
                }
                parked_share += ctx.inflight_costs.get(p).map_or(0.0, |e| e.occupancy_share);
                decision.park.push(p);
            }
        }
        occupied -= parked_share;
        for i in 0..ctx.candidates.len().min(ctx.capacity + decision.park.len()) {
            let share = ctx.costs.get(i).map_or(0.0, |e| e.occupancy_share);
            let fits = occupied + share <= self.hi || occupied < self.lo;
            if fits || (ctx.inflight.len() == decision.park.len() && decision.admit.is_empty()) {
                occupied += share;
                decision.admit.push(i);
            } else {
                break;
            }
        }
        // Parking only to shrink the batch with nothing to admit is pure
        // churn at this boundary — but unlike the engine's own sanitizer
        // we keep it, because the engine clears parks when nothing is
        // admitted anyway.
        decision
    }
}

/// Order in which queued requests are admitted at a step boundary.
///
/// This enum is the serializable, copyable *selector*; the scheduler core
/// dispatches through the sealed [`Policy`] trait that
/// [`AdmissionPolicy::into_policy`] constructs, so the enum is purely a
/// convenience shim for configuration surfaces (wire, benches, tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// First come, first served: arrived requests are admitted in
    /// `(arrival_step, submission order)` order whenever the in-flight
    /// batch has capacity. The continuous-batching default.
    Fifo,
    /// Shortest budget first: among the arrived requests, the smallest
    /// step budget is admitted first (ties broken FIFO). Trades worst-case
    /// fairness for lower mean latency under mixed budgets.
    ShortestBudgetFirst,
    /// Gang scheduling, the static-batching baseline: nothing is admitted
    /// until the in-flight batch has fully drained **and** `max_batch`
    /// requests have arrived (or no further arrivals are pending, which
    /// flushes a partial final gang). Exists so benches and tests can
    /// measure what continuous admission buys; real serving wants
    /// [`AdmissionPolicy::Fifo`] or
    /// [`AdmissionPolicy::ShortestBudgetFirst`].
    Gang,
    /// Deterministic round-robin fair share across tenants: at each step
    /// boundary the arrived requests are grouped by [`TenantId`] (FIFO
    /// within a tenant) and admission cycles through the tenants in
    /// ascending id order, one request per tenant per turn, resuming after
    /// the last tenant served at the previous boundary. A tenant flooding
    /// the queue therefore gets at most its per-cycle share while sparse
    /// tenants are never starved. Fully deterministic: admission order is a
    /// function of the request set alone.
    FairShare,
    /// Static priority: the highest [`ServeRequest::priority`] among the
    /// arrived requests is admitted first (ties broken FIFO). Priorities
    /// are pure scheduling metadata — arithmetic never sees them.
    Priority,
    /// Budget-aware preemption (shortest remaining processing time): the
    /// smallest remaining budget — fresh or parked — is admitted first,
    /// and when the batch is full an in-flight stream with strictly more
    /// remaining work is **parked** to make room. A parked stream keeps
    /// its state bit-for-bit (its remaining budget frozen) and resumes at
    /// a later boundary producing exactly the solo-`sample()` bits, so
    /// preemption is invisible to the determinism contract.
    Preempt,
    /// Energy-budgeted admission: each window of `window` virtual steps
    /// may *commit* at most `budget_pj` picojoules of simulated energy
    /// (per-round estimate × remaining steps, from the engine's
    /// [`crate::cost::CostModel`]). Once the window's budget is spent,
    /// further candidates stay queued until the next window. Never parks
    /// and always admits at least one candidate when nothing is in
    /// flight, so it is deadlock-free. With the no-op
    /// cost model every estimate is zero and this degrades to
    /// [`AdmissionPolicy::Fifo`].
    EnergyCapped {
        /// Simulated energy budget per window, pJ.
        budget_pj: u64,
        /// Window length in virtual steps (0 is treated as 1).
        window: u32,
    },
    /// Occupancy-band admission: packs the batch toward a PE-utilisation
    /// band `[lo_pct, hi_pct]`% of the provisioned array, admitting while
    /// the projected occupancy stays inside the band and parking the
    /// newest in-flight streams while it overshoots. With the no-op cost
    /// model projections are all zero and this degrades to
    /// [`AdmissionPolicy::Fifo`].
    OccupancyTarget {
        /// Lower edge of the target band, percent (clamped to 100).
        lo_pct: u8,
        /// Upper edge of the target band, percent (clamped to 100, raised
        /// to `lo_pct` if below it).
        hi_pct: u8,
    },
}

impl AdmissionPolicy {
    /// The boxed [`Policy`] implementation for this selector — how every
    /// serving core builds its policy state.
    pub fn into_policy(self) -> Box<dyn Policy> {
        match self {
            AdmissionPolicy::Fifo => Box::new(FifoPolicy),
            AdmissionPolicy::ShortestBudgetFirst => Box::new(ShortestBudgetFirstPolicy),
            AdmissionPolicy::Gang => Box::new(GangPolicy),
            AdmissionPolicy::FairShare => Box::new(FairSharePolicy::default()),
            AdmissionPolicy::Priority => Box::new(PriorityPolicy),
            AdmissionPolicy::Preempt => Box::new(PreemptPolicy),
            AdmissionPolicy::EnergyCapped { budget_pj, window } => {
                Box::new(EnergyCappedPolicy::new(budget_pj, window))
            }
            AdmissionPolicy::OccupancyTarget { lo_pct, hi_pct } => {
                Box::new(OccupancyTargetPolicy::new(lo_pct, hi_pct))
            }
        }
    }
}

/// What happens to the overflow when a request lands on a full pending
/// queue (see [`QueueBound`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackpressurePolicy {
    /// Refuse the newcomer: the scheduler records its id in
    /// [`ServeStats::rejected_ids`] and serves no output for it; the
    /// daemon surfaces this as [`EdmError::Overloaded`] (HTTP 429).
    Reject,
    /// Shed the oldest queued request — smallest
    /// `(arrival_step, submission index)` — and queue the newcomer.
    ShedOldest,
    /// Shed the largest step budget among the queue and the newcomer (ties
    /// shed the newest arrival, so the earliest submission of a tied
    /// budget survives). The newcomer itself is shed when it carries the
    /// largest budget.
    ShedLargestBudget,
}

/// A bound on the scheduler's pending queue: at most `capacity` requests
/// may wait for admission; `policy` decides what happens to the overflow.
/// Arrivals are bounded *before* the boundary's admission runs, so a full
/// queue sheds or rejects a newcomer even if admission would free a slot
/// at the same tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueBound {
    /// Maximum number of queued (arrived but not yet admitted) requests.
    pub capacity: usize,
    /// What to do with the overflow.
    pub policy: BackpressurePolicy,
}

/// Outcome of offering one arrival to the [`AdmissionEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backpressure {
    /// Queued (or no bound configured).
    Accepted,
    /// The newcomer was refused; carries its id.
    Rejected(u64),
    /// A request (possibly the newcomer itself) was shed to make room;
    /// carries the victim's id.
    Shed {
        /// The shed request's id.
        id: u64,
    },
}

/// A queued, in-flight or parked stream as the [`AdmissionEngine`] sees
/// it. Its submission index doubles as the stream's key in park and
/// resume decisions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamRef {
    pub(crate) scheduled: ScheduledRequest,
    pub(crate) submit_index: usize,
    /// Denoise steps still owed: the whole budget while queued, frozen
    /// while parked.
    pub(crate) remaining: usize,
}

impl StreamRef {
    /// This stream as an admission candidate.
    fn candidate(&self, parked: bool) -> Candidate {
        let req = &self.scheduled.request;
        Candidate {
            id: req.id,
            tenant: req.tenant,
            priority: req.priority,
            arrival_step: self.scheduled.arrival_step,
            submit_index: self.submit_index,
            remaining: self.remaining,
            parked,
        }
    }
}

/// One admission decided by [`AdmissionEngine::boundary`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Admitted {
    /// A fresh request: the caller creates its stream now.
    Fresh {
        scheduled: ScheduledRequest,
        submit_index: usize,
    },
    /// The parked stream with this submission index resumes bit-for-bit
    /// where it left off.
    Resumed { submit_index: usize },
}

/// What one step boundary decided.
#[derive(Debug, Default)]
pub(crate) struct BoundaryActions {
    /// Submission indices of the streams to remove from the in-flight set
    /// (state kept; the engine re-offers them as parked candidates at
    /// later boundaries).
    pub(crate) park: Vec<usize>,
    /// Admissions, in admission order.
    pub(crate) admit: Vec<Admitted>,
}

/// The one shared admission path: a bounded pending queue (backpressure on
/// arrival) feeding a [`Policy`] (admission and preemption at step
/// boundaries), driven by [`ServeCore`].
#[derive(Debug)]
pub(crate) struct AdmissionEngine {
    policy: Box<dyn Policy>,
    bound: Option<QueueBound>,
    /// The cost model supplying per-candidate estimates at boundaries and
    /// accounting executed rounds ([`NoopCostModel`](crate::cost) unless
    /// configured otherwise).
    cost: Box<dyn CostModel>,
    /// Arrived, not yet admitted.
    queue: Vec<StreamRef>,
    /// Preempted streams waiting to resume; their state stays in the
    /// caller's storage.
    parked: Vec<StreamRef>,
}

impl AdmissionEngine {
    /// An engine whose boundaries see estimates from `cost`, built for a
    /// deployment provisioned with `provisioned` batch slots. Passing
    /// [`CostModelConfig::Noop`] yields a cost-blind engine whose policies
    /// behave exactly as they did before costs existed.
    pub(crate) fn with_cost(
        policy: AdmissionPolicy,
        bound: Option<QueueBound>,
        cost: CostModelConfig,
        provisioned: usize,
    ) -> Self {
        AdmissionEngine {
            policy: policy.into_policy(),
            bound,
            cost: cost.into_cost_model(provisioned),
            queue: Vec::new(),
            parked: Vec::new(),
        }
    }

    /// Accounts one executed round over `batch` streams through the cost
    /// model; returns the round's simulated `(energy_pj, occupancy)`.
    pub(crate) fn round_accounting(&mut self, batch: usize) -> (f64, f64) {
        self.cost.round_accounting(batch)
    }

    /// Requests currently waiting for admission.
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// True while any queued or parked work remains.
    pub(crate) fn has_work(&self) -> bool {
        !self.queue.is_empty() || !self.parked.is_empty()
    }

    /// Offers one arrival to the bounded queue.
    pub(crate) fn enqueue(
        &mut self,
        scheduled: ScheduledRequest,
        submit_index: usize,
    ) -> Backpressure {
        let newcomer = StreamRef {
            scheduled,
            submit_index,
            remaining: scheduled.request.steps,
        };
        let full = |b: &QueueBound| self.queue.len() >= b.capacity;
        let Some(bound) = self.bound.filter(full) else {
            self.queue.push(newcomer);
            return Backpressure::Accepted;
        };
        // The victim's queue position; `None` sheds the newcomer itself.
        let victim = match bound.policy {
            BackpressurePolicy::Reject => return Backpressure::Rejected(scheduled.request.id),
            // Smallest `(arrival_step, submission index)`; a zero-capacity
            // queue can only shed the newcomer.
            BackpressurePolicy::ShedOldest => self
                .queue
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| (r.scheduled.arrival_step, r.submit_index))
                .map(|(pos, _)| pos),
            // Largest `(steps, arrival_step, submission index)` loses: the
            // biggest budget is shed, ties shed the newest.
            BackpressurePolicy::ShedLargestBudget => {
                let key = |r: &StreamRef| {
                    let s = &r.scheduled;
                    (s.request.steps, s.arrival_step, r.submit_index)
                };
                self.queue
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, r)| key(r))
                    .filter(|(_, r)| key(r) > key(&newcomer))
                    .map(|(pos, _)| pos)
            }
        };
        let shed = match victim {
            None => newcomer,
            Some(pos) => {
                let shed = self.queue.remove(pos);
                self.queue.push(newcomer);
                shed
            }
        };
        Backpressure::Shed {
            id: shed.scheduled.request.id,
        }
    }

    /// Runs the policy at one step boundary. `inflight` carries one entry
    /// per in-flight stream, oldest first; the returned actions tell the
    /// caller which streams (by submission index) to park and what to
    /// admit, in order.
    pub(crate) fn boundary(
        &mut self,
        inflight: &[StreamRef],
        max_batch: usize,
        clock: usize,
        pending_future: usize,
    ) -> BoundaryActions {
        if self.queue.is_empty() && self.parked.is_empty() {
            return BoundaryActions::default();
        }
        // The candidate set: queued arrivals and parked streams, merged in
        // canonical arrival order.
        let mut candidates: Vec<Candidate> = self
            .queue
            .iter()
            .map(|r| r.candidate(false))
            .chain(self.parked.iter().map(|r| r.candidate(true)))
            .collect();
        candidates.sort_by_key(|c| (c.arrival_step, c.submit_index));
        let infos: Vec<InflightInfo> = inflight
            .iter()
            .map(|r| InflightInfo {
                id: r.scheduled.request.id,
                tenant: r.scheduled.request.tenant,
                priority: r.scheduled.request.priority,
                remaining: r.remaining,
            })
            .collect();
        let costs: Vec<CostEstimate> = candidates
            .iter()
            .map(|c| self.cost.stream_cost(c.remaining))
            .collect();
        let inflight_costs: Vec<CostEstimate> = infos
            .iter()
            .map(|s| self.cost.stream_cost(s.remaining))
            .collect();
        let ctx = AdmitCtx {
            candidates: &candidates,
            inflight: &infos,
            capacity: max_batch.saturating_sub(inflight.len()),
            max_batch,
            clock,
            pending_future,
            costs: &costs,
            inflight_costs: &inflight_costs,
        };
        let decision = self.policy.admit(&ctx);

        // Sanitize the decision: drop out-of-range handles, dedup, and cap
        // admissions to what parking actually frees. A policy bug degrades
        // to a smaller admission, never to a corrupted batch.
        let mut park: Vec<usize> = Vec::new();
        for &p in &decision.park {
            if p < inflight.len() && !park.contains(&p) {
                park.push(p);
            }
        }
        let mut admit: Vec<usize> = Vec::new();
        for &a in &decision.admit {
            if a < candidates.len() && !admit.contains(&a) {
                admit.push(a);
            }
        }
        let allowed = max_batch.saturating_sub(inflight.len() - park.len());
        admit.truncate(allowed);
        if admit.is_empty() {
            park.clear();
        }

        // Admissions come out of the queue and the parked set as they were
        // before this boundary's parks, so a stream parked here cannot
        // resume here too.
        let mut actions = BoundaryActions::default();
        for &a in &admit {
            let c = candidates[a];
            let source = if c.parked {
                &mut self.parked
            } else {
                &mut self.queue
            };
            let pos = source
                .iter()
                .position(|r| r.submit_index == c.submit_index)
                .expect("every candidate comes from the queue or the parked set");
            let r = source.remove(pos);
            actions.admit.push(if c.parked {
                Admitted::Resumed {
                    submit_index: r.submit_index,
                }
            } else {
                Admitted::Fresh {
                    scheduled: r.scheduled,
                    submit_index: r.submit_index,
                }
            });
        }
        for &p in &park {
            actions.park.push(inflight[p].submit_index);
            self.parked.push(inflight[p]);
        }
        actions
    }
}

/// Per-request timing record, in virtual steps (see [`ServeStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestStats {
    /// The request identifier.
    pub id: u64,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// When the request arrived.
    pub arrival_step: usize,
    /// Boundary at which it was admitted into the in-flight batch.
    pub admitted_step: usize,
    /// Boundary at which its stream retired (its output became final).
    pub completed_step: usize,
    /// Steps spent queued: `admitted_step - arrival_step`.
    pub queue_delay: usize,
    /// Steps spent actually denoising in the batch:
    /// `completed_step - admitted_step - parked_steps`; equals the
    /// request's step budget (a stream never stalls while in flight).
    pub steps_in_batch: usize,
    /// Steps spent parked by a preempting policy between admission and
    /// completion (0 under non-preempting policies). The latency identity
    /// is `latency == queue_delay + steps_in_batch + parked_steps`.
    pub parked_steps: usize,
    /// End-to-end latency: `completed_step - arrival_step`.
    pub latency: usize,
}

/// Serializable record of one [`Scheduler::run`]: per-request queueing
/// delay / time-in-batch / latency on the virtual clock, plus per-round
/// batch occupancy and wall-clock step latency.
///
/// The virtual clock counts outer denoise rounds: every batched Heun round
/// advances it by one, and an idle scheduler (nothing in flight, next
/// arrival in the future) jumps forward without spending rounds — so
/// `rounds <= final_step`, with equality when the system never idles.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Batched Heun rounds executed.
    pub rounds: usize,
    /// Virtual clock when the last stream retired.
    pub final_step: usize,
    /// In-flight batch size at each executed round.
    pub batch_occupancy: Vec<usize>,
    /// Pending-queue depth after admission at each executed round — the
    /// timeline backpressure tuning reads.
    pub queue_depth: Vec<usize>,
    /// Wall-clock nanoseconds spent in each executed round.
    pub step_latency_ns: Vec<u64>,
    /// Simulated accelerator energy of each executed round, pJ, from the
    /// scheduler's [`crate::cost::CostModel`] (all zeros under the
    /// default no-op model).
    pub round_energy_pj: Vec<f64>,
    /// Simulated PE-array occupancy of each executed round, `0.0..=1.0`
    /// (all zeros under the default no-op model).
    pub round_occupancy: Vec<f64>,
    /// Ids refused by [`BackpressurePolicy::Reject`], in arrival order.
    pub rejected_ids: Vec<u64>,
    /// Ids shed by a shedding backpressure policy, in shed order.
    pub shed_ids: Vec<u64>,
    /// Streams parked by a preempting admission policy over the run.
    pub preemptions: usize,
    /// One record per **completed** request, in submission order (shed and
    /// rejected requests appear only in the id lists above).
    pub requests: Vec<RequestStats>,
}

impl ServeStats {
    /// The stats record for one request id.
    pub fn request(&self, id: u64) -> Option<&RequestStats> {
        self.requests.iter().find(|r| r.id == id)
    }

    /// Mean end-to-end latency in virtual steps (`NaN` for an empty run).
    pub fn mean_latency(&self) -> f64 {
        mean(self.requests.iter().map(|r| r.latency as f64))
    }

    /// Mean queueing delay in virtual steps (`NaN` for an empty run).
    pub fn mean_queue_delay(&self) -> f64 {
        mean(self.requests.iter().map(|r| r.queue_delay as f64))
    }

    /// Mean in-flight batch size over executed rounds (`NaN` if none ran).
    pub fn mean_batch_occupancy(&self) -> f64 {
        mean(self.batch_occupancy.iter().map(|&o| o as f64))
    }

    /// Mean wall-clock nanoseconds per round (`NaN` if none ran).
    pub fn mean_step_latency_ns(&self) -> f64 {
        mean(self.step_latency_ns.iter().map(|&n| n as f64))
    }

    /// Largest pending-queue depth over executed rounds (0 if none ran).
    pub fn max_queue_depth(&self) -> usize {
        self.queue_depth.iter().copied().max().unwrap_or(0)
    }

    /// Mean pending-queue depth over executed rounds (`NaN` if none ran).
    pub fn mean_queue_depth(&self) -> f64 {
        mean(self.queue_depth.iter().map(|&d| d as f64))
    }

    /// Completed requests per virtual step (`NaN` for an empty run) — the
    /// throughput side of each scenario's throughput-vs-latency row.
    pub fn throughput_per_step(&self) -> f64 {
        if self.final_step == 0 {
            return f64::NAN;
        }
        self.requests.len() as f64 / self.final_step as f64
    }

    /// Nearest-rank percentile of per-request end-to-end latency, in
    /// virtual steps: the smallest recorded latency `v` such that at least
    /// `pct`% of requests finished in `v` steps or fewer (rank
    /// `ceil(pct/100 · n)`, clamped to `1..=n`). Deterministic — a pure
    /// function of the recorded latencies, independent of request order.
    /// Returns `None` when no requests were recorded.
    pub fn latency_percentile(&self, pct: f64) -> Option<usize> {
        let mut latencies: Vec<usize> = self.requests.iter().map(|r| r.latency).collect();
        if latencies.is_empty() {
            return None;
        }
        latencies.sort_unstable();
        let n = latencies.len();
        let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        Some(latencies[rank - 1])
    }

    /// Median (nearest-rank p50) end-to-end latency in virtual steps.
    pub fn p50_latency(&self) -> Option<usize> {
        self.latency_percentile(50.0)
    }

    /// Nearest-rank p95 end-to-end latency in virtual steps.
    pub fn p95_latency(&self) -> Option<usize> {
        self.latency_percentile(95.0)
    }

    /// Nearest-rank p99 end-to-end latency in virtual steps.
    pub fn p99_latency(&self) -> Option<usize> {
        self.latency_percentile(99.0)
    }

    /// Total simulated energy across executed rounds, pJ (0.0 when no
    /// rounds ran or no cost model was configured).
    pub fn total_energy_pj(&self) -> f64 {
        self.round_energy_pj.iter().sum()
    }

    /// Simulated energy per completed image, pJ (`NaN` for an empty run).
    pub fn energy_per_image_pj(&self) -> f64 {
        if self.requests.is_empty() {
            return f64::NAN;
        }
        self.total_energy_pj() / self.requests.len() as f64
    }

    /// Mean simulated PE occupancy over executed rounds (`NaN` if none
    /// ran). Never below the smallest round's occupancy nor above
    /// [`ServeStats::peak_occupancy`], even where the f64 sum rounds.
    pub fn mean_occupancy(&self) -> f64 {
        mean(self.round_occupancy.iter().copied())
    }

    /// Peak simulated PE occupancy over executed rounds (0.0 if none
    /// ran).
    pub fn peak_occupancy(&self) -> f64 {
        self.round_occupancy.iter().copied().fold(0.0, f64::max)
    }

    /// Per-tenant rollups of the request records, ascending by tenant id.
    pub fn tenant_rollups(&self) -> Vec<TenantRollup> {
        let mut by_tenant: BTreeMap<TenantId, Vec<&RequestStats>> = BTreeMap::new();
        for r in &self.requests {
            by_tenant.entry(r.tenant).or_default().push(r);
        }
        by_tenant
            .into_iter()
            .map(|(tenant, rs)| TenantRollup {
                tenant,
                requests: rs.len(),
                total_steps: rs.iter().map(|r| r.steps_in_batch).sum(),
                mean_latency: mean(rs.iter().map(|r| r.latency as f64)),
                mean_queue_delay: mean(rs.iter().map(|r| r.queue_delay as f64)),
            })
            .collect()
    }

    /// The rollup for one tenant, or `None` if it submitted nothing.
    pub fn tenant(&self, tenant: TenantId) -> Option<TenantRollup> {
        self.tenant_rollups()
            .into_iter()
            .find(|t| t.tenant == tenant)
    }
}

/// Per-tenant aggregate of one serving run (see
/// [`ServeStats::tenant_rollups`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantRollup {
    /// The tenant.
    pub tenant: TenantId,
    /// Requests this tenant completed.
    pub requests: usize,
    /// Total denoise steps executed for the tenant (its compute share).
    pub total_steps: usize,
    /// Mean end-to-end latency of the tenant's requests, virtual steps.
    pub mean_latency: f64,
    /// Mean queueing delay of the tenant's requests, virtual steps.
    pub mean_queue_delay: f64,
}

/// Mean of an iterator, `NaN` when empty (mirrors the empty-run sentinel
/// convention of `sqdm_accel`'s `RunStats` ratios). The result always lies
/// in `min..=max` of the values averaged.
///
/// The bound needs the clamp only for fractional inputs: the running f64
/// sum of repeated non-integers can round upward (seven copies of
/// `0.4987012987012987` average one ulp above the value itself), which
/// would put [`ServeStats::mean_occupancy`] above
/// [`ServeStats::peak_occupancy`]. The integer-valued aggregates —
/// [`ServeStats::mean_latency`], [`ServeStats::mean_queue_delay`],
/// [`ServeStats::mean_batch_occupancy`], [`ServeStats::mean_queue_depth`],
/// [`ServeStats::mean_step_latency_ns`] and the [`TenantRollup`] means —
/// sum exactly below 2^53, so one correctly rounded division already lands
/// in range and the clamp never changes them.
fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for v in values {
        sum += v;
        n += 1;
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if lo > hi {
        // Empty, or every value NaN (min/max skip NaN): `clamp` would panic.
        f64::NAN
    } else {
        (sum / n as f64).clamp(lo, hi)
    }
}

/// A request that finished denoising, as [`ServeCore::step`] hands it to
/// its driver.
pub(crate) struct Retired {
    /// The core's submission index of the request (its n-th `submit`).
    pub(crate) submit_index: usize,
    /// The request's timing record.
    pub(crate) record: RequestStats,
    /// The generated image and its traces.
    pub(crate) output: ServedOutput,
}

/// One model's continuous-batching state, advanced one step boundary at a
/// time: the [`BatchSampler`], the admission engine, the admitted streams
/// with their per-request metadata, and the [`ServeStats`]. The offline
/// front-ends drive it through [`serve_offline`], the daemon one tick at a
/// time, so parking works the same under every driver.
pub(crate) struct ServeCore {
    sampler: BatchSampler,
    max_batch: usize,
    engine: AdmissionEngine,
    /// In-flight streams, oldest admission first.
    inflight: Vec<Stream>,
    /// Streams a preempting policy parked, their state frozen.
    parked: Vec<Stream>,
    /// Requests submitted so far (the next submission index).
    submitted: usize,
    /// Step budgets submitted so far: a bound on the rounds the core runs.
    budget: usize,
    stats: ServeStats,
}

impl ServeCore {
    /// An idle core whose engine runs `policy` over a pending queue
    /// bounded by `bound`, priced by `cost`, with at most `max_batch`
    /// streams in flight.
    pub(crate) fn new(
        sampler: BatchSampler,
        policy: AdmissionPolicy,
        bound: Option<QueueBound>,
        cost: CostModelConfig,
        max_batch: usize,
    ) -> Self {
        ServeCore {
            sampler,
            max_batch,
            engine: AdmissionEngine::with_cost(policy, bound, cost, max_batch),
            inflight: Vec::new(),
            parked: Vec::new(),
            submitted: 0,
            budget: 0,
            stats: ServeStats::default(),
        }
    }

    /// Offers one arrival to the bounded pending queue. Shed and rejected
    /// ids are recorded in the stats as well as returned.
    ///
    /// # Errors
    ///
    /// Returns [`EdmError::Config`] for a step budget below 2; the request
    /// then takes no submission index.
    pub(crate) fn submit(&mut self, scheduled: ScheduledRequest) -> Result<Backpressure> {
        validate_request(&scheduled.request)?;
        let verdict = self.engine.enqueue(scheduled, self.submitted);
        self.submitted += 1;
        match verdict {
            Backpressure::Accepted => {}
            Backpressure::Rejected(id) => self.stats.rejected_ids.push(id),
            Backpressure::Shed { id } => self.stats.shed_ids.push(id),
        }
        // Rounds never outnumber the submitted step budgets, so reserving
        // the per-round timelines here keeps rounds free of amortized
        // growth (the zero-allocation gate measures exactly this).
        self.budget += scheduled.request.steps;
        let more = self.budget - self.stats.rounds;
        let s = &mut self.stats;
        s.batch_occupancy.reserve(more);
        s.queue_depth.reserve(more);
        s.step_latency_ns.reserve(more);
        s.round_energy_pj.reserve(more);
        s.round_occupancy.reserve(more);
        Ok(verdict)
    }

    /// One step boundary at `clock`, then — when anything is in flight —
    /// one batched Heun round, its accounting, and the retirement of the
    /// streams that exhausted their budget; each retiree goes to
    /// `on_retire`, completed at `clock + 1`. `pending_future` counts the
    /// requests known to arrive after `clock` (see
    /// [`AdmitCtx::pending_future`]). Returns whether a round ran.
    ///
    /// # Errors
    ///
    /// Propagates model errors from the round. The in-flight streams stay
    /// in place, with no round recorded, for the driver to drop (see
    /// [`ServeCore::fail_inflight`]).
    pub(crate) fn step(
        &mut self,
        clock: usize,
        pending_future: usize,
        net: &mut UNet,
        assignment: Option<&PrecisionAssignment>,
        packs: &PackCache,
        mut on_retire: impl FnMut(Retired),
    ) -> Result<bool> {
        if self.engine.has_work() {
            self.admit(clock, pending_future, net.config());
        }
        if self.inflight.is_empty() {
            return Ok(false);
        }
        let t0 = Instant::now();
        self.sampler
            .round(net, &mut self.inflight, assignment, packs)?;
        let batch = self.inflight.len();
        let s = &mut self.stats;
        s.step_latency_ns.push(t0.elapsed().as_nanos() as u64);
        s.batch_occupancy.push(batch);
        s.queue_depth.push(self.engine.queue_len());
        let (round_pj, round_occ) = self.engine.round_accounting(batch);
        s.round_energy_pj.push(round_pj);
        s.round_occupancy.push(round_occ);
        s.rounds += 1;
        // Retire exhausted streams; the packed batch shrinks here and
        // refills at the next boundary's admission.
        for stream in self.inflight.extract_if(.., |s| s.remaining() == 0) {
            let record = stream.record(clock + 1);
            self.stats.requests.push(record);
            on_retire(Retired {
                submit_index: stream.submit_index,
                record,
                output: stream.into_output(),
            });
        }
        Ok(true)
    }

    /// Runs the admission policy at one boundary: parks the in-flight
    /// streams it preempts and admits queued or parked work.
    fn admit(&mut self, clock: usize, pending_future: usize, mcfg: &UNetConfig) {
        let inflight: Vec<StreamRef> = self
            .inflight
            .iter()
            .map(|s| StreamRef {
                scheduled: s.scheduled,
                submit_index: s.submit_index,
                remaining: s.remaining(),
            })
            .collect();
        let actions = self
            .engine
            .boundary(&inflight, self.max_batch, clock, pending_future);
        for key in actions.park {
            let mut stream = take_stream(&mut self.inflight, key);
            stream.parked_at = clock;
            self.parked.push(stream);
            self.stats.preemptions += 1;
        }
        for admitted in actions.admit {
            let stream = match admitted {
                Admitted::Fresh {
                    scheduled,
                    submit_index,
                } => self
                    .sampler
                    .make_stream(mcfg, scheduled, submit_index, clock),
                Admitted::Resumed { submit_index } => {
                    let mut stream = take_stream(&mut self.parked, submit_index);
                    stream.parked_steps += clock - stream.parked_at;
                    stream
                }
            };
            self.inflight.push(stream);
        }
    }

    /// No request is queued, parked or in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.inflight.is_empty() && !self.engine.has_work()
    }

    /// Requests waiting in the pending queue.
    pub(crate) fn queue_len(&self) -> usize {
        self.engine.queue_len()
    }

    /// Requests accepted and not yet retired: queued, parked or in flight.
    pub(crate) fn active(&self) -> usize {
        self.engine.queue_len() + self.parked.len() + self.inflight.len()
    }

    /// Ids of the in-flight requests, oldest admission first.
    pub(crate) fn inflight_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.inflight.iter().map(|s| s.scheduled.request.id)
    }

    /// Drops every in-flight stream after a failed round and reports each
    /// dropped id; queued and parked work stays.
    pub(crate) fn fail_inflight(&mut self, mut on_fail: impl FnMut(u64)) {
        for stream in self.inflight.drain(..) {
            on_fail(stream.scheduled.request.id);
        }
    }

    /// The stats recorded so far; request records are appended at
    /// retirement.
    pub(crate) fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Consumes the core into its stats.
    pub(crate) fn into_stats(self) -> ServeStats {
        self.stats
    }
}

/// Removes the stream keyed `submit_index` from `streams`, keeping the
/// order of the rest. The engine only parks keys it was shown in flight and
/// only resumes keys it parked, so a miss is a broken invariant.
fn take_stream(streams: &mut Vec<Stream>, submit_index: usize) -> Stream {
    let pos = streams
        .iter()
        .position(|s| s.submit_index == submit_index)
        .expect("admission engine and stream storage agree on stream keys");
    streams.remove(pos)
}

/// The model side of one [`ServeCore::step`]: the network, its precision
/// assignment, and its pack cache.
pub(crate) type ModelParts<'a> = (&'a mut UNet, Option<&'a PrecisionAssignment>, &'a PackCache);

/// Serves `requests` — `(core, request)` pairs; core `c` rounds with
/// `models[c]` — on one shared virtual clock and returns per request its
/// [`Retired`] record (`None` if shed or rejected) plus the final clock.
/// At every boundary each core takes its arrivals, in canonical
/// `(arrival_step, submission)` order, and steps once.
///
/// # Errors
///
/// Returns [`EdmError::Config`] for duplicate ids, a step budget below 2
/// (both before any round runs), or queued work that no policy admits
/// with nothing in flight and nothing arriving; propagates model errors.
pub(crate) fn serve_offline(
    cores: &mut [ServeCore],
    models: &mut [ModelParts<'_>],
    requests: &[(usize, ScheduledRequest)],
) -> Result<(Vec<Option<Retired>>, usize)> {
    validate_unique_ids(requests.iter().map(|(_, r)| r.request.id))?;
    for (_, r) in requests {
        // A malformed request fails the submission, not the batch
        // mid-serve.
        validate_request(&r.request)?;
    }
    // Each core numbers its submissions in the order it receives them, so
    // `order[c][k]` is the request behind core `c`'s submission index `k`.
    let mut order: Vec<Vec<usize>> = vec![Vec::new(); cores.len()];
    for (i, (c, _)) in requests.iter().enumerate() {
        order[*c].push(i);
    }
    for o in &mut order {
        o.sort_by_key(|&i| (requests[i].1.arrival_step, i));
    }
    let next_arrival = |submitted: &[usize]| {
        order
            .iter()
            .zip(submitted)
            .filter_map(|(o, &k)| o.get(k))
            .map(|&i| requests[i].1.arrival_step)
            .min()
    };
    let mut submitted = vec![0usize; cores.len()];
    let mut retired: Vec<Option<Retired>> = (0..requests.len()).map(|_| None).collect();
    let mut clock = 0usize;
    // The arena scope turns every transient buffer the rounds take —
    // activation tensors, im2col scratch, packed states — into pool hits
    // after the first round: the steady state allocates nothing.
    arena::scope(|| -> Result<()> {
        loop {
            let mut ran = false;
            for (c, core) in cores.iter_mut().enumerate() {
                while let Some(&i) = order[c].get(submitted[c]) {
                    if requests[i].1.arrival_step > clock {
                        break;
                    }
                    core.submit(requests[i].1)?;
                    submitted[c] += 1;
                }
                let (net, assignment, packs) = &mut models[c];
                let pending_future = order[c].len() - submitted[c];
                ran |= core.step(clock, pending_future, net, *assignment, packs, |done| {
                    let i = order[c][done.submit_index];
                    retired[i] = Some(done);
                })?;
            }
            if ran {
                clock += 1;
                continue;
            }
            // Nothing in flight anywhere: an idle clock (or a waiting gang)
            // jumps to the next arrival; work no policy admits with nothing
            // else coming would spin forever, so surface the stall instead.
            match next_arrival(&submitted) {
                Some(next) => clock = next,
                None if cores.iter().all(ServeCore::is_idle) => return Ok(()),
                None => {
                    return Err(EdmError::Config {
                        reason: "admission stalled: queued work with no in-flight \
                                 streams and no future arrivals"
                            .into(),
                    })
                }
            }
        }
    })?;
    Ok((retired, clock))
}

/// Continuous-batching front-end over [`BatchSampler`].
///
/// See the module docs for the scheduling model; [`Scheduler::run`] is the
/// entry point.
#[derive(Debug, Clone, Copy)]
pub struct Scheduler {
    /// The batch sampler that executes each packed Heun round.
    pub sampler: BatchSampler,
    /// In-flight batch capacity. `1` degenerates to sequential serving.
    pub max_batch: usize,
    /// Admission order for queued requests.
    pub policy: AdmissionPolicy,
    /// Bound on the pending queue; `None` (the default) queues without
    /// limit and never sheds or rejects.
    pub queue_bound: Option<QueueBound>,
    /// Cost model the run's admission engine prices candidates with
    /// ([`CostModelConfig::Noop`] by default: zero estimates, decisions
    /// bitwise identical to a cost-free build).
    pub cost: CostModelConfig,
}

impl Scheduler {
    /// A FIFO scheduler with the given in-flight capacity, an unbounded
    /// pending queue, no cost model, and per-stream trace recording
    /// enabled.
    pub fn new(den: Denoiser, max_batch: usize) -> Self {
        Scheduler {
            sampler: BatchSampler::new(den),
            max_batch,
            policy: AdmissionPolicy::Fifo,
            queue_bound: None,
            cost: CostModelConfig::Noop,
        }
    }

    /// This scheduler with a different admission policy.
    pub fn with_policy(mut self, policy: AdmissionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// This scheduler with a cost model supplying admission estimates and
    /// per-round energy/occupancy accounting.
    pub fn with_cost_model(mut self, cost: CostModelConfig) -> Self {
        self.cost = cost;
        self
    }

    /// This scheduler with a bounded pending queue.
    pub fn with_queue_bound(mut self, bound: QueueBound) -> Self {
        self.queue_bound = Some(bound);
        self
    }

    /// This scheduler with trace recording switched on or off.
    pub fn with_traces(mut self, record: bool) -> Self {
        self.sampler = self.sampler.with_traces(record);
        self
    }

    /// Serves `requests` to completion under continuous batching and
    /// returns one output per **completed** request (in submission order)
    /// plus the run's [`ServeStats`]. With an unbounded queue (the
    /// default) every request completes; under a [`QueueBound`] the shed
    /// and rejected ids are recorded in the stats instead.
    ///
    /// At every step boundary the scheduler moves arrivals into the
    /// bounded pending queue (each getting a backpressure verdict), lets
    /// the admission [`Policy`] admit queued or parked work and park
    /// in-flight streams (up to [`Scheduler::max_batch`] in flight),
    /// executes one batched Heun round over the in-flight streams, then
    /// retires the streams that exhausted their budget. When nothing is in
    /// flight the clock jumps to the next arrival instead of spinning.
    ///
    /// Every output is bitwise identical to a solo [`crate::sample`] run
    /// for the same `(seed, steps)` — admission timing, neighbors, and
    /// `max_batch` never leak into any stream's arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`EdmError::Config`] for `max_batch == 0`, duplicate
    /// request ids, or a step budget below 2; propagates model errors.
    pub fn run(
        &self,
        net: &mut UNet,
        requests: &[ScheduledRequest],
        assignment: Option<&PrecisionAssignment>,
    ) -> Result<(Vec<ServedOutput>, ServeStats)> {
        let packs = PackCache::new();
        self.run_with_packs(net, requests, assignment, &packs)
    }

    /// [`Scheduler::run`] against a caller-owned [`PackCache`] (see
    /// [`BatchSampler::run_with_packs`]); how a resident model of a
    /// [`crate::registry::ModelRegistry`] serves without ever rebuilding
    /// its weight packs. Bitwise identical to [`Scheduler::run`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Scheduler::run`].
    pub fn run_with_packs(
        &self,
        net: &mut UNet,
        requests: &[ScheduledRequest],
        assignment: Option<&PrecisionAssignment>,
        packs: &PackCache,
    ) -> Result<(Vec<ServedOutput>, ServeStats)> {
        if self.max_batch == 0 {
            return Err(EdmError::Config {
                reason: "scheduler max_batch must be at least 1".into(),
            });
        }
        let mut core = [ServeCore::new(
            self.sampler,
            self.policy,
            self.queue_bound,
            self.cost,
            self.max_batch,
        )];
        let requests: Vec<_> = requests.iter().map(|&r| (0, r)).collect();
        let (retired, clock) =
            serve_offline(&mut core, &mut [(net, assignment, packs)], &requests)?;
        let [core] = core;
        let (records, outputs) = retired
            .into_iter()
            .flatten()
            .map(|r| (r.record, r.output))
            .unzip();
        let stats = ServeStats {
            final_step: clock,
            requests: records,
            ..core.into_stats()
        };
        Ok((outputs, stats))
    }
}

/// Splits a packed activation event per stream and appends one trace step
/// to each stream's `(block, stage)` trace.
fn record_event(streams: &mut [Stream], ev: &ActEvent<'_>) {
    let c = ev.tensor.dims()[1];
    for (slot, st) in streams.iter_mut().enumerate() {
        let sample = ev
            .tensor
            .batch_sample(slot)
            .expect("observed activation is [A, C, H, W]");
        let sparsity = channel_sparsity(&sample);
        st.traces
            .entry((ev.block_index, ev.stage))
            .or_insert_with(|| TemporalTrace::new(c))
            .push_step(sparsity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::UNetConfig;
    use crate::sampler::{sample, SamplerConfig};
    use crate::schedule::EdmSchedule;
    use sqdm_quant::{BlockPrecision, ExecMode, QuantFormat};

    fn fixture() -> (UNet, Denoiser) {
        let mut rng = Rng::seed_from(1);
        let net = UNet::new(UNetConfig::micro(), &mut rng).unwrap();
        (net, Denoiser::new(EdmSchedule::default()))
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn latency_percentiles_use_nearest_rank() {
        let stats_with = |latencies: &[usize]| ServeStats {
            requests: latencies
                .iter()
                .enumerate()
                .map(|(i, &latency)| RequestStats {
                    id: i as u64,
                    tenant: 0,
                    arrival_step: 0,
                    admitted_step: 0,
                    completed_step: latency,
                    queue_delay: 0,
                    steps_in_batch: latency,
                    parked_steps: 0,
                    latency,
                })
                .collect(),
            ..ServeStats::default()
        };

        // Empty run: no percentiles, not a panic or a NaN.
        let empty = ServeStats::default();
        assert_eq!(empty.p50_latency(), None);
        assert_eq!(empty.p95_latency(), None);
        assert_eq!(empty.p99_latency(), None);

        // Single request: every percentile is that request.
        let one = stats_with(&[7]);
        assert_eq!(one.p50_latency(), Some(7));
        assert_eq!(one.p99_latency(), Some(7));

        // Ten requests 1..=10: nearest rank picks ceil(p/100 * 10).
        let ten = stats_with(&[10, 1, 9, 2, 8, 3, 7, 4, 6, 5]);
        assert_eq!(ten.p50_latency(), Some(5));
        assert_eq!(ten.p95_latency(), Some(10));
        assert_eq!(ten.p99_latency(), Some(10));
        assert_eq!(ten.latency_percentile(0.0), Some(1));
        assert_eq!(ten.latency_percentile(100.0), Some(10));
        assert_eq!(ten.latency_percentile(10.0), Some(1));
        assert_eq!(ten.latency_percentile(11.0), Some(2));

        // Order independence: percentiles are a function of the multiset.
        let sorted = stats_with(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        for pct in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
            assert_eq!(
                ten.latency_percentile(pct),
                sorted.latency_percentile(pct),
                "pct {pct}"
            );
        }
    }

    #[test]
    fn serving_is_bitwise_identical_to_individual_sampling() {
        let (mut net, den) = fixture();
        let requests = [
            ServeRequest::new(0, 3).seed(11),
            ServeRequest::new(1, 5).seed(12),
            ServeRequest::new(2, 3).seed(13),
        ];
        let served = BatchSampler::new(den)
            .run(&mut net, &requests, None)
            .unwrap();
        assert_eq!(served.len(), 3);
        for (req, out) in requests.iter().zip(&served) {
            assert_eq!(req.id, out.id);
            let mut rng = Rng::seed_from(req.seed);
            let single = sample(
                &mut net,
                &den,
                1,
                SamplerConfig { steps: req.steps },
                None,
                &mut rng,
            )
            .unwrap();
            assert_eq!(out.image.dims(), single.dims());
            assert_eq!(bits(&out.image), bits(&single), "request {}", req.id);
        }
    }

    #[test]
    fn quantized_serving_matches_individual_sampling_in_both_modes() {
        let (mut net, den) = fixture();
        let base = PrecisionAssignment::uniform(
            crate::model::block_ids::COUNT,
            BlockPrecision::uniform(QuantFormat::int8()),
            "INT8",
        );
        for mode in [ExecMode::FakeQuant, ExecMode::NativeInt] {
            let asg = base.clone().with_mode(mode);
            let requests = [ServeRequest::new(7, 2), ServeRequest::new(8, 4)];
            let served = BatchSampler::new(den)
                .run(&mut net, &requests, Some(&asg))
                .unwrap();
            for (req, out) in requests.iter().zip(&served) {
                let mut rng = Rng::seed_from(req.seed);
                let single = sample(
                    &mut net,
                    &den,
                    1,
                    SamplerConfig { steps: req.steps },
                    Some(&asg),
                    &mut rng,
                )
                .unwrap();
                assert_eq!(
                    bits(&out.image),
                    bits(&single),
                    "{mode:?} request {}",
                    req.id
                );
            }
        }
    }

    #[test]
    fn per_stream_traces_cover_every_step_and_yield_masks() {
        let (mut net, den) = fixture();
        let requests = [ServeRequest::new(1, 4), ServeRequest::new(2, 2)];
        let served = BatchSampler::new(den)
            .run(&mut net, &requests, None)
            .unwrap();
        for (req, out) in requests.iter().zip(&served) {
            let keys = out.traced_keys();
            assert!(!keys.is_empty(), "request {} recorded no traces", req.id);
            for &(b, st) in &keys {
                let trace = out.trace(b, st).unwrap();
                // One trace step per denoising step of *this* stream, even
                // though its batch neighbor ran a different budget.
                assert_eq!(trace.steps(), req.steps, "block {b} stage {st}");
                let m0 = out.change_mask(b, st, 0, 0.05).unwrap();
                assert!(m0.is_fully_dense(), "step 0 must recompute everything");
                assert!(out.change_mask(b, st, req.steps - 1, 0.05).is_some());
            }
        }
        // The per-stream masks assemble into the qgemm_delta_multi layout:
        // streams back to back, channels expanded to reduction rows.
        let (b, st) = served[0].traced_keys()[0];
        let rows = delta_row_masks(&served, b, st, 1, 0.05, 9).unwrap();
        let per: usize = served[0].trace(b, st).unwrap().channels() * 9;
        assert_eq!(rows.len(), served.len() * per);
        // Requesting a step beyond the shortest stream yields None.
        assert!(delta_row_masks(&served, b, st, 3, 0.05, 9).is_none());
    }

    #[test]
    fn trace_recording_can_be_disabled() {
        let (mut net, den) = fixture();
        let out = BatchSampler::new(den)
            .with_traces(false)
            .run(&mut net, &[ServeRequest::new(0, 2)], None)
            .unwrap();
        assert!(out[0].traced_keys().is_empty());
    }

    #[test]
    fn zero_step_requests_are_rejected_and_empty_batches_are_fine() {
        let (mut net, den) = fixture();
        assert!(BatchSampler::new(den)
            .run(&mut net, &[ServeRequest::new(0, 0)], None)
            .is_err());
        assert!(BatchSampler::new(den)
            .run(&mut net, &[], None)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn duplicate_request_ids_are_rejected_at_entry() {
        let (mut net, den) = fixture();
        let dupes = [ServeRequest::new(3, 2), ServeRequest::new(3, 4)];
        let err = BatchSampler::new(den)
            .run(&mut net, &dupes, None)
            .unwrap_err();
        assert!(
            matches!(&err, EdmError::Config { reason } if reason.contains("duplicate")
                && reason.contains('3')),
            "unexpected error {err:?}"
        );
        // Same ids with distinct seeds are still duplicates — lookup by id
        // would be ambiguous either way.
        let sched = [ScheduledRequest::at(9, 2, 0), ScheduledRequest::at(9, 3, 1)];
        let err = Scheduler::new(den, 4)
            .run(&mut net, &sched, None)
            .unwrap_err();
        assert!(matches!(err, EdmError::Config { .. }));
    }

    /// Solo `sample()` references for a set of scheduled requests.
    fn solo_references(
        net: &mut UNet,
        den: &Denoiser,
        requests: &[ScheduledRequest],
    ) -> Vec<Tensor> {
        requests
            .iter()
            .map(|r| {
                let mut rng = Rng::seed_from(r.request.seed);
                sample(
                    net,
                    den,
                    1,
                    SamplerConfig {
                        steps: r.request.steps,
                    },
                    None,
                    &mut rng,
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn continuous_batching_is_bitwise_identical_to_solo_sampling() {
        let (mut net, den) = fixture();
        // Staggered arrivals with mixed budgets: request 2 joins while 0
        // and 1 are mid-flight, 3 arrives after 1 has already retired.
        let requests = [
            ScheduledRequest::at(0, 4, 0),
            ScheduledRequest::at(1, 2, 0),
            ScheduledRequest::at(2, 3, 1),
            ScheduledRequest::at(3, 2, 3),
        ];
        let solo = solo_references(&mut net, &den, &requests);
        let (served, stats) = Scheduler::new(den, 3)
            .run(&mut net, &requests, None)
            .unwrap();
        for ((req, out), single) in requests.iter().zip(&served).zip(&solo) {
            assert_eq!(req.request.id, out.id);
            assert_eq!(bits(&out.image), bits(single), "request {}", out.id);
        }
        // Request 0/1 admitted at 0; 2 at 1 (capacity 3); 3 at 3.
        assert_eq!(stats.request(0).unwrap().admitted_step, 0);
        assert_eq!(stats.request(2).unwrap().admitted_step, 1);
        assert_eq!(stats.request(2).unwrap().queue_delay, 0);
        assert_eq!(stats.request(3).unwrap().latency, 2);
        assert_eq!(stats.rounds, stats.batch_occupancy.len());
        assert_eq!(stats.step_latency_ns.len(), stats.rounds);
        assert!(stats.mean_batch_occupancy() > 1.0);
    }

    #[test]
    fn requests_arriving_after_step_zero_are_served_after_an_idle_jump() {
        // Edge case: *nothing* arrives at step 0 — the virtual clock must
        // jump to the first arrival instead of spinning empty rounds.
        let (mut net, den) = fixture();
        let requests = [ScheduledRequest::at(0, 2, 5), ScheduledRequest::at(1, 2, 7)];
        let solo = solo_references(&mut net, &den, &requests);
        let (served, stats) = Scheduler::new(den, 2)
            .run(&mut net, &requests, None)
            .unwrap();
        for (out, single) in served.iter().zip(&solo) {
            assert_eq!(bits(&out.image), bits(single), "request {}", out.id);
        }
        // No queueing: both admitted the moment they arrive.
        assert_eq!(stats.request(0).unwrap().admitted_step, 5);
        assert_eq!(stats.request(1).unwrap().admitted_step, 7);
        assert_eq!(stats.mean_queue_delay(), 0.0);
        // Rounds executed: steps 5,6 (request 0) and 7,8 (request 1).
        assert_eq!(stats.rounds, 4);
        assert_eq!(stats.final_step, 9);
    }

    #[test]
    fn minimum_budget_request_joining_the_final_boundary_is_exact() {
        // Edge case: a `steps == 2` request joins at the last boundary
        // where the long-running stream is still in flight, so its first
        // round is the neighbor's last.
        let (mut net, den) = fixture();
        let requests = [ScheduledRequest::at(0, 4, 0), ScheduledRequest::at(1, 2, 3)];
        let solo = solo_references(&mut net, &den, &requests);
        let (served, stats) = Scheduler::new(den, 2)
            .run(&mut net, &requests, None)
            .unwrap();
        for (out, single) in served.iter().zip(&solo) {
            assert_eq!(bits(&out.image), bits(single), "request {}", out.id);
        }
        // They overlap exactly at round 3 (occupancy 2), then the short
        // request finishes alone.
        assert_eq!(stats.batch_occupancy, vec![1, 1, 1, 2, 1]);
        assert_eq!(stats.request(1).unwrap().steps_in_batch, 2);
        assert_eq!(stats.final_step, 5);
    }

    #[test]
    fn max_batch_one_degenerates_to_sequential_serving() {
        let (mut net, den) = fixture();
        let requests = [
            ScheduledRequest::at(0, 3, 0),
            ScheduledRequest::at(1, 2, 0),
            ScheduledRequest::at(2, 2, 1),
        ];
        let solo = solo_references(&mut net, &den, &requests);
        let (served, stats) = Scheduler::new(den, 1)
            .run(&mut net, &requests, None)
            .unwrap();
        for (out, single) in served.iter().zip(&solo) {
            assert_eq!(bits(&out.image), bits(single), "request {}", out.id);
        }
        // Strictly one stream in flight at every round, FIFO order.
        assert!(stats.batch_occupancy.iter().all(|&o| o == 1));
        assert_eq!(stats.rounds, 3 + 2 + 2);
        assert_eq!(stats.request(1).unwrap().admitted_step, 3);
        assert_eq!(stats.request(2).unwrap().admitted_step, 5);
        assert!(Scheduler::new(den, 0)
            .run(&mut net, &requests, None)
            .is_err());
    }

    #[test]
    fn shortest_budget_first_reorders_admission() {
        let (mut net, den) = fixture();
        // Capacity 1; both arrive at step 0; SBF admits the short request
        // first even though it was submitted second.
        let requests = [ScheduledRequest::at(0, 4, 0), ScheduledRequest::at(1, 2, 0)];
        let solo = solo_references(&mut net, &den, &requests);
        let sched = Scheduler::new(den, 1).with_policy(AdmissionPolicy::ShortestBudgetFirst);
        let (served, stats) = sched.run(&mut net, &requests, None).unwrap();
        assert_eq!(stats.request(1).unwrap().admitted_step, 0);
        assert_eq!(stats.request(0).unwrap().admitted_step, 2);
        // Reordering is pure scheduling: outputs still match solo runs.
        for (out, single) in served.iter().zip(&solo) {
            assert_eq!(bits(&out.image), bits(single), "request {}", out.id);
        }
    }

    #[test]
    fn gang_scheduling_waits_and_loses_on_mean_latency() {
        let (mut net, den) = fixture();
        // Staggered arrivals: continuous batching admits each request as
        // it lands; the gang baseline makes the first arrival wait for the
        // full batch to assemble.
        let requests = [
            ScheduledRequest::at(0, 3, 0),
            ScheduledRequest::at(1, 3, 2),
            ScheduledRequest::at(2, 3, 6),
        ];
        let solo = solo_references(&mut net, &den, &requests);
        let (cont_out, cont) = Scheduler::new(den, 3)
            .run(&mut net, &requests, None)
            .unwrap();
        let gang_sched = Scheduler::new(den, 3).with_policy(AdmissionPolicy::Gang);
        let (gang_out, gang) = gang_sched.run(&mut net, &requests, None).unwrap();
        // Both admission disciplines are bitwise transparent.
        for ((out, single), gout) in cont_out.iter().zip(&solo).zip(&gang_out) {
            assert_eq!(bits(&out.image), bits(single), "request {}", out.id);
            assert_eq!(bits(&gout.image), bits(single), "gang request {}", gout.id);
        }
        // The gang launches only once all three arrived (step 6).
        assert!(gang.requests.iter().all(|r| r.admitted_step == 6));
        assert_eq!(gang.request(0).unwrap().queue_delay, 6);
        assert_eq!(cont.mean_queue_delay(), 0.0);
        assert!(
            cont.mean_latency() < gang.mean_latency(),
            "continuous {} vs gang {}",
            cont.mean_latency(),
            gang.mean_latency()
        );
        // A partial final gang still flushes: capacity above the request
        // count must not deadlock.
        let (flushed, fstats) = Scheduler::new(den, 8)
            .with_policy(AdmissionPolicy::Gang)
            .run(&mut net, &requests, None)
            .unwrap();
        assert_eq!(flushed.len(), 3);
        // The flush fires once every pending request has arrived.
        assert!(fstats.requests.iter().all(|r| r.admitted_step == 6));
    }

    #[test]
    fn fair_share_cycles_tenants_and_is_deterministic() {
        let (mut net, den) = fixture();
        // Tenant 7 floods the queue at step 0; tenant 2 submits one
        // request. With capacity 2, fair share must give tenant 2 a slot
        // in the first admission cycle instead of serving the flood FIFO.
        let requests = [
            ScheduledRequest::new(ServeRequest::new(0, 2).tenant(7), 0),
            ScheduledRequest::new(ServeRequest::new(1, 2).tenant(7), 0),
            ScheduledRequest::new(ServeRequest::new(2, 2).tenant(7), 0),
            ScheduledRequest::new(ServeRequest::new(3, 2).tenant(2), 0),
        ];
        let solo = solo_references(&mut net, &den, &requests);
        let sched = Scheduler::new(den, 2).with_policy(AdmissionPolicy::FairShare);
        let (served, stats) = sched.run(&mut net, &requests, None).unwrap();
        // First cycle starts at the smallest tenant (2), then tenant 7:
        // request 3 and request 0 admitted at step 0.
        assert_eq!(stats.request(3).unwrap().admitted_step, 0);
        assert_eq!(stats.request(0).unwrap().admitted_step, 0);
        // The remaining flood requests backfill in FIFO order within the
        // tenant.
        assert_eq!(stats.request(1).unwrap().admitted_step, 2);
        assert_eq!(stats.request(2).unwrap().admitted_step, 2);
        // Scheduling never touches arithmetic: still bitwise solo.
        for (out, single) in served.iter().zip(&solo) {
            assert_eq!(bits(&out.image), bits(single), "request {}", out.id);
        }
        // Determinism: the same request set reproduces the same stats.
        let (_, stats2) = sched.run(&mut net, &requests, None).unwrap();
        assert_eq!(stats.requests, stats2.requests);
    }

    #[test]
    fn fair_share_resumes_cycle_across_boundaries() {
        let (mut net, den) = fixture();
        // Three tenants, one request each, capacity 1: the cycle must
        // visit 1, then 2, then 3 across consecutive admission
        // boundaries rather than restarting at tenant 1.
        let requests = [
            ScheduledRequest::new(ServeRequest::new(0, 2).tenant(1), 0),
            ScheduledRequest::new(ServeRequest::new(1, 2).tenant(2), 0),
            ScheduledRequest::new(ServeRequest::new(2, 2).tenant(3), 0),
        ];
        let sched = Scheduler::new(den, 1).with_policy(AdmissionPolicy::FairShare);
        let (_, stats) = sched.run(&mut net, &requests, None).unwrap();
        assert_eq!(stats.request(0).unwrap().admitted_step, 0);
        assert_eq!(stats.request(1).unwrap().admitted_step, 2);
        assert_eq!(stats.request(2).unwrap().admitted_step, 4);
    }

    #[test]
    fn tenant_rollups_aggregate_per_tenant() {
        let (mut net, den) = fixture();
        let requests = [
            ScheduledRequest::new(ServeRequest::new(0, 3).tenant(1), 0),
            ScheduledRequest::new(ServeRequest::new(1, 2).tenant(1), 0),
            ScheduledRequest::new(ServeRequest::new(2, 2).tenant(4), 0),
        ];
        let (_, stats) = Scheduler::new(den, 3)
            .run(&mut net, &requests, None)
            .unwrap();
        let rollups = stats.tenant_rollups();
        assert_eq!(rollups.len(), 2);
        assert_eq!(rollups[0].tenant, 1);
        assert_eq!(rollups[0].requests, 2);
        assert_eq!(rollups[0].total_steps, 5);
        assert_eq!(rollups[1].tenant, 4);
        assert_eq!(rollups[1].requests, 1);
        assert_eq!(stats.tenant(4).unwrap().total_steps, 2);
        assert!(stats.tenant(9).is_none());
    }

    #[test]
    fn pack_cache_reuse_across_runs_builds_packs_once() {
        use sqdm_quant::ExecMode;
        let (mut net, den) = fixture();
        let asg = PrecisionAssignment::uniform(
            crate::model::block_ids::COUNT,
            BlockPrecision::uniform(QuantFormat::int8()),
            "INT8",
        )
        .with_mode(ExecMode::NativeInt);
        let packs = PackCache::new();
        let sampler = BatchSampler::new(den).with_traces(false);
        let reqs = [ServeRequest::new(0, 2), ServeRequest::new(1, 3)];
        let out1 = sampler
            .run_with_packs(&mut net, &reqs, Some(&asg), &packs)
            .unwrap();
        let after_first = packs.builds();
        assert!(after_first > 0, "first run must build the packs");
        let reqs2 = [ServeRequest::new(2, 2), ServeRequest::new(3, 4)];
        let _ = sampler
            .run_with_packs(&mut net, &reqs2, Some(&asg), &packs)
            .unwrap();
        assert_eq!(
            packs.builds(),
            after_first,
            "second run must reuse every pack"
        );
        // And the cached path still serves solo-identical bits.
        let mut rng = Rng::seed_from(0);
        let single = sample(
            &mut net,
            &den,
            1,
            SamplerConfig { steps: 2 },
            Some(&asg),
            &mut rng,
        )
        .unwrap();
        assert_eq!(bits(&out1[0].image), bits(&single));
    }

    #[test]
    fn scheduler_with_simultaneous_arrivals_matches_batch_sampler() {
        // With everyone present at step 0 and capacity for all, the
        // scheduler is exactly `BatchSampler::run` (same rounds, same bits,
        // traces included).
        let (mut net, den) = fixture();
        let plain = [ServeRequest::new(4, 3), ServeRequest::new(5, 2)];
        let batch = BatchSampler::new(den).run(&mut net, &plain, None).unwrap();
        let scheduled: Vec<ScheduledRequest> =
            plain.iter().map(|&r| ScheduledRequest::new(r, 0)).collect();
        let (served, stats) = Scheduler::new(den, 2)
            .run(&mut net, &scheduled, None)
            .unwrap();
        for (a, b) in batch.iter().zip(&served) {
            assert_eq!(bits(&a.image), bits(&b.image));
            assert_eq!(a.traced_keys(), b.traced_keys());
        }
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.batch_occupancy, vec![2, 2, 1]);
    }

    #[test]
    fn serve_stats_serializes_and_empty_means_are_nan() {
        let (mut net, den) = fixture();
        let requests = [ScheduledRequest::at(0, 2, 0)];
        let (_, stats) = Scheduler::new(den, 1)
            .run(&mut net, &requests, None)
            .unwrap();
        assert_eq!(stats.mean_latency(), 2.0);
        assert!(!stats.mean_step_latency_ns().is_nan());
        let empty = ServeStats::default();
        assert!(empty.mean_latency().is_nan());
        assert!(empty.mean_queue_delay().is_nan());
        assert!(empty.mean_batch_occupancy().is_nan());
        assert!(empty.mean_queue_depth().is_nan());
        assert!(empty.throughput_per_step().is_nan());
        assert_eq!(empty.max_queue_depth(), 0);
        assert!(empty.request(0).is_none());
    }

    #[test]
    fn builder_sets_scheduling_attributes() {
        let r = ServeRequest::new(5, 4);
        assert_eq!(
            (r.id, r.seed, r.steps, r.tenant, r.priority),
            (5, 5, 4, 0, 0)
        );
        let r = ServeRequest::new(5, 4).tenant(3).priority(9).seed(77);
        assert_eq!(
            (r.id, r.seed, r.steps, r.tenant, r.priority),
            (5, 77, 4, 3, 9)
        );
    }

    #[test]
    fn priority_policy_admits_high_priority_first() {
        let (mut net, den) = fixture();
        // Capacity 1; everyone arrives at step 0. The prio-9 requests go
        // first (FIFO between them), the prio-0 request last.
        let requests = [
            ScheduledRequest::new(ServeRequest::new(0, 2), 0),
            ScheduledRequest::new(ServeRequest::new(1, 2).priority(9), 0),
            ScheduledRequest::new(ServeRequest::new(2, 2).priority(9), 0),
        ];
        let solo = solo_references(&mut net, &den, &requests);
        let sched = Scheduler::new(den, 1).with_policy(AdmissionPolicy::Priority);
        let (served, stats) = sched.run(&mut net, &requests, None).unwrap();
        assert_eq!(stats.request(1).unwrap().admitted_step, 0);
        assert_eq!(stats.request(2).unwrap().admitted_step, 2);
        assert_eq!(stats.request(0).unwrap().admitted_step, 4);
        // Priority is pure scheduling: outputs still match solo runs.
        for (out, single) in served.iter().zip(&solo) {
            assert_eq!(bits(&out.image), bits(single), "request {}", out.id);
        }
        let (_, stats2) = sched.run(&mut net, &requests, None).unwrap();
        assert_eq!(stats.requests, stats2.requests);
    }

    #[test]
    fn preempt_parks_and_resumes_bitwise_identically() {
        let (mut net, den) = fixture();
        // Capacity 1: the long request is mid-flight when the short one
        // arrives; SRPT parks the long stream, serves the short request,
        // then resumes the long stream bit-for-bit.
        let requests = [ScheduledRequest::at(0, 6, 0), ScheduledRequest::at(1, 2, 1)];
        let solo = solo_references(&mut net, &den, &requests);
        let sched = Scheduler::new(den, 1).with_policy(AdmissionPolicy::Preempt);
        let (served, stats) = sched.run(&mut net, &requests, None).unwrap();
        assert_eq!(stats.preemptions, 1);
        // The short request cut the line entirely.
        let short = stats.request(1).unwrap();
        assert_eq!((short.admitted_step, short.latency), (1, 2));
        // The long request paid exactly the park window, nothing else.
        let long = stats.request(0).unwrap();
        assert_eq!(long.admitted_step, 0);
        assert_eq!(long.parked_steps, 2);
        assert_eq!(long.steps_in_batch, 6);
        assert_eq!(long.completed_step, 8);
        assert_eq!(
            long.latency,
            long.queue_delay + long.steps_in_batch + long.parked_steps
        );
        // Park/resume is invisible to the arithmetic: both outputs are
        // bitwise the solo sample.
        for (out, single) in served.iter().zip(&solo) {
            assert_eq!(bits(&out.image), bits(single), "request {}", out.id);
        }
        let (_, stats2) = sched.run(&mut net, &requests, None).unwrap();
        assert_eq!(stats.requests, stats2.requests);
    }

    #[test]
    fn serve_core_parks_and_resumes_when_stepped_one_arrival_per_tick() {
        use crate::cost::AccelCostModel;
        use sqdm_accel::PowerProfile;

        // The daemon's driving pattern: one submission per boundary, no
        // knowledge of future arrivals, the clock advancing every tick.
        // Long budgets arrive first, so later short ones preempt them.
        let (mut net, den) = fixture();
        let packs = PackCache::new();
        let requests: Vec<ServeRequest> = [6, 5, 2, 3, 2]
            .iter()
            .enumerate()
            .map(|(i, &steps)| ServeRequest::new(i as u64, steps).seed(40 + i as u64))
            .collect();
        let solo: Vec<Tensor> = requests
            .iter()
            .map(|r| {
                let mut rng = Rng::seed_from(r.seed);
                sample(
                    &mut net,
                    &den,
                    1,
                    SamplerConfig { steps: r.steps },
                    None,
                    &mut rng,
                )
                .unwrap()
            })
            .collect();
        let (max_batch, profile) = (2, PowerProfile::Balanced);
        // A band one stream fits and two overshoot, with its low edge above
        // one stream: a second stream is admitted, then parked at the next
        // boundary to make room for the newest arrival.
        let share = AccelCostModel::new(profile, max_batch)
            .stream_cost(1)
            .occupancy_share;
        let pct = (share * 150.0).round().min(100.0) as u8;
        for policy in [
            AdmissionPolicy::Preempt,
            AdmissionPolicy::OccupancyTarget {
                lo_pct: pct,
                hi_pct: pct,
            },
        ] {
            let mut core = ServeCore::new(
                BatchSampler::new(den),
                policy,
                None,
                CostModelConfig::Accel { profile },
                max_batch,
            );
            let mut served = Vec::new();
            let mut clock = 0;
            while clock < requests.len() || !core.is_idle() {
                if let Some(&r) = requests.get(clock) {
                    core.submit(ScheduledRequest::new(r, clock)).unwrap();
                }
                core.step(clock, 0, &mut net, None, &packs, |done| served.push(done))
                    .unwrap();
                clock += 1;
            }
            let stats = core.into_stats();
            assert!(stats.preemptions > 0, "{policy:?} never parked");
            assert_eq!(served.len(), requests.len(), "{policy:?}");
            for done in &served {
                let (r, i) = (done.record, done.submit_index);
                assert_eq!(r.id, requests[i].id);
                assert_eq!(
                    r.latency,
                    r.queue_delay + r.steps_in_batch + r.parked_steps,
                    "{policy:?} request {}",
                    r.id
                );
                assert_eq!(r.steps_in_batch, requests[i].steps);
                assert_eq!(
                    bits(&done.output.image),
                    bits(&solo[i]),
                    "{policy:?} request {}",
                    r.id
                );
            }
            let records: Vec<RequestStats> = served.iter().map(|d| d.record).collect();
            assert_eq!(stats.requests, records);
        }
    }

    #[test]
    fn bounded_queue_rejects_overflow_deterministically() {
        let (mut net, den) = fixture();
        let requests = [
            ScheduledRequest::at(0, 3, 0),
            ScheduledRequest::at(1, 2, 0),
            ScheduledRequest::at(2, 2, 0),
            ScheduledRequest::at(3, 2, 1),
        ];
        let sched = Scheduler::new(den, 1).with_queue_bound(QueueBound {
            capacity: 1,
            policy: BackpressurePolicy::Reject,
        });
        let (served, stats) = sched.run(&mut net, &requests, None).unwrap();
        // Request 0 fills the queue slot; 1 and 2 bounce off it at the
        // same boundary. Request 3 arrives after the queue drained and is
        // accepted.
        assert_eq!(stats.rejected_ids, vec![1, 2]);
        assert!(stats.shed_ids.is_empty());
        assert_eq!(served.iter().map(|o| o.id).collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(stats.requests.len(), 2);
        // Rejected requests produce no stats rows.
        assert!(stats.request(1).is_none());
        // The surviving outputs are still bitwise solo samples.
        let solo = solo_references(&mut net, &den, &requests);
        assert_eq!(bits(&served[0].image), bits(&solo[0]));
        assert_eq!(bits(&served[1].image), bits(&solo[3]));
    }

    #[test]
    fn shed_policies_pick_deterministic_victims() {
        let (mut net, den) = fixture();
        let requests = [
            ScheduledRequest::at(0, 3, 0),
            ScheduledRequest::at(1, 2, 0),
            ScheduledRequest::at(2, 2, 0),
        ];
        // ShedOldest: each newcomer displaces the oldest queued request,
        // so only the last submission survives.
        let sched = Scheduler::new(den, 1).with_queue_bound(QueueBound {
            capacity: 1,
            policy: BackpressurePolicy::ShedOldest,
        });
        let (served, stats) = sched.run(&mut net, &requests, None).unwrap();
        assert_eq!(stats.shed_ids, vec![0, 1]);
        assert_eq!(served.iter().map(|o| o.id).collect::<Vec<_>>(), vec![2]);
        // ShedLargestBudget: the 3-step request is shed for the first
        // 2-step newcomer; the second 2-step newcomer ties and, being
        // newest, is itself shed without entering the queue.
        let sched = Scheduler::new(den, 1).with_queue_bound(QueueBound {
            capacity: 1,
            policy: BackpressurePolicy::ShedLargestBudget,
        });
        let (served, stats) = sched.run(&mut net, &requests, None).unwrap();
        assert_eq!(stats.shed_ids, vec![0, 2]);
        assert_eq!(served.iter().map(|o| o.id).collect::<Vec<_>>(), vec![1]);
        let (_, stats2) = sched.run(&mut net, &requests, None).unwrap();
        assert_eq!(stats.shed_ids, stats2.shed_ids);
    }

    #[test]
    fn queue_depth_timeline_tracks_pending_backlog() {
        let (mut net, den) = fixture();
        let requests = [
            ScheduledRequest::at(0, 2, 0),
            ScheduledRequest::at(1, 2, 0),
            ScheduledRequest::at(2, 2, 0),
        ];
        let (_, stats) = Scheduler::new(den, 1)
            .run(&mut net, &requests, None)
            .unwrap();
        // Capacity 1: two requests wait, then one, then none.
        assert_eq!(stats.queue_depth, vec![2, 2, 1, 1, 0, 0]);
        assert_eq!(stats.max_queue_depth(), 2);
        assert_eq!(stats.mean_queue_depth(), 1.0);
        assert_eq!(stats.throughput_per_step(), 0.5);
    }

    #[test]
    fn priority_aging_prevents_starvation_under_a_flood() {
        let (mut net, den) = fixture();
        // Capacity 1, steps 2: a fresh prio-1 flood request lands every
        // other step, so every boundary sees a higher class waiting.
        // Without aging the prio-0 request would wait out the entire
        // flood; with one boost per PRIORITY_AGE_STEPS queued steps it
        // ties the flood's class at age PRIORITY_AGE_STEPS and wins the
        // tie on arrival order.
        let mut requests = vec![ScheduledRequest::new(ServeRequest::new(0, 2), 0)];
        for i in 0..6u64 {
            requests.push(ScheduledRequest::new(
                ServeRequest::new(i + 1, 2).priority(1),
                2 * i as usize,
            ));
        }
        let solo = solo_references(&mut net, &den, &requests);
        let sched = Scheduler::new(den, 1).with_policy(AdmissionPolicy::Priority);
        let (served, stats) = sched.run(&mut net, &requests, None).unwrap();
        let aged = stats.request(0).unwrap();
        assert_eq!(
            aged.admitted_step, PRIORITY_AGE_STEPS,
            "one age boost must lift the prio-0 request over the flood"
        );
        // Starvation regression guard: the aged request beats the tail of
        // the flood instead of outwaiting all of it.
        let last_flood_admission = (1..=6)
            .map(|id| stats.request(id).unwrap().admitted_step)
            .max()
            .unwrap();
        assert!(
            aged.admitted_step < last_flood_admission,
            "aged request admitted at {} but flood tail at {last_flood_admission}",
            aged.admitted_step
        );
        // Aging is pure scheduling: outputs still match solo runs.
        for (out, single) in served.iter().zip(&solo) {
            assert_eq!(bits(&out.image), bits(single), "request {}", out.id);
        }
        let (_, stats2) = sched.run(&mut net, &requests, None).unwrap();
        assert_eq!(stats.requests, stats2.requests);
    }

    #[test]
    fn cost_aware_policies_degrade_to_fifo_under_the_noop_model() {
        let (mut net, den) = fixture();
        let requests = [
            ScheduledRequest::at(0, 3, 0),
            ScheduledRequest::at(1, 2, 0),
            ScheduledRequest::at(2, 4, 1),
            ScheduledRequest::at(3, 2, 2),
        ];
        let (fifo_out, fifo_stats) = Scheduler::new(den, 2)
            .run(&mut net, &requests, None)
            .unwrap();
        // With zero-cost estimates an energy budget can never be exceeded
        // and an occupancy projection never leaves the band: both new
        // policies must reproduce FIFO's schedule exactly, images and all.
        for policy in [
            AdmissionPolicy::EnergyCapped {
                budget_pj: 1,
                window: 1,
            },
            AdmissionPolicy::OccupancyTarget {
                lo_pct: 20,
                hi_pct: 60,
            },
        ] {
            let (out, stats) = Scheduler::new(den, 2)
                .with_policy(policy)
                .run(&mut net, &requests, None)
                .unwrap();
            assert_eq!(stats.requests, fifo_stats.requests, "{policy:?}");
            for (a, b) in out.iter().zip(&fifo_out) {
                assert_eq!(
                    bits(&a.image),
                    bits(&b.image),
                    "{policy:?} request {}",
                    a.id
                );
            }
            // And the accounting stays all-zero under the no-op model.
            assert_eq!(stats.total_energy_pj(), 0.0);
            assert_eq!(stats.peak_occupancy(), 0.0);
        }
    }

    #[test]
    fn energy_capped_policy_spends_less_than_fifo_at_bounded_latency() {
        use crate::cost::AccelCostModel;
        use sqdm_accel::PowerProfile;

        let (mut net, den) = fixture();
        let requests: Vec<ScheduledRequest> =
            (0..6).map(|i| ScheduledRequest::at(i, 4, 0)).collect();
        let solo = solo_references(&mut net, &den, &requests);
        let cost = CostModelConfig::Accel {
            profile: PowerProfile::Efficiency,
        };
        let (_, fifo) = Scheduler::new(den, 3)
            .with_cost_model(cost)
            .run(&mut net, &requests, None)
            .unwrap();
        // Budget 1.5 whole trajectories per 4-step window: the policy must
        // serialize admissions instead of packing the full batch.
        let unit = AccelCostModel::new(PowerProfile::Efficiency, 3)
            .stream_cost(1)
            .round_energy_pj;
        let budget_pj = (unit * 4.0 * 1.5) as u64;
        let capped_sched = Scheduler::new(den, 3)
            .with_policy(AdmissionPolicy::EnergyCapped {
                budget_pj,
                window: 4,
            })
            .with_cost_model(cost);
        let (served, capped) = capped_sched.run(&mut net, &requests, None).unwrap();
        assert!(
            capped.mean_occupancy() < fifo.mean_occupancy(),
            "capped {} vs fifo {}",
            capped.mean_occupancy(),
            fifo.mean_occupancy()
        );
        assert!(
            capped.energy_per_image_pj() < fifo.energy_per_image_pj(),
            "capped {} vs fifo {} pJ/image",
            capped.energy_per_image_pj(),
            fifo.energy_per_image_pj()
        );
        // Latency inflation from shedding concurrency stays bounded.
        let (cp99, fp99) = (capped.p99_latency().unwrap(), fifo.p99_latency().unwrap());
        assert!(cp99 <= fp99 * 4, "p99 {cp99} vs fifo {fp99}");
        // Costs are simulated: images stay bitwise solo.
        for (out, single) in served.iter().zip(&solo) {
            assert_eq!(bits(&out.image), bits(single), "request {}", out.id);
        }
        // Decisions are a pure function of the request set.
        let (_, capped2) = capped_sched.run(&mut net, &requests, None).unwrap();
        assert_eq!(capped.requests, capped2.requests);
        // A budget below one trajectory must not wedge the queue: the
        // stall guard admits one stream per window regardless.
        let (starved_out, _) = Scheduler::new(den, 3)
            .with_policy(AdmissionPolicy::EnergyCapped {
                budget_pj: 0,
                window: 4,
            })
            .with_cost_model(cost)
            .run(&mut net, &requests, None)
            .unwrap();
        assert_eq!(starved_out.len(), 6);
    }

    #[test]
    fn occupancy_target_policy_packs_into_the_band() {
        use crate::cost::AccelCostModel;
        use sqdm_accel::PowerProfile;

        let (mut net, den) = fixture();
        let requests: Vec<ScheduledRequest> =
            (0..6).map(|i| ScheduledRequest::at(i, 3, 0)).collect();
        let solo = solo_references(&mut net, &den, &requests);
        let cost = CostModelConfig::Accel {
            profile: PowerProfile::Balanced,
        };
        let (_, fifo) = Scheduler::new(den, 3)
            .with_cost_model(cost)
            .run(&mut net, &requests, None)
            .unwrap();
        // A band that fits one stream's share but not two: batches must
        // stay at size one even though FIFO would pack three.
        let share = AccelCostModel::new(PowerProfile::Balanced, 3)
            .stream_cost(1)
            .occupancy_share;
        let hi_pct = ((share * 1.5) * 100.0).ceil().min(100.0) as u8;
        let target_sched = Scheduler::new(den, 3)
            .with_policy(AdmissionPolicy::OccupancyTarget { lo_pct: 0, hi_pct })
            .with_cost_model(cost);
        let (served, target) = target_sched.run(&mut net, &requests, None).unwrap();
        assert!(
            target.peak_occupancy() < fifo.peak_occupancy(),
            "target peak {} vs fifo peak {}",
            target.peak_occupancy(),
            fifo.peak_occupancy()
        );
        assert!(
            target.peak_occupancy() <= f64::from(hi_pct) / 100.0 + 1e-9,
            "peak {} left the [0, {hi_pct}%] band",
            target.peak_occupancy()
        );
        for (out, single) in served.iter().zip(&solo) {
            assert_eq!(bits(&out.image), bits(single), "request {}", out.id);
        }
        let (_, target2) = target_sched.run(&mut net, &requests, None).unwrap();
        assert_eq!(target.requests, target2.requests);
    }

    #[test]
    fn scheduler_round_accounting_timeline_matches_rounds() {
        use sqdm_accel::PowerProfile;

        let (mut net, den) = fixture();
        let requests = [ScheduledRequest::at(0, 3, 0), ScheduledRequest::at(1, 2, 1)];
        let (_, stats) = Scheduler::new(den, 2)
            .with_cost_model(CostModelConfig::Accel {
                profile: PowerProfile::Performance,
            })
            .run(&mut net, &requests, None)
            .unwrap();
        assert_eq!(stats.round_energy_pj.len(), stats.rounds);
        assert_eq!(stats.round_occupancy.len(), stats.rounds);
        assert!(stats.round_energy_pj.iter().all(|&e| e > 0.0));
        assert!(stats.round_occupancy.iter().all(|&o| o > 0.0 && o <= 1.0));
        assert!(stats.energy_per_image_pj() > 0.0);
        assert!(stats.peak_occupancy() >= stats.mean_occupancy());
    }

    #[test]
    fn mean_occupancy_never_exceeds_peak() {
        // From 7 copies on, the f64 running sum of this value rounds up
        // and a plain `sum / n` lands one ulp above it.
        let occ = 0.4987012987012987;
        for n in [7usize, 16] {
            let stats = ServeStats {
                round_occupancy: vec![occ; n],
                ..ServeStats::default()
            };
            assert_eq!(stats.mean_occupancy(), stats.peak_occupancy(), "n = {n}");
            assert_eq!(stats.mean_occupancy(), occ, "n = {n}");
        }

        let mixed = [0.1, 0.4987012987012987, 0.7, 0.3, 0.4987012987012987];
        let stats = ServeStats {
            round_occupancy: mixed.iter().copied().cycle().take(23).collect(),
            ..ServeStats::default()
        };
        let lo = stats.round_occupancy.iter().copied().fold(1.0, f64::min);
        let m = stats.mean_occupancy();
        assert!(lo <= m && m <= stats.peak_occupancy(), "mean {m}");
    }
}
