//! The test bed: builds the full `Cluster` stack for a workload and drives
//! one open-loop run through it, using only the crates' public APIs.
//!
//! Every call into a crate is wrapped in a [`trace::time`] span so the
//! traced binary can split host time by crate from the outside.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use dne::types::DneConfig;
use ingress::gateway::{DeliveryFailed, Dropped, Gateway, GatewayConfig, Reply, ReqCtx, Upstream};
use ingress::rss::FlowId;
use ingress::{extract_invocation, wrap_response, AdmissionConfig, HttpRequest, HttpResponse};
use membuf::tenant::TenantId;
use nadino::boutique;
use nadino::cluster::{Cluster, ClusterConfig};
use rdma_sim::FaultPlane;
use runtime::ChainSpec;
use simcore::{Sim, SimDuration, SimTime};

use crate::calib;
use crate::gen::{self, Inputs};
use crate::trace::{self, Span};
use crate::Workload;

/// How a request ended. `Pending` means it has not ended yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Outcome {
    Pending = 0,
    Completed,
    /// Typed delivery failure (in `boutique`, also an entry pool that
    /// refused the converted request).
    Failed,
    /// Shed by gateway admission control, or refused by an exhausted entry
    /// pool on direct injection.
    Shed,
    /// Dropped on a gateway worker's backlog bound.
    Dropped,
    /// Deadline expired.
    Expired,
}

/// Payload bytes of an `echo` request.
pub const ECHO_PAYLOAD: usize = 64;
/// Payload bytes of a `tenants` transfer.
pub const TRANSFER_PAYLOAD: usize = 4096;
/// Buffers per tenant pool per node in `tenants` (small on purpose: 1024
/// tenants share the nodes' memory).
pub const TENANT_POOL_BUFS: u32 = 256;
/// Wire loss on every link in `tenants`.
pub const TENANT_LINK_LOSS: f64 = 0.005;
/// Gateway-to-worker transport latency (the NADINO ingress, as in fig16).
pub const INGRESS_TRANSPORT: SimDuration = SimDuration::from_micros(3);
/// Virtual cadence of `Cluster::sample_obs` in `boutique`.
pub const SAMPLE_EVERY: SimDuration = SimDuration::from_millis(1);
/// Virtual time between host-time samples of a run.
pub const SEGMENT: SimDuration = SimDuration::from_millis(250);
/// Virtual time a full run may take to drain after its last arrival.
pub const DRAIN_CAP: SimDuration = SimDuration::from_secs(10);

/// Per-run request accounting, shared with the program's callbacks.
#[derive(Default)]
struct Sink {
    t0_ns: u64,
    due_ns: Vec<u64>,
    outcome: Vec<Outcome>,
    /// Latency from due time, per request (`u64::MAX` unless completed).
    latency_ns: Vec<u64>,
    /// The id the program knows each request by (the trace id).
    req_id: Vec<u64>,
    counts: [u64; 6],
    resolved: usize,
    last_ns: u64,
    /// Outcomes reported twice for one request, or for an unknown one.
    duplicates: u64,
    /// Responses or inputs that failed their check.
    bad: u64,
    responses_checked: u64,
    tracer: Option<obs::Tracer>,
    stages: StageAcc,
    /// Allocations of the critical-path analysis above, which the
    /// per-request allocation counts leave out.
    analysis_allocs: (u64, u64),
}

/// Critical-path self time per stage over the sampled requests.
#[derive(Debug, Clone, Default)]
pub struct StageAcc {
    pub traces: u64,
    pub spans: u64,
    pub ns: Vec<(String, u64)>,
}

impl StageAcc {
    fn add(&mut self, spans: &[obs::SpanRecord]) {
        let Some(path) = obs::critical_path::analyze(spans) else {
            return;
        };
        self.traces += 1;
        self.spans += spans.len() as u64;
        for share in path.stages {
            self.add_ns(&share.stage, share.ns);
        }
    }

    fn add_ns(&mut self, stage: &str, ns: u64) {
        match self.ns.iter_mut().find(|(s, _)| s == stage) {
            Some((_, total)) => *total += ns,
            None => self.ns.push((stage.to_string(), ns)),
        }
    }

    /// Folds another run's split into this one.
    pub fn merge(&mut self, other: &StageAcc) {
        self.traces += other.traces;
        self.spans += other.spans;
        for (stage, ns) in &other.ns {
            self.add_ns(stage, *ns);
        }
    }
}

impl Sink {
    fn start(
        &mut self,
        t0: SimTime,
        inputs: &Inputs,
        direct_ids: bool,
        tracer: Option<obs::Tracer>,
    ) {
        let n = inputs.arrivals.len();
        *self = Sink {
            t0_ns: t0.as_nanos(),
            due_ns: inputs.arrivals.iter().map(|a| a.due_ns).collect(),
            outcome: vec![Outcome::Pending; n],
            latency_ns: vec![u64::MAX; n],
            req_id: if direct_ids {
                (0..n as u64).collect()
            } else {
                vec![u64::MAX; n]
            },
            tracer,
            ..Sink::default()
        };
    }

    fn resolve(&mut self, idx: usize, outcome: Outcome, now: SimTime) {
        if idx >= self.outcome.len() || self.outcome[idx] != Outcome::Pending {
            self.duplicates += 1;
            return;
        }
        let now_ns = now.as_nanos();
        self.outcome[idx] = outcome;
        self.counts[outcome as usize] += 1;
        self.resolved += 1;
        self.last_ns = self.last_ns.max(now_ns);
        if outcome == Outcome::Completed {
            self.latency_ns[idx] = now_ns - (self.t0_ns + self.due_ns[idx]);
        }
        let req = self.req_id[idx];
        if let Some(tracer) = &self.tracer {
            if req != u64::MAX && tracer.decide_sample(req) {
                let before = trace::alloc_counts();
                let spans = tracer.take_trace(req);
                self.stages.add(&spans);
                tracer.recycle(spans);
                let after = trace::alloc_counts();
                self.analysis_allocs.0 += after.0 - before.0;
                self.analysis_allocs.1 += after.1 - before.1;
            }
        }
    }
}

/// A built cluster, ready for one run.
pub struct Bed {
    pub workload: Workload,
    pub sim: Sim,
    pub cluster: Rc<Cluster>,
    /// One chain per tenant (class).
    pub chains: Vec<ChainSpec>,
    pub gateway: Option<Gateway>,
    pub registry: Rc<obs::MetricsRegistry>,
    sink: Rc<RefCell<Sink>>,
    /// Boutique: gateway replies waiting for their chain to complete.
    pending: Rc<RefCell<HashMap<u64, Reply>>>,
}

fn cluster_config(workload: Workload) -> ClusterConfig {
    match workload {
        Workload::Echo | Workload::Boutique => ClusterConfig::default(),
        Workload::Tenants => ClusterConfig {
            // §4.2's throttle: one DPU core pinned at ~110 K messages/s.
            dne: DneConfig {
                extra_per_msg: SimDuration::from_nanos(2_500),
                ..DneConfig::nadino_dne()
            },
            pool_bufs: TENANT_POOL_BUFS,
            ..ClusterConfig::default()
        },
    }
}

/// Function id of boutique function `f` for tenant `t` (`IoLib` keys
/// endpoints by function id alone, so each tenant gets its own range).
fn boutique_fn(t: u16, f: u16) -> u16 {
    100 * t + f
}

fn chains(workload: Workload) -> Vec<ChainSpec> {
    match workload {
        Workload::Echo => vec![ChainSpec::new("echo", TenantId(1), vec![1, 2, 1])],
        Workload::Boutique => gen::BOUTIQUE_TENANTS
            .iter()
            .zip(boutique::evaluation_chains(TenantId(0)))
            .map(|(&(t, _, _), tpl)| {
                let hops = tpl.hops.iter().map(|&f| boutique_fn(t, f)).collect();
                ChainSpec::new(&tpl.name, TenantId(t), hops)
            })
            .collect(),
        Workload::Tenants => (1..=gen::MANY_TENANTS as u16)
            .map(|t| ChainSpec::new("transfer", TenantId(t), vec![2 * t - 1, 2 * t]))
            .collect(),
    }
}

/// Node index of function `f`.
fn placement(workload: Workload, f: u16) -> usize {
    match workload {
        Workload::Echo => usize::from(f == 2),
        Workload::Boutique => boutique::hotspot_placement(f % 100),
        // Transfers run from the client function on node 0 to the server
        // function on node 1.
        Workload::Tenants => usize::from(f.is_multiple_of(2)),
    }
}

fn exec_cost(workload: Workload, f: u16) -> SimDuration {
    match workload {
        Workload::Boutique => boutique::exec_cost(f % 100),
        Workload::Echo | Workload::Tenants => SimDuration::ZERO,
    }
}

/// Builds the cluster, provisions the tenants and registers the chains.
/// This is what `setup_s` times.
pub fn setup(workload: Workload, seed: u64) -> Bed {
    let mut sim = Sim::new();
    let mut cluster = trace::time(Span::ClusterNew, || {
        Cluster::new(&mut sim, cluster_config(workload))
    });
    let (_, weights) = gen::tenant_mix(workload, seed);
    let chains = chains(workload);
    for (chain, &weight) in chains.iter().zip(&weights) {
        trace::time(Span::AddTenant, || {
            cluster.add_tenant(&mut sim, chain.tenant, weight)
        })
        .expect("a fresh cluster accepts every tenant");
        for f in chain.functions() {
            cluster.place(f, placement(workload, f));
        }
    }
    if workload == Workload::Tenants {
        let mut faults = FaultPlane::new(gen::stream(seed, gen::STREAM_FAULTS).next_u64());
        faults.set_default_loss(TENANT_LINK_LOSS);
        cluster.fabric.install_fault_plane(faults);
    }
    let sink: Rc<RefCell<Sink>> = Rc::default();
    let pending: Rc<RefCell<HashMap<u64, Reply>>> = Rc::default();
    let on_complete: runtime::function::CompletionFn = if workload == Workload::Boutique {
        let pending = pending.clone();
        Rc::new(move |sim, req| {
            trace::time(Span::Completion, || {
                let reply = pending.borrow_mut().remove(&req);
                if let Some(reply) = reply {
                    reply(sim, Ok(gen::BOUTIQUE_BODY));
                }
            })
        })
    } else {
        let sink = sink.clone();
        Rc::new(move |sim, req| {
            trace::time(Span::Completion, || {
                sink.borrow_mut()
                    .resolve(req as usize, Outcome::Completed, sim.now())
            })
        })
    };
    for chain in &chains {
        trace::time(Span::RegisterChain, || {
            cluster.register_chain(chain, |f| exec_cost(workload, f), on_complete.clone())
        });
    }
    if workload == Workload::Boutique {
        let pending = pending.clone();
        cluster.set_delivery_failure_handler(Rc::new(move |sim, failure| {
            let reply = pending.borrow_mut().remove(&failure.req_id);
            if let Some(reply) = reply {
                reply(sim, Err(DeliveryFailed));
            }
        }));
    } else {
        let sink = sink.clone();
        cluster.set_delivery_failure_handler(Rc::new(move |sim, failure| {
            sink.borrow_mut()
                .resolve(failure.req_id as usize, Outcome::Failed, sim.now());
        }));
    }
    let gateway = (workload == Workload::Boutique).then(|| {
        let gw = Gateway::new(GatewayConfig {
            initial_workers: 2,
            admission: Some(AdmissionConfig::default()),
            ..GatewayConfig::default()
        });
        for &(t, w, _) in &gen::BOUTIQUE_TENANTS {
            gw.register_tenant(t, w);
        }
        gw
    });
    Bed {
        workload,
        sim,
        cluster: Rc::new(cluster),
        chains,
        gateway,
        registry: Rc::new(obs::MetricsRegistry::new()),
        sink,
        pending,
    }
}

impl Drop for Bed {
    /// Replaces every function endpoint with a no-op before the cluster is
    /// dropped. Each endpoint closure owns a clone of its node's `IoLib`,
    /// which owns the endpoint map, so without this every round would leak
    /// its whole cluster, pools included, and later rounds would measure a
    /// growing process. Replies still pending after a cut run own the
    /// run's generator, which owns the pending map, so they go too.
    fn drop(&mut self) {
        self.pending.borrow_mut().clear();
        for node in &self.cluster.nodes {
            for chain in &self.chains {
                for f in chain.functions() {
                    node.iolib
                        .register_function(f, chain.tenant, Rc::new(|_, _| {}));
                }
            }
        }
    }
}

/// Host time and completions of one [`SEGMENT`] of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    pub host_ns: u64,
    pub completed: u64,
    /// The calibration pass timed just before the segment (0 when the run
    /// was not calibrated).
    pub calib_ns: u64,
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub offered: u64,
    /// Indexed by [`Outcome`].
    pub counts: [u64; 6],
    /// Latency from due time per request (`u64::MAX` unless completed).
    pub latency_ns: Vec<u64>,
    /// Host time of the run phase, per [`SEGMENT`] of virtual time.
    pub segments: Vec<Segment>,
    /// Allocations and bytes requested during the segments (counted only
    /// under [`trace::CountingAlloc`]).
    pub allocs: (u64, u64),
    /// Virtual start and last resolution.
    pub t0: SimTime,
    pub t_last: SimTime,
    pub duplicates: u64,
    pub bad: u64,
    pub responses_checked: u64,
    /// Requests still owed by an engine after the run.
    pub engine_in_flight: usize,
    /// Simulation events still pending after the run.
    pub events_pending: usize,
    pub events: u64,
    pub cancelled: u64,
    pub stages: StageAcc,
}

impl RunResult {
    /// Host ns of the whole run phase.
    pub fn host_ns(&self) -> u64 {
        self.segments.iter().map(|s| s.host_ns).sum()
    }

    pub fn completed(&self) -> u64 {
        self.counts[Outcome::Completed as usize]
    }

    pub fn unresolved(&self) -> u64 {
        self.counts[Outcome::Pending as usize]
    }

    /// Requests that did not complete.
    pub fn not_completed(&self) -> u64 {
        self.offered - self.completed()
    }
}

/// How long a run lasts.
#[derive(Debug, Clone, Copy)]
pub enum Horizon {
    /// Until every request has an outcome (bounded by [`DRAIN_CAP`]).
    Drain,
    /// Until `limit` after the last arrival; later outcomes are not
    /// waited for.
    Cut(SimDuration),
}

/// The open-loop generator: per-run state captured by the scheduled
/// closures.
struct Generator {
    workload: Workload,
    cluster: Rc<Cluster>,
    chains: Vec<ChainSpec>,
    gateway: Option<Gateway>,
    registry: Rc<obs::MetricsRegistry>,
    inputs: Rc<Inputs>,
    sink: Rc<RefCell<Sink>>,
    pending: Rc<RefCell<HashMap<u64, Reply>>>,
}

impl Generator {
    /// Issues arrival `idx` — exactly at its due time — then schedules the
    /// next one.
    fn fire(self: &Rc<Self>, sim: &mut Sim, idx: usize) {
        match self.workload {
            Workload::Boutique => self.submit_http(sim, idx),
            Workload::Echo | Workload::Tenants => {
                let class = self.inputs.arrivals[idx].class as usize;
                let len = if self.workload == Workload::Echo {
                    ECHO_PAYLOAD
                } else {
                    TRANSFER_PAYLOAD
                };
                let accepted = trace::time(Span::Inject, || {
                    self.cluster
                        .inject(sim, &self.chains[class], idx as u64, len)
                });
                if !accepted {
                    // The entry pool is exhausted: the request is shed.
                    self.sink
                        .borrow_mut()
                        .resolve(idx, Outcome::Shed, sim.now());
                }
            }
        }
        if let Some(next) = self.inputs.arrivals.get(idx + 1) {
            let at = SimTime::from_nanos(self.sink.borrow().t0_ns + next.due_ns);
            let me = self.clone();
            sim.schedule_at(at, move |sim| me.fire(sim, idx + 1));
        }
    }

    fn submit_http(self: &Rc<Self>, sim: &mut Sim, idx: usize) {
        let arrival = self.inputs.arrivals[idx];
        let class = arrival.class as usize;
        let raw = &self.inputs.http[class];
        let invocation = trace::time(Span::Parse, || {
            HttpRequest::parse(raw)
                .ok()
                .filter(|(_, used)| *used == raw.len())
                .and_then(|(req, _)| extract_invocation(&req).ok())
        });
        let (tenant, _, path) = gen::BOUTIQUE_TENANTS[class];
        let Some(inv) = invocation.filter(|inv| inv.tenant == tenant && inv.chain == path) else {
            let mut sink = self.sink.borrow_mut();
            sink.bad += 1;
            sink.resolve(idx, Outcome::Failed, sim.now());
            return;
        };
        let me = self.clone();
        let upstream: Upstream = Rc::new(move |sim, ctx, reply| me.upstream(sim, idx, ctx, reply));
        let me = self.clone();
        let body = inv.payload;
        let done = Box::new(move |sim: &mut Sim, result| me.respond(sim, idx, body, result));
        let gateway = self.gateway.as_ref().expect("boutique has a gateway");
        trace::time(Span::Submit, || {
            gateway.submit_tenant(
                sim,
                inv.tenant,
                FlowId::from_client(arrival.flow, 0),
                raw.len(),
                upstream,
                done,
            )
        });
    }

    /// The gateway's cluster side: after the ingress transport, inject the
    /// converted invocation into the tenant's chain.
    fn upstream(self: &Rc<Self>, sim: &mut Sim, idx: usize, ctx: ReqCtx, reply: Reply) {
        self.sink.borrow_mut().req_id[idx] = ctx.req_id;
        let me = self.clone();
        sim.schedule_after(INGRESS_TRANSPORT, move |sim| {
            let chain = &me.chains[me.inputs.arrivals[idx].class as usize];
            me.pending.borrow_mut().insert(ctx.req_id, reply);
            let accepted = trace::time(Span::Inject, || {
                me.cluster
                    .inject(sim, chain, ctx.req_id, gen::BOUTIQUE_BODY)
            });
            if !accepted {
                let reply = me.pending.borrow_mut().remove(&ctx.req_id);
                if let Some(reply) = reply {
                    reply(sim, Err(DeliveryFailed));
                }
            }
        });
    }

    /// The gateway's answer: serialize the client response, re-parse it
    /// and check it echoes the request body.
    fn respond(&self, sim: &mut Sim, idx: usize, body: Vec<u8>, result: Result<usize, Dropped>) {
        trace::time(Span::Completion, || {
            let outcome = match result {
                Ok(len) => {
                    let wire = wrap_response(Ok(body)).serialize();
                    let class = self.inputs.arrivals[idx].class as usize;
                    let good = matches!(
                        HttpResponse::parse(&wire),
                        Ok((resp, used)) if used == wire.len()
                            && resp.status == 200
                            && resp.body.len() == len
                            && resp.body == self.inputs.bodies[class]
                    );
                    let mut sink = self.sink.borrow_mut();
                    sink.responses_checked += 1;
                    sink.bad += u64::from(!good);
                    Outcome::Completed
                }
                Err(Dropped::Delivery) => Outcome::Failed,
                Err(Dropped::Shed { .. }) => Outcome::Shed,
                Err(Dropped::Overload) => Outcome::Dropped,
                Err(Dropped::DeadlineExceeded) => Outcome::Expired,
            };
            self.sink.borrow_mut().resolve(idx, outcome, sim.now());
        });
    }

    fn all_resolved(&self) -> bool {
        self.sink.borrow().resolved == self.inputs.arrivals.len()
    }

    /// `Cluster::sample_obs` every [`SAMPLE_EVERY`] until the run drains.
    fn sample(self: Rc<Self>, sim: &mut Sim) {
        sim.schedule_after(SAMPLE_EVERY, move |sim| {
            trace::time(Span::Sample, || {
                self.cluster
                    .sample_obs(sim.now(), &self.registry, SAMPLE_EVERY)
            });
            if !self.all_resolved() {
                self.sample(sim);
            }
        });
    }
}

/// Drives `inputs` through the bed. `tracer`, when given, is installed on
/// the cluster and gateway, and every sampled request's critical path is
/// folded into [`RunResult::stages`]. With `calibrate`, a calibration pass
/// is timed before each segment.
pub fn run(
    bed: &mut Bed,
    inputs: Rc<Inputs>,
    horizon: Horizon,
    tracer: Option<&obs::Tracer>,
    calibrate: bool,
) -> RunResult {
    if let Some(tracer) = tracer {
        bed.cluster.set_tracer(tracer);
        if let Some(gw) = &bed.gateway {
            gw.set_tracer(tracer.clone());
        }
    }
    let t0 = bed.sim.now();
    let direct_ids = bed.workload != Workload::Boutique;
    bed.sink
        .borrow_mut()
        .start(t0, &inputs, direct_ids, tracer.cloned());
    let load = Rc::new(Generator {
        workload: bed.workload,
        cluster: bed.cluster.clone(),
        chains: bed.chains.clone(),
        gateway: bed.gateway.clone(),
        registry: bed.registry.clone(),
        inputs: inputs.clone(),
        sink: bed.sink.clone(),
        pending: bed.pending.clone(),
    });
    let last_due = SimDuration::from_nanos(inputs.arrivals.last().expect("non-empty").due_ns);
    let deadline = t0
        + last_due
        + match horizon {
            Horizon::Drain => DRAIN_CAP,
            Horizon::Cut(limit) => limit,
        };
    let before = bed.sim.profile();
    let first = SimTime::from_nanos(t0.as_nanos() + inputs.arrivals[0].due_ns);
    let d = load.clone();
    bed.sim.schedule_at(first, move |sim| d.fire(sim, 0));
    if bed.workload == Workload::Boutique {
        load.clone().sample(&mut bed.sim);
    }
    // Run in segments of virtual time, so host time is sampled many times
    // per round.
    let mut segments = Vec::new();
    let mut completed = 0;
    let mut allocs = (0, 0);
    while bed.sim.now() < deadline && bed.sim.pending_events() > 0 {
        let calib_ns = if calibrate { calib::reference_ns() } else { 0 };
        let until = (bed.sim.now() + SEGMENT).min(deadline);
        let sim = &mut bed.sim;
        let allocs_before = trace::alloc_counts();
        let wall = Instant::now();
        trace::time(Span::Run, || sim.run_until(until));
        let host_ns = wall.elapsed().as_nanos() as u64;
        let allocs_after = trace::alloc_counts();
        allocs.0 += allocs_after.0 - allocs_before.0;
        allocs.1 += allocs_after.1 - allocs_before.1;
        let done = bed.sink.borrow().counts[Outcome::Completed as usize];
        segments.push(Segment {
            host_ns,
            completed: done - completed,
            calib_ns,
        });
        completed = done;
    }
    let after = bed.sim.profile();
    let mut sink = bed.sink.borrow_mut();
    sink.counts[Outcome::Pending as usize] = (inputs.arrivals.len() - sink.resolved) as u64;
    let stages = std::mem::take(&mut sink.stages);
    allocs.0 -= sink.analysis_allocs.0;
    allocs.1 -= sink.analysis_allocs.1;
    RunResult {
        offered: inputs.arrivals.len() as u64,
        counts: sink.counts,
        latency_ns: std::mem::take(&mut sink.latency_ns),
        segments,
        allocs,
        t0,
        t_last: SimTime::from_nanos(sink.last_ns.max(t0.as_nanos())),
        duplicates: sink.duplicates,
        bad: sink.bad,
        responses_checked: sink.responses_checked,
        engine_in_flight: (0..bed.cluster.nodes.len())
            .map(|i| bed.cluster.in_flight_on(i))
            .sum(),
        events_pending: after.pending_events,
        events: after.executed_events - before.executed_events,
        cancelled: after.cancelled_events - before.cancelled_events,
        stages,
    }
}
