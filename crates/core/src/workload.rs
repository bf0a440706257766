//! Load generation and request tracking.
//!
//! [`ClosedLoop`] reproduces wrk's closed-loop behaviour: `clients`
//! outstanding requests, each reissued on completion until a deadline —
//! plus per-request latency and windowed-throughput recording. The same
//! tracker also powers the baseline and multi-tenant experiments.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use membuf::tenant::TenantId;
use runtime::function::CompletionFn;
use runtime::ChainSpec;
use simcore::{Histogram, Sim, SimDuration, SimTime, TimeSeries};

use crate::cluster::Cluster;

/// The issue hook installed by `start` (or a custom driver): injects one
/// request and returns whether it was admitted.
type IssueFn = Rc<dyn Fn(&mut Sim, u64) -> bool>;

struct Inner {
    next_req: u64,
    pending: HashMap<u64, SimTime>,
    hist: Histogram,
    completed: u64,
    shed: u64,
    stop_at: SimTime,
    began: SimTime,
    last_done: SimTime,
    series: Option<TimeSeries>,
    /// Re-issue hook set by `start` (or a custom driver).
    issue: Option<IssueFn>,
}

/// A closed-loop load driver with latency and throughput accounting.
#[derive(Clone)]
pub struct ClosedLoop {
    inner: Rc<RefCell<Inner>>,
}

impl ClosedLoop {
    /// Creates a driver that stops issuing at `stop_at`.
    pub fn new(stop_at: SimTime) -> ClosedLoop {
        ClosedLoop {
            inner: Rc::new(RefCell::new(Inner {
                next_req: 0,
                pending: HashMap::new(),
                hist: Histogram::new(),
                completed: 0,
                shed: 0,
                stop_at,
                began: SimTime::ZERO,
                last_done: SimTime::ZERO,
                series: None,
                issue: None,
            })),
        }
    }

    /// Enables windowed-throughput recording with the given window.
    pub fn with_series(self, window: SimDuration) -> ClosedLoop {
        self.inner.borrow_mut().series = Some(TimeSeries::new(window));
        self
    }

    /// Returns the completion callback to hand to chain registration.
    pub fn completion(&self) -> CompletionFn {
        let rc = self.inner.clone();
        let outer = self.clone();
        Rc::new(move |sim: &mut Sim, req_id: u64| {
            let reissue = {
                let mut inner = rc.borrow_mut();
                let Some(t0) = inner.pending.remove(&req_id) else {
                    return; // duplicate or foreign completion
                };
                inner.hist.record(sim.now().saturating_since(t0));
                inner.completed += 1;
                inner.last_done = sim.now();
                if let Some(series) = inner.series.as_mut() {
                    series.record_at(sim.now(), 1.0);
                }
                sim.now() < inner.stop_at
            };
            if reissue {
                outer.issue_one(sim);
            }
        })
    }

    /// Installs a custom issue hook (`start` installs the standard one).
    /// A request the hook does not admit counts as shed.
    pub fn set_issuer(&self, f: IssueFn) {
        self.inner.borrow_mut().issue = Some(f);
    }

    /// Issues one request through the installed hook.
    pub fn issue_one(&self, sim: &mut Sim) {
        let (req, issue) = {
            let mut inner = self.inner.borrow_mut();
            let Some(issue) = inner.issue.clone() else {
                return;
            };
            let req = inner.next_req;
            inner.next_req += 1;
            inner.pending.insert(req, sim.now());
            (req, issue)
        };
        if !issue(sim, req) {
            self.shed(req);
        }
    }

    /// Marks a request as shed (admission failure) without latency record.
    pub fn shed(&self, req_id: u64) {
        let mut inner = self.inner.borrow_mut();
        inner.pending.remove(&req_id);
        inner.shed += 1;
    }

    /// Starts `clients` closed-loop clients against `chain` on `cluster`,
    /// with `payload` bytes per request.
    pub fn start(
        &self,
        sim: &mut Sim,
        cluster: &Cluster,
        chain: &ChainSpec,
        clients: usize,
        payload: usize,
    ) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.began = sim.now();
        }
        // The hook must not hold the driver: the driver owns the hook.
        let cluster = ClusterRef::new(cluster);
        let chain = chain.clone();
        self.set_issuer(Rc::new(move |sim, req| {
            cluster.inject(sim, &chain, req, payload)
        }));
        for _ in 0..clients {
            self.issue_one(sim);
        }
    }

    /// Returns completed request count.
    pub fn completed(&self) -> u64 {
        self.inner.borrow().completed
    }

    /// Returns shed (admission-failed) request count.
    pub fn shed_count(&self) -> u64 {
        self.inner.borrow().shed
    }

    /// Returns the latency histogram (cloned snapshot).
    pub fn latency(&self) -> Histogram {
        self.inner.borrow().hist.clone()
    }

    /// Sustained throughput: completions divided by active time.
    pub fn rps(&self) -> f64 {
        let inner = self.inner.borrow();
        let span = inner.last_done.saturating_since(inner.began).as_secs_f64();
        if span > 0.0 {
            inner.completed as f64 / span
        } else {
            0.0
        }
    }

    /// Finalizes and returns the windowed throughput series.
    pub fn series(&self, end: SimTime) -> Vec<(f64, f64)> {
        let mut inner = self.inner.borrow_mut();
        match inner.series.take() {
            Some(s) => s.finish(end),
            None => Vec::new(),
        }
    }
}

/// A cheap cloneable view of the cluster pieces the issue hook touches.
///
/// The cluster itself is not `Clone`; we keep the pool handles, placement
/// and entry I/O library, which are.
struct ClusterRef {
    pools: Vec<(TenantId, usize, membuf::BufferPool)>,
    placement: Rc<RefCell<runtime::Placement>>,
    iolibs: Vec<runtime::IoLib>,
    node_ids: Vec<rdma_sim::NodeId>,
    tracer: obs::Tracer,
}

impl ClusterRef {
    fn new(cluster: &Cluster) -> ClusterRef {
        ClusterRef {
            pools: cluster.pools_snapshot(),
            placement: cluster.placement.clone(),
            iolibs: cluster.nodes.iter().map(|n| n.iolib.clone()).collect(),
            node_ids: cluster.nodes.iter().map(|n| n.id).collect(),
            tracer: cluster.tracer(),
        }
    }

    fn inject(&self, sim: &mut Sim, chain: &ChainSpec, req: u64, payload: usize) -> bool {
        let entry = chain.entry();
        let Some(node) = self.placement.borrow().node_of(entry) else {
            return false;
        };
        let Some(idx) = self.node_ids.iter().position(|&n| n == node) else {
            return false;
        };
        let Some((_, _, pool)) = self
            .pools
            .iter()
            .find(|(t, i, _)| *t == chain.tenant && *i == idx)
        else {
            return false;
        };
        let Ok(mut buf) = pool.get() else {
            return false;
        };
        // Payloads carry the on-wire trace context (24 bytes) even when
        // the caller asked for less, matching `Cluster::inject`.
        let mut payload_bytes = runtime::encode_request_payload(req, payload.max(obs::CTX_REGION));
        runtime::set_hop(&mut payload_bytes, 0);
        // The load driver is the ingress here: decide sampling once and
        // stamp the on-wire bit; downstream span sites gate on it.
        let sampled = self.tracer.decide_sample(req);
        if sampled {
            obs::ctx::write_ctx(&mut payload_bytes, 0, true);
        }
        if buf.write_payload(&payload_bytes).is_err() {
            return false;
        }
        // Pass the trace meta down so the local hop needs no pool peek.
        self.iolibs[idx].send_traced(
            sim,
            chain.tenant,
            buf.into_desc(entry),
            Some((req, sampled)),
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    #[test]
    fn closed_loop_measures_latency_and_rps() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        cluster.place(1, 0);
        cluster.place(2, 1);
        let stop = sim.now() + SimDuration::from_millis(50);
        let driver = ClosedLoop::new(stop).with_series(SimDuration::from_millis(10));
        cluster.register_chain(
            &chain,
            |_| SimDuration::from_micros(10),
            driver.completion(),
        );
        driver.start(&mut sim, &cluster, &chain, 4, 128);
        sim.run();
        assert!(driver.completed() > 100);
        assert!(driver.rps() > 1_000.0, "rps = {}", driver.rps());
        let lat = driver.latency();
        assert_eq!(lat.count(), driver.completed());
        assert!(lat.mean().as_micros_f64() > 10.0);
        let series = driver.series(sim.now());
        assert!(series.len() >= 4);
        assert!(series.iter().any(|&(_, r)| r > 0.0));
    }

    #[test]
    fn stops_issuing_after_deadline() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        cluster.place(1, 0);
        cluster.place(2, 1);
        let stop = sim.now() + SimDuration::from_millis(5);
        let driver = ClosedLoop::new(stop);
        cluster.register_chain(
            &chain,
            |_| SimDuration::from_micros(10),
            driver.completion(),
        );
        driver.start(&mut sim, &cluster, &chain, 2, 64);
        sim.run();
        let total = driver.completed();
        assert!(total > 0);
        // Queue fully drained: nothing pending.
        assert_eq!(driver.inner.borrow().pending.len(), 0);
    }
}
