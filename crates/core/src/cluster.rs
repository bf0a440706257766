//! Cluster assembly: worker nodes with DPUs, tenants, chains.
//!
//! A [`Cluster`] wires the full NADINO stack on a simulated testbed: a
//! fabric with one RNIC per worker node, a [`dne::Dne`] per node (DPU or
//! CPU flavoured, per the configured [`DneConfig`]), host cores, per-node
//! per-tenant unified memory pools exported cross-processor via the DOCA
//! mmap handshake, the unified I/O library, and chain-aware function
//! endpoints.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use dne::types::DneConfig;
use dne::Dne;
use dpu_sim::mmap::{doca_mmap_create_from_export, doca_mmap_export_full};
use dpu_sim::soc::{Processor, ProcessorKind};
use membuf::pool::{BufferPool, PoolConfig};
use membuf::tenant::TenantId;
use rdma_sim::{Fabric, NodeId, RdmaCosts};
use runtime::function::{ChainFunction, CompletionFn};
use runtime::{ChainSpec, IoLib, Placement};
use simcore::{Sim, SimDuration, SimTime};

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub workers: usize,
    /// Host CPU cores per worker node.
    pub host_cores: usize,
    /// Network-engine configuration (same on every node).
    pub dne: DneConfig,
    /// Fabric cost model.
    pub rdma: RdmaCosts,
    /// Buffer size of each tenant pool.
    pub buf_size: usize,
    /// Buffers per tenant pool per node.
    pub pool_bufs: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            workers: 2,
            host_cores: 32,
            dne: DneConfig::nadino_dne(),
            rdma: RdmaCosts::default(),
            buf_size: 8 * 1024,
            pool_bufs: 2048,
        }
    }
}

/// One worker node's components.
pub struct NodeHandle {
    /// Fabric identity of the node's RNIC.
    pub id: NodeId,
    /// The node's network engine (DNE on the DPU or CNE on the CPU).
    pub dne: Dne,
    /// Host cores executing functions.
    pub cpu: Rc<RefCell<Processor>>,
    /// The node's unified I/O library.
    pub iolib: IoLib,
}

/// One routing rebalance: the functions switched off a failed node, plus
/// the ones stranded there (no healthy alternative — typed
/// `DestinationDown` until a target recovers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebalanceOutcome {
    /// The node the routes moved away from.
    pub node: NodeId,
    /// Function ids re-pointed at healthy alternatives, sorted.
    pub switched: Vec<u16>,
    /// Function ids left with no healthy target, sorted.
    pub stranded: Vec<u16>,
}

/// A typed routing-plane event fed to the fleet controller (or any other
/// registered observer) on every failover/restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetRouteEvent {
    /// Routes moved off a down node; carries the stranded keys that used
    /// to be silently discarded.
    FailedOver(RebalanceOutcome),
    /// Displaced primaries restored onto a recovered node.
    Restored { node: NodeId, restored: Vec<u16> },
}

/// Observer invoked on every [`FleetRouteEvent`].
pub type FleetRouteObserver = Rc<dyn Fn(&FleetRouteEvent)>;

/// Cluster-wide observability state shared by the failure dispatcher,
/// completion hooks and the public dump API.
#[derive(Default)]
struct ObsHub {
    /// The cluster tracer (disabled until [`Cluster::set_tracer`]).
    tracer: obs::Tracer,
    /// Tail sampler + flight recorder + SLO monitor, when enabled.
    pipeline: Option<obs::TracePipeline>,
    /// The user's delivery-failure handler, invoked after the pipeline has
    /// taken its dump.
    user_failure: Option<dne::DeliveryFailureHandler>,
    /// The health monitor, when enabled: transport failures aimed at a
    /// node feed its state machine before the user handler runs.
    health: Option<crate::health::HealthMonitor>,
    /// Tenants in the burn-alert state at the last completion, so the
    /// SLO-pressure feed into the health monitor only fires on change.
    last_alerting: usize,
    /// Observer fed every routing rebalance (fleet controller).
    fleet_observer: Option<FleetRouteObserver>,
    /// The fleet lifecycle controller, when attached: its counters and
    /// per-node lifecycle states join [`Cluster::sample_obs`] as
    /// `fleet_*` gauges.
    fleet: Option<crate::fleetctl::FleetController>,
}

/// A fully wired NADINO cluster.
pub struct Cluster {
    /// The RDMA fabric connecting the nodes.
    pub fabric: Fabric,
    /// Worker nodes, indexed 0..workers.
    pub nodes: Vec<NodeHandle>,
    /// The shared placement map.
    pub placement: Rc<RefCell<Placement>>,
    cfg: ClusterConfig,
    pools: HashMap<(TenantId, usize), BufferPool>,
    /// Per-function `(primary node index, backup node index)` registered
    /// via [`Cluster::place_with_backup`].
    backups: HashMap<u16, (usize, usize)>,
    obs_hub: Rc<RefCell<ObsHub>>,
}

impl Cluster {
    /// Builds the cluster (nodes, engines, I/O libraries).
    pub fn new(sim: &mut Sim, cfg: ClusterConfig) -> Cluster {
        assert!(cfg.workers >= 1, "need at least one worker node");
        let fabric = Fabric::new(cfg.rdma.clone());
        let placement = Rc::new(RefCell::new(Placement::new()));
        let mut nodes = Vec::with_capacity(cfg.workers);
        for _ in 0..cfg.workers {
            let id = fabric.add_node();
            let dne = Dne::new(fabric.clone(), id, cfg.dne.clone())
                .expect("node creation cannot fail on a fresh fabric");
            let cpu = Rc::new(RefCell::new(Processor::new(
                ProcessorKind::HostCpu,
                cfg.host_cores,
            )));
            let iolib = IoLib::new(id, dne.clone(), cpu.clone(), placement.clone());
            nodes.push(NodeHandle {
                id,
                dne,
                cpu,
                iolib,
            });
        }
        // Every engine reports failures through the hub dispatcher: the
        // trace pipeline (when enabled) records/dumps first, then the
        // user's handler runs.
        let obs_hub: Rc<RefCell<ObsHub>> = Rc::new(RefCell::new(ObsHub::default()));
        for node in &nodes {
            let hub = obs_hub.clone();
            let reporter = node.id;
            let fabric = fabric.clone();
            node.dne.set_failure_handler(Rc::new(move |sim, failure| {
                let (health, user) = {
                    let mut h = hub.borrow_mut();
                    if let Some(p) = h.pipeline.as_mut() {
                        p.on_failure(sim.now(), failure.req_id);
                    }
                    (h.health.clone(), h.user_failure.clone())
                };
                // Transport failures aimed at a node feed its health state;
                // deadline expiries say nothing about machine health, and a
                // reporter that is itself inside a crash window is not a
                // credible witness (its own outage fails its sends, which
                // would smear Suspect/Down onto healthy destinations).
                if let Some(hm) = health {
                    let reporter_down =
                        fabric.with_fault_plane(|fp| fp.in_outage(reporter, sim.now()));
                    if !reporter_down
                        && failure.reason != dne::types::FailureReason::DeadlineExceeded
                    {
                        if let Some(dst) = failure.dst_node {
                            hm.on_failure(sim, dst);
                        }
                    }
                }
                if let Some(u) = user {
                    u(sim, failure);
                }
            }));
        }
        // Nothing is scheduled yet; run to settle any setup events.
        sim.run_until(sim.now());
        Cluster {
            fabric,
            nodes,
            placement,
            cfg,
            pools: HashMap::new(),
            backups: HashMap::new(),
            obs_hub,
        }
    }

    /// Returns the cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Provisions a tenant: one unified memory pool per node (exported to
    /// the DPU and RNIC), registration with every engine, and a pool of RC
    /// connections between every pair of nodes. Advances the simulation
    /// past connection setup.
    pub fn add_tenant(
        &mut self,
        sim: &mut Sim,
        tenant: TenantId,
        weight: u32,
    ) -> Result<(), dne::engine::DneError> {
        for (idx, node) in self.nodes.iter().enumerate() {
            let mut pc = PoolConfig::new(tenant, 0, self.cfg.buf_size, self.cfg.pool_bufs);
            pc.segment_size = membuf::hugepage::HUGEPAGE_SIZE;
            let pool = BufferPool::new(pc).expect("validated pool geometry");
            // The three-step DOCA handshake: export on the host, ship the
            // descriptor, import on the DPU.
            let export = doca_mmap_export_full(&pool).expect("grants are non-empty");
            let mapped = doca_mmap_create_from_export(&export).expect("PCI grant present");
            node.dne.register_tenant(tenant, weight, &mapped)?;
            node.iolib.register_tenant_pool(tenant, pool.clone());
            self.pools.insert((tenant, idx), pool);
        }
        // Pre-establish connection pools between every node pair.
        for i in 0..self.nodes.len() {
            for j in (i + 1)..self.nodes.len() {
                Dne::connect_pair(
                    sim,
                    &self.nodes[i].dne,
                    &self.nodes[j].dne,
                    tenant,
                    self.cfg.dne.conns_per_peer,
                )?;
            }
        }
        // Let the RC connections come up (tens of milliseconds).
        sim.run_for(self.cfg.rdma.connect_delay + SimDuration::from_millis(1));
        Ok(())
    }

    /// Returns the tenant's pool on node `idx`.
    pub fn pool(&self, tenant: TenantId, idx: usize) -> &BufferPool {
        self.pools
            .get(&(tenant, idx))
            .expect("tenant provisioned on this node")
    }

    /// Snapshot of every provisioned `(tenant, node index, pool)` triple.
    pub fn pools_snapshot(&self) -> Vec<(TenantId, usize, BufferPool)> {
        let mut v: Vec<_> = self
            .pools
            .iter()
            .map(|(&(t, i), p)| (t, i, p.clone()))
            .collect();
        v.sort_by_key(|&(t, i, _)| (t, i));
        v
    }

    /// Places a function on worker node `idx` and syncs all routing tables.
    pub fn place(&self, fn_id: u16, idx: usize) {
        let node = self.nodes[idx].id;
        self.placement.borrow_mut().place(fn_id, node);
        for n in &self.nodes {
            n.dne.set_route(fn_id, node);
        }
    }

    /// Places `fn_id` on `primary_idx` with a standby on `backup_idx`:
    /// every routing table learns both, and endpoint registration
    /// ([`Cluster::register_chain`] / [`Cluster::register_dag`]) installs
    /// the function on both nodes so failover needs no new deployment.
    pub fn place_with_backup(&mut self, fn_id: u16, primary_idx: usize, backup_idx: usize) {
        assert_ne!(primary_idx, backup_idx, "backup must be a different node");
        self.place(fn_id, primary_idx);
        let backup = self.nodes[backup_idx].id;
        for n in &self.nodes {
            n.dne.set_backup_route(fn_id, backup);
        }
        self.backups.insert(fn_id, (primary_idx, backup_idx));
    }

    /// Re-routes every function whose primary lives on node `idx` to its
    /// backup (routing tables and the placement map). Normally driven by
    /// the health monitor.
    ///
    /// Returns the full rebalance outcome: the switched function ids
    /// **and** the stranded ones (routed at the failed node with no
    /// healthy alternative — they resolve `DestinationDown` until a target
    /// recovers). Every engine's table is updated; the outcome is
    /// aggregated across all of them so no engine's result is dropped, and
    /// it is forwarded to the registered fleet observer (if any).
    pub fn fail_over_node(&self, idx: usize) -> RebalanceOutcome {
        let failed = self.nodes[idx].id;
        let mut switched = std::collections::BTreeSet::new();
        let mut stranded = std::collections::BTreeSet::new();
        for n in &self.nodes {
            switched.extend(n.dne.fail_over_node(failed));
            stranded.extend(n.dne.stranded_on(failed));
        }
        let outcome = RebalanceOutcome {
            node: failed,
            switched: switched.into_iter().collect(),
            stranded: stranded.into_iter().collect(),
        };
        let mut placement = self.placement.borrow_mut();
        for &f in &outcome.switched {
            if let Some(&(_, backup_idx)) = self.backups.get(&f) {
                placement.place(f, self.nodes[backup_idx].id);
            }
        }
        drop(placement);
        self.notify_fleet_observer(FleetRouteEvent::FailedOver(outcome.clone()));
        outcome
    }

    /// Restores functions displaced off node `idx` by a failover. Returns
    /// the restored function ids, aggregated across every engine's table.
    pub fn restore_node(&self, idx: usize) -> Vec<u16> {
        let node = self.nodes[idx].id;
        let mut restored = std::collections::BTreeSet::new();
        for n in &self.nodes {
            restored.extend(n.dne.restore_node(node));
        }
        let restored: Vec<u16> = restored.into_iter().collect();
        let mut placement = self.placement.borrow_mut();
        for &f in &restored {
            if let Some(&(primary_idx, _)) = self.backups.get(&f) {
                placement.place(f, self.nodes[primary_idx].id);
            }
        }
        drop(placement);
        self.notify_fleet_observer(FleetRouteEvent::Restored {
            node,
            restored: restored.clone(),
        });
        restored
    }

    /// Registers the observer fed every routing rebalance (failovers with
    /// their stranded keys, restores). The fleet controller installs
    /// itself here so stranded routes surface as typed events instead of
    /// being silently discarded.
    pub fn set_fleet_route_observer(&self, observer: FleetRouteObserver) {
        self.obs_hub.borrow_mut().fleet_observer = Some(observer);
    }

    fn notify_fleet_observer(&self, event: FleetRouteEvent) {
        let observer = self.obs_hub.borrow().fleet_observer.clone();
        if let Some(obs) = observer {
            obs(&event);
        }
    }

    /// Switches node `idx`'s engine to CTX wire `version` and announces
    /// the new version to every engine in the cluster (the control-plane
    /// half of version negotiation: peers stamp toward this node at
    /// `min(own, announced)` from the next send on).
    pub fn set_node_wire_version(&self, idx: usize, version: u8) {
        let node = self.nodes[idx].id;
        self.nodes[idx].dne.set_wire_version(version);
        for n in &self.nodes {
            n.dne.set_peer_wire_version(node, version);
        }
    }

    /// Work node `idx`'s engine still owes: queued TX, pending CQEs,
    /// worker items, posted sends and parked retries. The fleet
    /// controller's drain loop polls this toward zero.
    pub fn in_flight_on(&self, idx: usize) -> usize {
        self.nodes[idx].dne.inflight_total()
    }

    /// Returns the node index hosting `fn_id`.
    pub fn node_index_of(&self, fn_id: u16) -> Option<usize> {
        let node = self.placement.borrow().node_of(fn_id)?;
        self.nodes.iter().position(|n| n.id == node)
    }

    /// Registers chain-aware endpoints for every distinct function of
    /// `chain`, using `exec_cost` to price each function's logic. Functions
    /// must already be placed.
    pub fn register_chain(
        &self,
        chain: &ChainSpec,
        exec_cost: impl Fn(u16) -> SimDuration,
        on_complete: CompletionFn,
    ) {
        let on_complete = self.hook_completion(on_complete);
        let chain = Rc::new(chain.clone());
        for f in chain.functions() {
            let idx = self
                .node_index_of(f)
                .unwrap_or_else(|| panic!("function {f} is not placed"));
            for idx in self.deploy_indices(f, idx) {
                let node = &self.nodes[idx];
                let pool = self.pool(chain.tenant, idx).clone();
                let ep = ChainFunction::endpoint(
                    chain.clone(),
                    exec_cost(f),
                    pool,
                    node.cpu.clone(),
                    node.iolib.clone(),
                    on_complete.clone(),
                );
                node.iolib.register_function(f, chain.tenant, ep);
            }
        }
    }

    /// The node indices a function is deployed on: its placement plus any
    /// standby registered via [`Cluster::place_with_backup`].
    fn deploy_indices(&self, fn_id: u16, placed_idx: usize) -> Vec<usize> {
        let mut idxs = vec![placed_idx];
        if let Some(&(primary_idx, backup_idx)) = self.backups.get(&fn_id) {
            for extra in [primary_idx, backup_idx] {
                if !idxs.contains(&extra) {
                    idxs.push(extra);
                }
            }
        }
        idxs
    }

    /// Registers DAG-aware endpoints for every function of `dag` (the
    /// paper's fan-out/fan-in dataflow layered on the same primitives).
    pub fn register_dag(
        &self,
        dag: &runtime::DagSpec,
        exec_cost: impl Fn(u16) -> SimDuration,
        on_complete: CompletionFn,
    ) {
        let on_complete = self.hook_completion(on_complete);
        let dag = Rc::new(dag.clone());
        for f in dag.functions() {
            let idx = self
                .node_index_of(f)
                .unwrap_or_else(|| panic!("function {f} is not placed"));
            for idx in self.deploy_indices(f, idx) {
                let node = &self.nodes[idx];
                let pool = self.pool(dag.tenant, idx).clone();
                let ep = runtime::DagFunction::endpoint(
                    dag.clone(),
                    f,
                    exec_cost(f),
                    pool,
                    node.cpu.clone(),
                    node.iolib.clone(),
                    on_complete.clone(),
                );
                node.iolib.register_function(f, dag.tenant, ep);
            }
        }
    }

    /// Wraps a user completion so the trace pipeline (when enabled) drains
    /// each finished trace before the user callback observes it.
    fn hook_completion(&self, on_complete: CompletionFn) -> CompletionFn {
        let hub = self.obs_hub.clone();
        Rc::new(move |sim, req| {
            let pressure_update = {
                let mut h = hub.borrow_mut();
                let mut update = None;
                if let Some(p) = h.pipeline.as_mut() {
                    // An SLO burn-alert rising edge takes its dump here;
                    // retrievable via last_dump() after the run.
                    p.on_complete(sim.now(), req);
                    let alerting = p.alerting_tenants().len();
                    if alerting != h.last_alerting {
                        h.last_alerting = alerting;
                        // Each alerting tenant discounts effective
                        // capacity a notch (floored), so ingress sheds
                        // before the whole error budget is gone.
                        let pressure = (1.0 - 0.1 * alerting as f64).max(0.5);
                        update = h.health.clone().map(|hm| (hm, pressure));
                    }
                } else {
                    // No pipeline draining traces: still retire the
                    // request's causal cursors so the per-ring maps track
                    // in-flight requests, not every request ever seen.
                    h.tracer.retire(req);
                }
                update
            };
            if let Some((hm, pressure)) = pressure_update {
                hm.set_slo_pressure(sim, pressure);
            }
            on_complete(sim, req);
        })
    }

    /// Injects one request into a DAG's root function.
    pub fn inject_dag(&self, sim: &mut Sim, dag: &runtime::DagSpec, req_id: u64) -> bool {
        let Some(idx) = self.node_index_of(dag.root) else {
            return false;
        };
        let pool = self.pool(dag.tenant, idx);
        let Ok(mut buf) = pool.get() else {
            return false;
        };
        let mut payload = runtime::encode_request_payload(req_id, 64);
        runtime::dag::set_dag_header(
            &mut payload,
            runtime::dag::DagMsg::Call,
            runtime::dag::CLIENT_CALLER,
        );
        let sampled = self.stamp_root_ctx(&mut payload, req_id, idx);
        if buf.write_payload(&payload).is_err() {
            return false;
        }
        self.nodes[idx].iolib.send_traced(
            sim,
            dag.tenant,
            buf.into_desc(dag.root),
            Some((req_id, sampled)),
        );
        true
    }

    /// Roots a trace at injection: applies the ingress sampling decision
    /// (direct injection is its own ingress when no gateway made the call),
    /// adopts any gateway-side cursor (the ingress records its spans under
    /// a synthetic node id, linked when it forwards the same request id)
    /// and stamps the initial on-wire context into the payload. An
    /// unsampled request leaves the payload's ctx flags at zero, so every
    /// downstream component skips its span sites on that one bit.
    /// Returns the sampling decision so injectors can pass it along with
    /// the descriptor instead of re-peeking the payload downstream.
    fn stamp_root_ctx(&self, payload: &mut [u8], req_id: u64, entry_idx: usize) -> bool {
        let hub = self.obs_hub.borrow();
        if !hub.tracer.decide_sample(req_id) {
            return false;
        }
        let entry_node = self.nodes[entry_idx].id.0 as u32;
        let gw = hub.tracer.cursor(req_id, ingress::gateway::GATEWAY_NODE);
        hub.tracer.adopt_parent(req_id, entry_node, gw);
        obs::ctx::write_ctx(payload, gw, true);
        true
    }

    /// Injects one request into a chain: writes the payload into the entry
    /// node's pool and delivers the descriptor to the entry function.
    ///
    /// Returns `false` when the entry pool is exhausted (the request is
    /// shed, as a real admission controller would).
    pub fn inject(
        &self,
        sim: &mut Sim,
        chain: &ChainSpec,
        req_id: u64,
        payload_len: usize,
    ) -> bool {
        self.inject_inner(sim, chain, req_id, payload_len, 0)
    }

    /// Like [`Cluster::inject`], but stamps an absolute `deadline` into the
    /// on-wire context: every downstream stage (engine send/retry paths,
    /// function dispatch) cancels the request once it expires, surfacing a
    /// typed `DeadlineExceeded` failure instead of wasted work.
    pub fn inject_with_deadline(
        &self,
        sim: &mut Sim,
        chain: &ChainSpec,
        req_id: u64,
        payload_len: usize,
        deadline: SimTime,
    ) -> bool {
        self.inject_inner(sim, chain, req_id, payload_len, deadline.as_nanos())
    }

    fn inject_inner(
        &self,
        sim: &mut Sim,
        chain: &ChainSpec,
        req_id: u64,
        payload_len: usize,
        deadline_ns: u64,
    ) -> bool {
        let entry = chain.entry();
        let Some(idx) = self.node_index_of(entry) else {
            return false;
        };
        let pool = self.pool(chain.tenant, idx);
        let Ok(mut buf) = pool.get() else {
            return false;
        };
        // Payloads are sized to carry the on-wire trace context (24 bytes,
        // deadline included) even when the caller asked for less.
        let mut payload = runtime::encode_request_payload(req_id, payload_len.max(obs::CTX_REGION));
        runtime::set_hop(&mut payload, 0);
        if deadline_ns != 0 {
            obs::write_deadline_ns(&mut payload, deadline_ns);
        }
        let sampled = self.stamp_root_ctx(&mut payload, req_id, idx);
        if buf.write_payload(&payload).is_err() {
            return false;
        }
        self.nodes[idx].iolib.send_traced(
            sim,
            chain.tenant,
            buf.into_desc(entry),
            Some((req_id, sampled)),
        );
        true
    }

    /// Installs `tracer` on every node's I/O library and network engine
    /// plus the fabric, so one tracer sees a request's spans — including
    /// fault-plane annotations — across the whole cluster.
    ///
    /// Call before [`Cluster::enable_trace_pipeline`] so the pipeline
    /// drains the same tracer.
    pub fn set_tracer(&self, tracer: &obs::Tracer) {
        for n in &self.nodes {
            n.iolib.set_tracer(tracer.clone());
        }
        self.fabric.set_tracer(tracer.clone());
        self.obs_hub.borrow_mut().tracer = tracer.clone();
    }

    /// Returns a handle to the installed tracer (disabled by default).
    /// Load drivers use it to make the ingress sampling decision when they
    /// inject requests directly, without a gateway in front.
    pub fn tracer(&self) -> obs::Tracer {
        self.obs_hub.borrow().tracer.clone()
    }

    /// Enables the trace pipeline: completed traces drain through the
    /// tail sampler, flight recorder and (optional) per-tenant SLO burn
    /// monitor; a typed `DeliveryFailure` or an SLO burn freezes a dump.
    pub fn enable_trace_pipeline(&self, cfg: obs::PipelineConfig) {
        let mut hub = self.obs_hub.borrow_mut();
        let tracer = hub.tracer.clone();
        hub.pipeline = Some(obs::TracePipeline::new(tracer, cfg));
    }

    /// Runs `f` against the trace pipeline, when one is enabled.
    pub fn with_trace_pipeline<R>(
        &self,
        f: impl FnOnce(&mut obs::TracePipeline) -> R,
    ) -> Option<R> {
        self.obs_hub.borrow_mut().pipeline.as_mut().map(f)
    }

    /// Takes an explicit flight-recorder dump: the current ring of recent
    /// traces, SLO counters and metric deltas as one self-contained JSON
    /// bundle. Returns `None` when no pipeline is enabled.
    pub fn dump_flight_recorder(&self, sim: &Sim) -> Option<obs::JsonValue> {
        self.obs_hub
            .borrow_mut()
            .pipeline
            .as_mut()
            .map(|p| p.trigger(obs::TriggerReason::Explicit, sim.now()).clone())
    }

    /// Enables node health tracking and automatic failover: transport
    /// `DeliveryFailure`s aimed at a node walk its state machine
    /// (`Healthy → Suspect → Down → Draining → Healthy`), entering `Down`
    /// fails every backed-up function over ([`Cluster::fail_over_node`]),
    /// and recovery (driven by fault-plane probes until `until`) restores
    /// them after the drain hold-down.
    ///
    /// Call after every [`Cluster::place_with_backup`], and wire the
    /// returned monitor's capacity handler to the gateway's admission
    /// controller if one is running.
    pub fn enable_health_monitor(
        self: &Rc<Self>,
        sim: &mut Sim,
        cfg: crate::health::HealthConfig,
        until: SimTime,
    ) -> crate::health::HealthMonitor {
        let monitor = crate::health::HealthMonitor::new(cfg, self.nodes.iter().map(|n| n.id));
        monitor.set_tracer(self.obs_hub.borrow().tracer.clone());
        let cluster = Rc::clone(self);
        monitor.set_down_handler(Rc::new(move |_sim, node| {
            if let Some(idx) = cluster.nodes.iter().position(|n| n.id == node) {
                cluster.fail_over_node(idx);
            }
        }));
        let cluster = Rc::clone(self);
        monitor.set_recovered_handler(Rc::new(move |_sim, node| {
            if let Some(idx) = cluster.nodes.iter().position(|n| n.id == node) {
                cluster.restore_node(idx);
            }
        }));
        self.obs_hub.borrow_mut().health = Some(monitor.clone());
        monitor.start_probes(sim, self.fabric.clone(), until);
        monitor
    }

    /// Attaches the fleet lifecycle controller so its lifecycle states and
    /// counters are emitted as `fleet_*` gauges on every
    /// [`Cluster::sample_obs`] pass.
    pub fn attach_fleet(&self, controller: crate::fleetctl::FleetController) {
        self.obs_hub.borrow_mut().fleet = Some(controller);
    }

    /// Installs `handler` on the cluster failure dispatcher, so a delivery
    /// the DNE gave up on (retry budget exhausted, no reconnectable route)
    /// reaches one place — typically the ingress, which answers the client
    /// with a `503` instead of leaving the request hanging. When the trace
    /// pipeline is enabled it records the failure (and takes its dump)
    /// before the handler runs.
    pub fn set_delivery_failure_handler(&self, handler: dne::DeliveryFailureHandler) {
        self.obs_hub.borrow_mut().user_failure = Some(handler);
    }

    /// Samples the cluster's observability signals into `reg` at virtual
    /// time `now`: per-tenant TX queue depth, DWRR deficit and shadow-QP
    /// hit rate as labelled series, plus per-node engine gauges and RBR
    /// counters. Call periodically (see [`Cluster::start_obs_sampler`]);
    /// `window` should equal the sampling cadence so each tick finalizes
    /// the previous series point.
    pub fn sample_obs(&self, now: SimTime, reg: &obs::MetricsRegistry, window: SimDuration) {
        // TimeSeries aggregates to a per-second rate; scale each sampled
        // level by the window so the stored points keep level semantics.
        let w_s = window.as_secs_f64();
        // Open a sampling epoch: any gauge not written during this pass
        // (e.g. a ratio whose denominator stayed zero) reads as stale in
        // snapshots instead of silently holding its old value.
        reg.begin_sample();
        {
            let mut hub = self.obs_hub.borrow_mut();
            if let Some(p) = hub.pipeline.as_mut() {
                // One burn-rate series point per tenant per window.
                p.sample_burn(now);
            }
            if hub.tracer.is_enabled() {
                reg.gauge("tracer_spans_dropped", &[])
                    .set(hub.tracer.dropped() as f64);
                reg.gauge("tracer_ring_flushes", &[])
                    .set(hub.tracer.ring_flushes() as f64);
                reg.gauge("tracer_flush_ns", &[])
                    .set(hub.tracer.flush_wall_ns() as f64);
            }
            if let Some(h) = hub.health.as_ref() {
                reg.gauge("cluster_capacity_factor", &[])
                    .set(h.healthy_fraction());
                for (node, state) in h.states() {
                    let label = node.0.to_string();
                    reg.gauge("node_health_state", &[("node", label.as_str())])
                        .set(state.as_gauge());
                }
            }
            if let Some(fc) = hub.fleet.as_ref() {
                let c = fc.counters();
                reg.gauge("fleet_upgrades_total", &[])
                    .set(c.upgrades_completed as f64);
                reg.gauge("fleet_waves_total", &[])
                    .set(c.waves_completed as f64);
                reg.gauge("fleet_rebalances_total", &[])
                    .set(c.rebalances as f64);
                reg.gauge("fleet_stranded_routes_total", &[])
                    .set(c.stranded_routes as f64);
                reg.gauge("fleet_drain_deadline_exceeded_total", &[])
                    .set(c.drain_deadline_exceeded as f64);
                reg.gauge("fleet_decommissions_total", &[])
                    .set(c.decommissions as f64);
                reg.gauge("fleet_provisions_total", &[])
                    .set(c.provisions as f64);
                reg.gauge("fleet_wave_active", &[])
                    .set(if fc.wave_active() { 1.0 } else { 0.0 });
                let counts = fc.lifecycle_counts();
                reg.gauge("fleet_nodes_in_service", &[])
                    .set(counts.in_service as f64);
                reg.gauge("fleet_nodes_draining", &[])
                    .set(counts.draining as f64);
                reg.gauge("fleet_nodes_upgrading", &[])
                    .set(counts.upgrading as f64);
                reg.gauge("fleet_nodes_decommissioned", &[])
                    .set(counts.decommissioned as f64);
                for (idx, node) in self.nodes.iter().enumerate() {
                    let label = idx.to_string();
                    reg.gauge("fleet_node_wire_version", &[("node", label.as_str())])
                        .set(node.dne.wire_version() as f64);
                }
            }
        }
        for (idx, node) in self.nodes.iter().enumerate() {
            let node_label = idx.to_string();
            let nl = [("node", node_label.as_str())];
            let stats = node.dne.stats();
            reg.gauge("dne_engine_queued", &nl)
                .set(node.dne.queued() as f64);
            reg.gauge("dne_tx_posted_total", &nl)
                .set(stats.tx_posted as f64);
            reg.gauge("dne_rx_delivered_total", &nl)
                .set(stats.rx_delivered as f64);
            reg.gauge("dne_drops_total", &nl).set(stats.drops as f64);
            reg.gauge("dne_retries_total", &nl)
                .set(stats.retries as f64);
            reg.gauge("dne_failovers_total", &nl)
                .set(stats.failovers as f64);
            reg.gauge("dne_reconnects_total", &nl)
                .set(stats.reconnects as f64);
            reg.gauge("dne_give_ups_total", &nl)
                .set(stats.give_ups as f64);
            reg.gauge("rbr_replenishes_total", &nl)
                .set(stats.replenishes as f64);
            reg.gauge("rbr_replenish_failures_total", &nl)
                .set(stats.replenish_failures as f64);
            reg.gauge("qp_cache_deactivations_total", &nl)
                .set(node.dne.conn_deactivations() as f64);
            reg.gauge("rnic_active_qps", &nl)
                .set(self.fabric.active_qp_count(node.id) as f64);
            // Elastic control-plane thrash signals: cold RC establishments
            // vs pre-warm claims on the reconnect path, LRU evictions from
            // the bounded active set, and the pool-wide pre-warm hit rate.
            reg.gauge("qp_cold_connects_total", &nl)
                .set(stats.cold_connects as f64);
            reg.gauge("qp_prewarm_claims_total", &nl)
                .set(stats.prewarm_claims as f64);
            reg.gauge("qp_evictions_total", &nl)
                .set(node.dne.conn_evictions() as f64);
            reg.gauge("qp_teardowns_total", &nl)
                .set(node.dne.conn_teardowns() as f64);
            reg.gauge("qp_prewarm_hit_rate", &nl).set_ratio(
                stats.prewarm_claims,
                stats.prewarm_claims + stats.cold_connects,
            );
            for t in node.dne.tenant_ids() {
                let tenant_label = t.0.to_string();
                let labels = [
                    ("node", node_label.as_str()),
                    ("tenant", tenant_label.as_str()),
                ];
                reg.series("dne_tx_queue_depth", &labels, window)
                    .record_at(now, node.dne.tenant_backlog(t) as f64 * w_s);
                if let Some(d) = node.dne.dwrr_deficit(t) {
                    reg.series("dne_dwrr_deficit", &labels, window)
                        .record_at(now, d * w_s);
                }
                let (h, m) = node.dne.conn_hit_miss_of(t);
                if h + m > 0 {
                    reg.series("shadow_qp_hit_rate", &labels, window)
                        .record_at(now, h as f64 / (h + m) as f64 * w_s);
                }
            }
        }
    }

    /// Schedules a recurring [`Cluster::sample_obs`] every `every` until
    /// `until`; the series build up inside `reg` as the simulation runs.
    pub fn start_obs_sampler(
        self: &Rc<Self>,
        sim: &mut Sim,
        reg: Rc<obs::MetricsRegistry>,
        every: SimDuration,
        until: SimTime,
    ) {
        let cluster = Rc::clone(self);
        sim.schedule_after(every, move |sim| {
            cluster.sample_obs(sim.now(), &reg, every);
            // Engine self-observation: how fast the simulator itself is
            // chewing through events (wall clock, not virtual time).
            let p = sim.profile();
            reg.gauge("sim_events_per_sec", &[]).set(p.events_per_sec());
            reg.gauge("sim_executed_events_total", &[])
                .set(p.executed_events as f64);
            reg.gauge("sim_pending_events", &[])
                .set(p.pending_events as f64);
            if sim.now() < until {
                Cluster::start_obs_sampler(&cluster, sim, reg, every, until);
            }
        });
    }

    /// Schedules a recurring out-of-band flush of the tracer's hot span
    /// rings into its cold per-trace staging tier, every `every` until
    /// `until`. The flush runs as an ordinary (low-priority) simulation
    /// timer, off the request path: data-plane span sites only ever write
    /// to the rings, and the causal-tree / critical-path / flight-recorder
    /// machinery consumes staged spans at its leisure. A no-op on a
    /// disabled tracer.
    pub fn start_trace_flusher(&self, sim: &mut Sim, every: SimDuration, until: SimTime) {
        let tracer = self.obs_hub.borrow().tracer.clone();
        if !tracer.is_enabled() {
            return;
        }
        fn tick(tracer: obs::Tracer, sim: &mut Sim, every: SimDuration, until: SimTime) {
            sim.schedule_after(every, move |sim| {
                tracer.flush_closed();
                if sim.now() < until {
                    tick(tracer, sim, every, until);
                }
            });
        }
        tick(tracer, sim, every, until);
    }

    /// Sum of network-engine core utilization across nodes over `[a, b]`
    /// (the paper's "DPU utilization" for DNE runs, "CPU" for CNE).
    pub fn engine_utilization(&self, a: SimTime, b: SimTime) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.dne.utilization_cores(a, b))
            .sum()
    }

    /// Sum of host-core utilization across nodes over `[a, b]`.
    pub fn host_utilization(&self, a: SimTime, b: SimTime) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.cpu.borrow().utilization_cores(a, b))
            .sum()
    }

    /// Registers every node's exemplar-carrying engine latency histograms
    /// (DWRR queue wait, retry latency, RNIC post-to-completion) with
    /// `reg`, labelled by node so the aggregation layer can project the
    /// label away and merge them exactly. The registry reads the engines'
    /// own handles: each sample is recorded once, at its site.
    pub fn export_latency_histograms(&self, reg: &obs::MetricsRegistry) {
        for (idx, node) in self.nodes.iter().enumerate() {
            let label = idx.to_string();
            let nl = [("node", label.as_str())];
            for (name, handle) in node.dne.latency_histograms() {
                reg.register_histogram(name, &nl, handle);
            }
        }
    }

    /// Folds every engine's per-pipeline-stage busy core-time into one
    /// SoC profiler table over `[0, horizon_ns]` (rows aggregate across
    /// nodes, under the `dne_soc` processor name).
    pub fn soc_stage_table(&self, horizon_ns: u64) -> obs::SocStageTable {
        let mut stages: Vec<(&'static str, u128)> = Vec::new();
        for node in &self.nodes {
            for (stage, busy) in node.dne.stage_busy() {
                match stages.iter_mut().find(|(s, _)| *s == stage) {
                    Some((_, sum)) => *sum += busy,
                    None => stages.push((stage, busy)),
                }
            }
        }
        let mut table = obs::SocStageTable::new(horizon_ns);
        for (stage, busy) in stages {
            table.push("dne_soc", stage, busy);
        }
        table
    }
}

impl Drop for Cluster {
    /// Each function endpoint closure owns a clone of its node's `IoLib`,
    /// which (with its DNE) owns the endpoints. Unregistering them breaks
    /// that cycle, so a dropped cluster frees its nodes and pools.
    fn drop(&mut self) {
        for node in &self.nodes {
            node.iolib.unregister_functions();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ClosedLoop;

    #[test]
    fn cluster_builds_and_runs_an_echo_chain() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        cluster.place(1, 0);
        cluster.place(2, 1);
        let driver = ClosedLoop::new(SimTime::ZERO + SimDuration::from_millis(100));
        cluster.register_chain(&chain, |_| SimDuration::from_micros(5), driver.completion());
        driver.start(&mut sim, &cluster, &chain, 8, 256);
        sim.run();
        assert!(driver.completed() > 500, "got {}", driver.completed());
        // Engines did real work on both nodes.
        assert!(cluster.nodes[0].dne.stats().tx_posted > 0);
        assert!(cluster.nodes[1].dne.stats().tx_posted > 0);
        assert_eq!(cluster.nodes[0].dne.stats().drops, 0);
    }

    #[test]
    fn dag_fan_out_beats_the_equivalent_sequential_chain() {
        use std::cell::Cell;
        // Frontend fans out to four services in parallel; the sequential
        // chain visits the same services one at a time. Same total work,
        // but the DAG overlaps it.
        let run_dag = || {
            let mut sim = Sim::new();
            let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
            let tenant = TenantId(1);
            cluster.add_tenant(&mut sim, tenant, 1).unwrap();
            for (f, node) in [(1u16, 0usize), (2, 1), (3, 1), (4, 1), (5, 0)] {
                cluster.place(f, node);
            }
            let dag = runtime::DagSpec::new("fanout", tenant, 1, &[(1, &[2, 3, 4, 5][..])]);
            let done: Rc<std::cell::Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
            let sink = done.clone();
            cluster.register_dag(
                &dag,
                |_| SimDuration::from_micros(50),
                Rc::new(move |sim, _| sink.set(Some(sim.now()))),
            );
            let t0 = sim.now();
            assert!(cluster.inject_dag(&mut sim, &dag, 7));
            sim.run();
            (done.get().expect("completed") - t0).as_micros_f64()
        };
        let run_chain = || {
            let mut sim = Sim::new();
            let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
            let tenant = TenantId(1);
            cluster.add_tenant(&mut sim, tenant, 1).unwrap();
            for (f, node) in [(1u16, 0usize), (2, 1), (3, 1), (4, 1), (5, 0)] {
                cluster.place(f, node);
            }
            let chain = ChainSpec::new("seq", tenant, vec![1, 2, 1, 3, 1, 4, 1, 5, 1]);
            let done: Rc<std::cell::Cell<Option<SimTime>>> = Rc::new(Cell::new(None));
            let sink = done.clone();
            cluster.register_chain(
                &chain,
                |_| SimDuration::from_micros(50),
                Rc::new(move |sim, _| sink.set(Some(sim.now()))),
            );
            let t0 = sim.now();
            assert!(cluster.inject(&mut sim, &chain, 7, 64));
            sim.run();
            (done.get().expect("completed") - t0).as_micros_f64()
        };
        let dag_us = run_dag();
        let chain_us = run_chain();
        assert!(
            dag_us < 0.6 * chain_us,
            "fan-out ({dag_us}us) must overlap work the chain ({chain_us}us) serializes"
        );
    }

    #[test]
    fn obs_sampling_builds_per_tenant_series_and_traces_requests() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        cluster.place(1, 0);
        cluster.place(2, 1);
        let tracer = obs::Tracer::enabled();
        cluster.set_tracer(&tracer);
        let t0 = sim.now();
        let driver = ClosedLoop::new(t0 + SimDuration::from_millis(10));
        cluster.register_chain(&chain, |_| SimDuration::from_micros(5), driver.completion());
        driver.start(&mut sim, &cluster, &chain, 4, 256);
        let cluster = Rc::new(cluster);
        let reg = Rc::new(obs::MetricsRegistry::new());
        cluster.start_obs_sampler(
            &mut sim,
            Rc::clone(&reg),
            SimDuration::from_millis(1),
            t0 + SimDuration::from_millis(10),
        );
        sim.run();
        assert!(driver.completed() > 0);
        // Per-tenant labelled series exist on both nodes.
        let labels = [("node", "0"), ("tenant", "1")];
        let depth = reg.series("dne_tx_queue_depth", &labels, SimDuration::from_secs(60));
        assert!(!depth.points().is_empty());
        let deficit = reg.series("dne_dwrr_deficit", &labels, SimDuration::from_secs(60));
        assert!(!deficit.points().is_empty());
        let hit = reg.series("shadow_qp_hit_rate", &labels, SimDuration::from_secs(60));
        assert!(!hit.points().is_empty());
        let snap = reg.snapshot();
        assert!(snap.gauge("dne_tx_posted_total", &[("node", "0")]).unwrap() > 0.0);
        assert!(snap.to_text().contains("dne_tx_queue_depth"));
        // Every completed request traced the full pipeline: at least six
        // distinct stages (the acceptance bar for the Perfetto export).
        let some_req = tracer.records()[0].req_id;
        assert!(
            tracer.stages_of(some_req).len() >= 6,
            "stages: {:?}",
            tracer.stages_of(some_req)
        );
    }

    #[test]
    fn inject_fails_without_placement() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("c", tenant, vec![5, 6]);
        assert!(!cluster.inject(&mut sim, &chain, 0, 64));
    }

    #[test]
    fn utilization_accessors_cover_engines_and_hosts() {
        let mut sim = Sim::new();
        let mut cluster = Cluster::new(&mut sim, ClusterConfig::default());
        let tenant = TenantId(1);
        cluster.add_tenant(&mut sim, tenant, 1).unwrap();
        let chain = ChainSpec::new("echo", tenant, vec![1, 2, 1]);
        cluster.place(1, 0);
        cluster.place(2, 1);
        let t0 = sim.now();
        let driver = ClosedLoop::new(t0 + SimDuration::from_millis(20));
        cluster.register_chain(
            &chain,
            |_| SimDuration::from_micros(50),
            driver.completion(),
        );
        driver.start(&mut sim, &cluster, &chain, 16, 128);
        sim.run();
        let t1 = sim.now();
        assert!(cluster.engine_utilization(t0, t1) > 0.0);
        assert!(cluster.host_utilization(t0, t1) > 0.0);
    }
}
