//! Configuration and cost types for the network engine.

use dpu_sim::comch::{ChannelKind, ComchCosts};
use dpu_sim::soc::ProcessorKind;
use membuf::tenant::TenantId;
use simcore::SimDuration;

/// The IPC mechanism between the engine and host functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpcKind {
    /// DOCA Comch across the PCIe boundary (DNE on the DPU).
    Comch(ChannelKind),
    /// eBPF SK_MSG between host sockets (CNE on the host CPU, §4.3: the
    /// interrupt-driven model that throttles the CNE at high concurrency).
    SkMsg,
}

/// Unified IPC cost model (Comch variants and SK_MSG).
#[derive(Debug, Clone)]
pub struct IpcCosts {
    /// One-way descriptor delivery latency.
    pub one_way_latency: SimDuration,
    /// Fixed engine-side CPU work per descriptor (reference CPU time).
    pub engine_service_base: SimDuration,
    /// Engine-side work per descriptor per monitored endpoint.
    pub engine_service_per_endpoint: SimDuration,
    /// Engine-side work per descriptor *per queued item* at dispatch time —
    /// the interrupt-processing load term that makes SK_MSG degrade under
    /// concurrency (Mogul & Ramakrishnan receive-livelock effect).
    pub interrupt_per_queued: SimDuration,
    /// Host-function-side CPU work per descriptor.
    pub host_service: SimDuration,
}

impl IpcCosts {
    /// Returns the calibrated cost model for `kind`.
    pub fn for_kind(kind: IpcKind) -> IpcCosts {
        match kind {
            IpcKind::Comch(ck) => {
                let c = ComchCosts::for_kind(ck);
                IpcCosts {
                    one_way_latency: c.one_way_latency,
                    engine_service_base: c.dne_service_base,
                    engine_service_per_endpoint: c.dne_service_per_endpoint,
                    interrupt_per_queued: SimDuration::ZERO,
                    host_service: c.host_service,
                }
            }
            IpcKind::SkMsg => IpcCosts {
                one_way_latency: SimDuration::from_nanos(1_600),
                engine_service_base: SimDuration::from_nanos(500),
                engine_service_per_endpoint: SimDuration::ZERO,
                interrupt_per_queued: SimDuration::from_nanos(85),
                host_service: SimDuration::from_nanos(700),
            },
        }
    }

    /// Engine-side reference CPU time per descriptor given the number of
    /// monitored `endpoints` and currently `queued` items.
    pub fn engine_service(&self, endpoints: usize, queued: usize) -> SimDuration {
        self.engine_service_base
            + self.engine_service_per_endpoint * endpoints as u64
            + self.interrupt_per_queued * queued.min(64) as u64
    }
}

/// On-path vs. off-path DPU offloading (§4.1.1, Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadMode {
    /// Off-path: cross-processor shared memory; the RNIC DMA moves payloads
    /// directly between the wire and host memory. NADINO's design.
    OffPath,
    /// On-path: payloads staged in DPU memory and shuttled with the slow
    /// SoC DMA engine; the engine additionally programs each DMA op.
    OnPath,
}

/// TX scheduling policy across tenants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedPolicy {
    /// Deficit Weighted Round Robin with the given base quantum
    /// (messages per weight unit per round). NADINO's policy.
    Dwrr { quantum: f64 },
    /// First-come-first-served (the no-isolation baseline of Fig. 15).
    Fcfs,
}

/// Full engine configuration.
#[derive(Debug, Clone)]
pub struct DneConfig {
    /// Which silicon the engine's worker runs on.
    pub processor: ProcessorKind,
    /// Number of worker cores (the paper uses one per node and stresses
    /// NADINO needs only two wimpy DPU cores in total across two nodes).
    pub cores: usize,
    /// Optional wimpy-factor override (defaults to the processor kind's).
    pub wimpy_factor: Option<f64>,
    /// Engine ⇄ function IPC mechanism.
    pub ipc: IpcKind,
    /// On-path or off-path offloading.
    pub offload: OffloadMode,
    /// TX scheduling policy across tenants.
    pub sched: SchedPolicy,
    /// Reference CPU time of the TX stage (route lookup, connection pick,
    /// WR wrap and post).
    pub tx_stage: SimDuration,
    /// Reference CPU time of the RX stage (CQE handling, RBR lookup,
    /// descriptor forward).
    pub rx_stage: SimDuration,
    /// Reference CPU time to reap a send completion (buffer recycle).
    pub send_completion: SimDuration,
    /// Extra reference CPU time per message — the knob §4.2 uses to pin the
    /// engine's ceiling at ~110 K RPS on one DPU core.
    pub extra_per_msg: SimDuration,
    /// Reference CPU time to program one SoC DMA transfer (on-path only).
    pub dma_program: SimDuration,
    /// Receive buffers pre-posted per tenant.
    pub prepost_depth: usize,
    /// RC connections to establish per (tenant, peer) pair.
    pub conns_per_peer: usize,
    /// How many times a failed send is retried (shadow-QP failover with
    /// exponential backoff) before the engine reports a typed delivery
    /// failure upstream.
    pub retry_budget: u32,
    /// Base backoff before the first retry; each further attempt doubles it.
    pub retry_backoff: SimDuration,
    /// The on-wire CTX version this engine stamps and understands (see
    /// `obs::ctx`). Fleet rollouts run nodes at different versions side by
    /// side: sends are stamped at `min(self, peer)` so a not-yet-upgraded
    /// receiver owns every byte it parses, and deadline interpretation is
    /// disabled entirely below `obs::ctx::CTX_V2` (an old engine predates
    /// the deadline region).
    pub wire_version: u8,
}

impl Default for DneConfig {
    fn default() -> Self {
        DneConfig {
            processor: ProcessorKind::DpuArm,
            cores: 1,
            wimpy_factor: None,
            ipc: IpcKind::Comch(ChannelKind::ComchE),
            offload: OffloadMode::OffPath,
            sched: SchedPolicy::Dwrr { quantum: 1.0 },
            tx_stage: SimDuration::from_nanos(420),
            rx_stage: SimDuration::from_nanos(420),
            send_completion: SimDuration::from_nanos(120),
            extra_per_msg: SimDuration::ZERO,
            dma_program: SimDuration::from_nanos(350),
            prepost_depth: 256,
            conns_per_peer: 2,
            retry_budget: 3,
            retry_backoff: SimDuration::from_micros(10),
            wire_version: obs::ctx::CTX_CURRENT,
        }
    }
}

impl DneConfig {
    /// The paper's NADINO (DNE): off-path engine on one wimpy DPU core,
    /// Comch-E IPC, DWRR multi-tenancy.
    pub fn nadino_dne() -> Self {
        DneConfig::default()
    }

    /// The paper's NADINO (CNE): same engine on one host CPU core with
    /// SK_MSG IPC (no Comch needed when co-located with functions).
    pub fn nadino_cne() -> Self {
        DneConfig {
            processor: ProcessorKind::HostCpu,
            ipc: IpcKind::SkMsg,
            ..DneConfig::default()
        }
    }

    /// On-path DPU engine (Fig. 11's comparison point).
    pub fn on_path_dne() -> Self {
        DneConfig {
            offload: OffloadMode::OnPath,
            ..DneConfig::default()
        }
    }

    /// FCFS engine without multi-tenancy handling (Fig. 15's baseline).
    pub fn fcfs_dne() -> Self {
        DneConfig {
            sched: SchedPolicy::Fcfs,
            ..DneConfig::default()
        }
    }
}

/// Aggregate engine statistics, including the per-stage latency breakdown
/// the observability layer renders as a table. The histogram fields are
/// snapshots of the engine's own latency handles (the ones a metrics
/// registry exports), taken by `Dne::stats`.
#[derive(Debug, Clone, Default)]
pub struct DneStats {
    /// Descriptors accepted from host functions.
    pub submitted: u64,
    /// Messages posted to the RNIC.
    pub tx_posted: u64,
    /// Descriptors delivered to local functions.
    pub rx_delivered: u64,
    /// Send completions reaped.
    pub send_completions: u64,
    /// Descriptors dropped (redeem failure, missing route or endpoint,
    /// transport error).
    pub drops: u64,
    /// Receive-buffer replenishments that failed on an exhausted pool.
    pub replenish_failures: u64,
    /// Receive-buffer replenishments performed.
    pub replenishes: u64,
    /// Time each TX descriptor waited in the tenant scheduler between
    /// enqueue and DWRR/FCFS dequeue.
    pub tx_queue_wait: simcore::Histogram,
    /// Time from dispatch onto an engine core to service completion
    /// (run-to-completion stage time, including processor queueing).
    pub sched_delay: simcore::Histogram,
    /// Time from RNIC post to the reaped send completion.
    pub post_to_completion: simcore::Histogram,
    /// Failed sends re-posted (possibly on another pooled QP).
    pub retries: u64,
    /// Retries that landed on a different QP than the one that failed.
    pub failovers: u64,
    /// Background reconnects started after a `(tenant, peer)` pool ran dry.
    pub reconnects: u64,
    /// Sends abandoned after the retry budget (typed failure surfaced).
    pub give_ups: u64,
    /// Sends cancelled because the request's deadline expired before the
    /// engine could (re)post them.
    pub deadline_drops: u64,
    /// Time from the first post of a send to its terminal outcome, recorded
    /// only for sends that needed at least one retry.
    pub retry_latency: simcore::Histogram,
    /// Reconnects that paid the full RC establishment delay because no
    /// pre-warmed connection was stocked for the link.
    pub cold_connects: u64,
    /// Reconnects satisfied from the pre-warm stock (microsecond claim
    /// instead of tens-of-ms establishment).
    pub prewarm_claims: u64,
}

/// Why a send was abandoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureReason {
    /// Every attempt within the retry budget failed.
    RetryBudgetExhausted,
    /// No connection to the destination exists and none could be set up.
    NoConnection,
    /// The destination function has no installed route — the descriptor
    /// named a function the control plane never placed (or removed).
    UnknownDestination,
    /// The request's deadline expired before delivery; the send was
    /// cancelled rather than spent on work nobody is waiting for.
    DeadlineExceeded,
    /// The destination function's route points at a node the health
    /// monitor has marked down and no healthy replica exists — failing
    /// fast beats burning the retry budget against a corpse.
    DestinationDown,
}

/// A typed delivery failure the engine reports upstream once recovery is
/// exhausted — the signal the gateway turns into a `503` instead of letting
/// the request hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryFailure {
    pub tenant: TenantId,
    /// Destination function the payload was addressed to.
    pub dst_fn: u16,
    /// Request id (first eight payload bytes, LE; 0 when too short).
    pub req_id: u64,
    /// Send attempts made before giving up.
    pub attempts: u32,
    pub reason: FailureReason,
    /// Destination node the payload was bound for, when the route was
    /// known — the signal the health monitor attributes to a node.
    pub dst_node: Option<rdma_sim::NodeId>,
}

/// Per-tenant failure accounting (so a tenant whose QPs are failing does
/// not look healthy in aggregate stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantFailureStats {
    /// Descriptors of this tenant dropped.
    pub drops: u64,
    /// Failed sends of this tenant re-posted.
    pub retries: u64,
    /// Sends of this tenant abandoned after the retry budget.
    pub give_ups: u64,
    /// Sends of this tenant cancelled on deadline expiry.
    pub deadline_drops: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skmsg_interrupt_term_grows_with_queue() {
        let c = IpcCosts::for_kind(IpcKind::SkMsg);
        let idle = c.engine_service(4, 0);
        let loaded = c.engine_service(4, 40);
        assert!(loaded > idle);
        assert_eq!(
            (loaded - idle).as_nanos(),
            40 * c.interrupt_per_queued.as_nanos()
        );
    }

    #[test]
    fn interrupt_term_saturates() {
        let c = IpcCosts::for_kind(IpcKind::SkMsg);
        assert_eq!(c.engine_service(1, 64), c.engine_service(1, 10_000));
    }

    #[test]
    fn comch_costs_have_no_interrupt_term() {
        let c = IpcCosts::for_kind(IpcKind::Comch(ChannelKind::ComchE));
        assert_eq!(c.engine_service(4, 0), c.engine_service(4, 1_000));
    }

    #[test]
    fn presets_differ_in_the_right_dimensions() {
        let dne = DneConfig::nadino_dne();
        let cne = DneConfig::nadino_cne();
        assert_eq!(dne.processor, ProcessorKind::DpuArm);
        assert_eq!(cne.processor, ProcessorKind::HostCpu);
        assert_eq!(cne.ipc, IpcKind::SkMsg);
        assert_eq!(DneConfig::on_path_dne().offload, OffloadMode::OnPath);
        assert_eq!(DneConfig::fcfs_dne().sched, SchedPolicy::Fcfs);
    }
}
