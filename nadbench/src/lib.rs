//! The repository benchmark: three seeded open-loop workloads on the
//! full-fidelity `nadino::cluster::Cluster`, with end-to-end metrics from
//! an untraced run and a per-crate split from a separate traced run.
//!
//! Workloads (`README.md` says why each was chosen):
//! - `echo`: a 64 B two-sided echo chain on 2 nodes, 1 tenant — the
//!   per-message data plane;
//! - `boutique`: three Online Boutique tenants (3:2:1) sending real
//!   HTTP/1.1 through a weighted gateway — ingress, runtime, membuf, obs;
//! - `tenants`: 1024 Zipf-skewed tenants sending 4 KiB one-way transfers
//!   through a throttled DNE with 0.5 % link loss — per-tenant scheduler
//!   and connection state, retries, provisioning.

pub mod bed;
pub mod calib;
pub mod cli;
pub mod gen;
pub mod measure;
pub mod trace;

use simcore::SimDuration;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Echo,
    Boutique,
    Tenants,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Echo, Workload::Boutique, Workload::Tenants];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Echo => "echo",
            Workload::Boutique => "boutique",
            Workload::Tenants => "tenants",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Load and rate-search parameters of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Offered load of the measured rounds.
    pub rate_rps: f64,
    /// Arrivals per measured round.
    pub requests: usize,
    /// The p99.9 latency limit `slo_rps` is searched against.
    pub slo_limit: SimDuration,
    /// Rate range the search bisects.
    pub search: (f64, f64),
    pub search_steps: u32,
    /// Arrivals per search probe.
    pub probe_requests: usize,
}

/// The fixed parameters of each workload.
pub fn spec(workload: Workload) -> Spec {
    match workload {
        Workload::Echo => Spec {
            rate_rps: 80_000.0,
            requests: 400_000,
            slo_limit: SimDuration::from_micros(200),
            search: (40_000.0, 160_000.0),
            search_steps: 6,
            probe_requests: 60_000,
        },
        Workload::Boutique => Spec {
            rate_rps: 20_000.0,
            requests: 200_000,
            slo_limit: SimDuration::from_millis(3),
            search: (10_000.0, 40_000.0),
            search_steps: 5,
            probe_requests: 50_000,
        },
        Workload::Tenants => Spec {
            rate_rps: 100_000.0,
            requests: 600_000,
            slo_limit: SimDuration::from_micros(500),
            search: (50_000.0, 150_000.0),
            search_steps: 5,
            probe_requests: 60_000,
        },
    }
}
