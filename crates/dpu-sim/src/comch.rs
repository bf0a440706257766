//! Cost model of the DOCA-Comch-style descriptor channels between host
//! functions and the DNE.
//!
//! §3.5.4 evaluates three ways to move 16-byte buffer descriptors across
//! the PCIe boundary:
//!
//! - **Comch-P**: a producer-consumer ring with busy polling. Lowest
//!   latency, but it ties up one host core per function, and DOCA's
//!   "Progress Engine" performs its polling through non-blocking
//!   `epoll_wait`, whose per-iteration cost grows with the number of
//!   monitored function endpoints — the reason Comch-P overloads beyond
//!   about six functions in Fig. 9.
//! - **Comch-E**: event-driven send/receive over blocking epoll. Slower
//!   per message but flat in the number of functions and needs no
//!   dedicated cores; NADINO's choice.
//! - **TCP**: the loopback-socket baseline, paying kernel and protocol
//!   costs on every descriptor.
//!
//! [`ComchCosts`] is the calibrated timing model the DNE charges per
//! descriptor.

use simcore::SimDuration;

/// The channel variant in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// Event-driven Comch (blocking epoll). NADINO's default.
    ComchE,
    /// Busy-polling Comch (producer-consumer ring + progress engine).
    ComchP,
    /// Kernel TCP loopback baseline.
    Tcp,
}

/// Calibrated per-variant channel costs.
///
/// All `*_service` values are *reference* (host-Xeon) CPU time; callers
/// scale them with [`dpu_sim::soc::Processor::scale`] for the core the
/// work actually runs on.
///
/// [`dpu_sim::soc::Processor::scale`]: crate::soc::Processor::scale
#[derive(Debug, Clone)]
pub struct ComchCosts {
    /// Descriptor propagation latency across PCIe (or loopback), one way.
    pub one_way_latency: SimDuration,
    /// Fixed DNE-side CPU work per descriptor.
    pub dne_service_base: SimDuration,
    /// Additional DNE-side CPU work per descriptor *per monitored
    /// function endpoint* (the progress-engine epoll term; zero for
    /// variants whose cost does not scale with endpoints).
    pub dne_service_per_endpoint: SimDuration,
    /// Host-function-side CPU work per descriptor.
    pub host_service: SimDuration,
    /// Whether the variant pins one host core per function (Comch-P).
    pub dedicated_host_core: bool,
}

impl ComchCosts {
    /// Returns the calibrated defaults for `kind`.
    pub fn for_kind(kind: ChannelKind) -> ComchCosts {
        match kind {
            ChannelKind::ComchE => ComchCosts {
                one_way_latency: SimDuration::from_nanos(4_300),
                dne_service_base: SimDuration::from_nanos(1_500),
                dne_service_per_endpoint: SimDuration::ZERO,
                host_service: SimDuration::from_nanos(900),
                dedicated_host_core: false,
            },
            ChannelKind::ComchP => ComchCosts {
                one_way_latency: SimDuration::from_nanos(600),
                dne_service_base: SimDuration::from_nanos(400),
                dne_service_per_endpoint: SimDuration::from_nanos(250),
                host_service: SimDuration::from_nanos(400),
                dedicated_host_core: true,
            },
            ChannelKind::Tcp => ComchCosts {
                one_way_latency: SimDuration::from_nanos(15_000),
                dne_service_base: SimDuration::from_nanos(6_000),
                dne_service_per_endpoint: SimDuration::ZERO,
                host_service: SimDuration::from_nanos(4_000),
                dedicated_host_core: false,
            },
        }
    }

    /// DNE-side reference CPU time per descriptor when `endpoints`
    /// function endpoints are monitored.
    pub fn dne_service(&self, endpoints: usize) -> SimDuration {
        self.dne_service_base + self.dne_service_per_endpoint * endpoints as u64
    }

    /// Uncontended round-trip estimate for a descriptor echo with
    /// `endpoints` monitored endpoints, with DNE work scaled by
    /// `dne_factor` (the wimpy factor of the core running the DNE).
    pub fn echo_rtt(&self, endpoints: usize, dne_factor: f64) -> SimDuration {
        self.one_way_latency * 2
            + self.dne_service(endpoints).mul_f64(dne_factor)
            + self.host_service
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comch_p_beats_tcp_by_over_8x_at_one_function() {
        let p = ComchCosts::for_kind(ChannelKind::ComchP);
        let tcp = ComchCosts::for_kind(ChannelKind::Tcp);
        let dpu = 2.0;
        let rtt_p = p.echo_rtt(1, dpu).as_micros_f64();
        let rtt_tcp = tcp.echo_rtt(1, dpu).as_micros_f64();
        assert!(
            rtt_tcp / rtt_p > 8.0,
            "TCP {rtt_tcp}us vs Comch-P {rtt_p}us (paper: >8x)"
        );
    }

    #[test]
    fn comch_e_beats_tcp_by_around_3x() {
        let e = ComchCosts::for_kind(ChannelKind::ComchE);
        let tcp = ComchCosts::for_kind(ChannelKind::Tcp);
        let dpu = 2.0;
        let ratio = tcp.echo_rtt(4, dpu).as_micros_f64() / e.echo_rtt(4, dpu).as_micros_f64();
        assert!(
            (2.7..=3.8).contains(&ratio),
            "TCP/Comch-E ratio = {ratio} (paper: 2.7-3.8x)"
        );
    }

    #[test]
    fn comch_p_service_grows_with_endpoints_and_crosses_comch_e() {
        let p = ComchCosts::for_kind(ChannelKind::ComchP);
        let e = ComchCosts::for_kind(ChannelKind::ComchE);
        // Below ~6 endpoints P is cheaper per message; beyond, E wins.
        assert!(p.dne_service(2) < e.dne_service(2));
        assert!(
            p.dne_service(7) > e.dne_service(7),
            "progress engine makes Comch-P lose past ~6 functions"
        );
    }

    #[test]
    fn comch_e_is_flat_in_endpoints() {
        let e = ComchCosts::for_kind(ChannelKind::ComchE);
        assert_eq!(e.dne_service(1), e.dne_service(64));
    }

    #[test]
    fn only_comch_p_pins_host_cores() {
        assert!(ComchCosts::for_kind(ChannelKind::ComchP).dedicated_host_core);
        assert!(!ComchCosts::for_kind(ChannelKind::ComchE).dedicated_host_core);
        assert!(!ComchCosts::for_kind(ChannelKind::Tcp).dedicated_host_core);
    }
}
