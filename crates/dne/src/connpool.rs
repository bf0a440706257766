//! Elastic RC connection pooling with shadow-QP activation.
//!
//! §3.3: connection setup costs tens of milliseconds, so the DNE maintains
//! a pool of pre-established connections per `(tenant, peer node)` pair.
//! Following RoGUE's "shadow QP" mechanism, pooled QPs are *active* only
//! while they have work queued; inactive QPs consume no RNIC cache, so the
//! node only has to bound the number of simultaneously active QPs to avoid
//! cache thrashing.
//!
//! Under elastic multi-tenancy (Swift: the control plane, not the data
//! plane, is what collapses) the pool additionally:
//!
//! - keeps O(1) activation bookkeeping per pick — membership lives on the
//!   connection's metadata (`active_slot`), and reaping swap-removes from
//!   the active set, so pick cost never grows with the active population;
//! - deduplicates handles on insert: the same QP registered under two
//!   `(tenant, peer)` keys would otherwise be visited twice by audits and
//!   double-counted by the deactivation counters;
//! - bounds the active set (`ElasticConfig::active_capacity`) with LRU
//!   eviction of drained connections, modeling an RNIC QP cache that the
//!   engine refuses to thrash;
//! - lazily tears down connections idle past an age threshold
//!   (`ElasticConfig::idle_teardown_age`), releasing fabric state instead
//!   of holding a million tenants' QPs forever.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

use membuf::tenant::TenantId;
use rdma_sim::fabric::QpHandle;
use rdma_sim::{Fabric, NodeId, RdmaError};
use simcore::{SimDuration, SimTime};

/// Elastic lifecycle knobs for a [`ConnPool`]. The defaults (`0`/`None`)
/// reproduce the pre-elastic behavior exactly: unbounded active set, no
/// teardown.
#[derive(Debug, Clone, Copy, Default)]
pub struct ElasticConfig {
    /// Maximum simultaneously active (cache-charged) QPs; `0` = unbounded.
    /// When an activation would exceed the bound, the least-recently-used
    /// *drained* active QP is returned to shadow state (an eviction). Busy
    /// QPs are never evicted, so the bound can be transiently overshot
    /// rather than strand an in-flight send.
    pub active_capacity: usize,
    /// Tear down pooled connections that have sat in shadow state longer
    /// than this (`None` = keep forever). Teardown destroys the QP pair in
    /// the fabric — the next use pays a claim or a cold connect.
    pub idle_teardown_age: Option<SimDuration>,
}

/// Per-connection metadata: the activation slot (O(1) membership — bugfix
/// for the old per-pick linear `active.contains` scan) and recency marks
/// for LRU eviction and idle-age teardown.
#[derive(Debug, Clone, Copy)]
struct ConnMeta<K> {
    key: (K, NodeId),
    /// Index into the active vec while activated; `None` in shadow state.
    active_slot: Option<usize>,
    /// Last pick (or drain) instant — the idle-age clock.
    last_used: SimTime,
    /// Monotone pick counter — the LRU ordering key (strictly increasing,
    /// so eviction order is deterministic even within one instant).
    last_tick: u64,
}

/// A pool of established RC connections keyed by `(tenant, peer node)`.
///
/// Generic over the tenant key so the million-tenant churn model (whose
/// population exceeds the engine's on-wire `u16` tenant ids) can reuse the
/// exact same machinery with a wider key; the engine uses the default.
#[derive(Debug, Default)]
pub struct ConnPool<K: Copy + Eq + Hash + Ord = TenantId> {
    conns: HashMap<(K, NodeId), Vec<QpHandle>>,
    /// Pool-wide per-connection metadata; also the dedupe set for `add`.
    meta: RefCell<HashMap<QpHandle, ConnMeta<K>>>,
    /// QPs this pool has activated and not yet reaped. Unordered (reaping
    /// swap-removes); each entry's position is mirrored in its meta slot.
    active: RefCell<Vec<QpHandle>>,
    /// Shadow-state recency queue for idle-age teardown: `(idle-since,
    /// handle)` appended on add and on every deactivation. Entries are
    /// validated lazily against `meta.last_used` when popped, so a QP
    /// re-used after going idle just leaves a stale entry behind.
    idle_queue: RefCell<VecDeque<(SimTime, QpHandle)>>,
    /// Monotone pick counter backing the LRU marks.
    tick: Cell<u64>,
    /// Picks that found the chosen QP already active (no RNIC-cache charge).
    hits: Cell<u64>,
    /// Picks that had to activate a shadow QP (a potential cache thrash).
    misses: Cell<u64>,
    /// Shadow QPs this pool transitioned to active.
    activations: Cell<u64>,
    /// Idle QPs returned to shadow state by the completion reaper or an
    /// LRU eviction. Counts only pool-tracked activations, so
    /// `deactivations <= activations` always holds.
    deactivations: Cell<u64>,
    /// QPs deactivated by the full-sweep audit that the pool never
    /// activated itself (direct fabric access behind the pool's back).
    untracked_reaps: Cell<u64>,
    /// Active QPs demoted to shadow state by the capacity bound.
    evictions: Cell<u64>,
    /// Connections destroyed by idle-age teardown.
    teardowns: Cell<u64>,
    /// Membership probes performed across all picks. Each pick does exactly
    /// one O(1) probe; the pre-fix code scanned the whole active set, so
    /// this counter is the regression guard for the quadratic-pick bug.
    membership_probes: Cell<u64>,
    /// Per-tenant `(hits, misses)` split of the pick counters.
    per_tenant: RefCell<HashMap<K, (u64, u64)>>,
    cfg: ElasticConfig,
}

impl<K: Copy + Eq + Hash + Ord> ConnPool<K> {
    /// Creates an empty pool with pre-elastic defaults (unbounded active
    /// set, no teardown).
    pub fn new() -> Self {
        ConnPool {
            conns: HashMap::new(),
            meta: RefCell::new(HashMap::new()),
            active: RefCell::new(Vec::new()),
            idle_queue: RefCell::new(VecDeque::new()),
            tick: Cell::new(0),
            hits: Cell::new(0),
            misses: Cell::new(0),
            activations: Cell::new(0),
            deactivations: Cell::new(0),
            untracked_reaps: Cell::new(0),
            evictions: Cell::new(0),
            teardowns: Cell::new(0),
            membership_probes: Cell::new(0),
            per_tenant: RefCell::new(HashMap::new()),
            cfg: ElasticConfig::default(),
        }
    }

    /// Creates an empty pool with the given elastic lifecycle config.
    pub fn with_config(cfg: ElasticConfig) -> Self {
        let mut pool = ConnPool::new();
        pool.cfg = cfg;
        pool
    }

    /// Replaces the elastic lifecycle config.
    pub fn set_config(&mut self, cfg: ElasticConfig) {
        self.cfg = cfg;
    }

    /// Returns the elastic lifecycle config in force.
    pub fn config(&self) -> ElasticConfig {
        self.cfg
    }

    /// Adds an established connection for `(tenant, peer)`, idle as of
    /// `now` (a never-picked connection ages toward teardown from its add
    /// instant).
    ///
    /// A handle already pooled — under this key or any other — is rejected
    /// (returns `false`): one QP endpoint has exactly one owner, and
    /// duplicates would make the full-sweep audit visit it twice and
    /// double-count deactivations.
    pub fn add(&mut self, tenant: K, peer: NodeId, qp: QpHandle, now: SimTime) -> bool {
        let mut meta = self.meta.borrow_mut();
        if meta.contains_key(&qp) {
            return false;
        }
        meta.insert(
            qp,
            ConnMeta {
                key: (tenant, peer),
                active_slot: None,
                last_used: now,
                last_tick: 0,
            },
        );
        drop(meta);
        self.conns.entry((tenant, peer)).or_default().push(qp);
        self.idle_queue.borrow_mut().push_back((now, qp));
        true
    }

    /// Returns the connections for `(tenant, peer)`.
    pub fn conns(&self, tenant: K, peer: NodeId) -> &[QpHandle] {
        self.conns
            .get(&(tenant, peer))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Returns the number of pooled connections for `(tenant, peer)`.
    pub fn count(&self, tenant: K, peer: NodeId) -> usize {
        self.conns(tenant, peer).len()
    }

    /// Returns the total number of pooled connections.
    pub fn pooled_total(&self) -> usize {
        self.meta.borrow().len()
    }

    /// Returns the number of QPs this pool currently tracks as active.
    pub fn active_total(&self) -> usize {
        self.active.borrow().len()
    }

    /// Returns `true` when `qp` is pooled under any key.
    pub fn contains(&self, qp: QpHandle) -> bool {
        self.meta.borrow().contains_key(&qp)
    }

    /// Picks the least-congested ready connection (smallest SQ backlog) and
    /// marks it active.
    ///
    /// Returns `None` when no connection to the peer is ready yet.
    pub fn pick_least_congested(
        &self,
        fabric: &Fabric,
        now: SimTime,
        tenant: K,
        peer: NodeId,
    ) -> Option<QpHandle> {
        self.pick_least_congested_excluding(fabric, now, tenant, peer, None)
    }

    /// Like [`ConnPool::pick_least_congested`] but avoids `avoid` — the
    /// shadow-QP failover path: a retry should ride a different connection
    /// than the one whose send just failed. Falls back to `avoid` when it is
    /// the only ready connection left.
    pub fn pick_least_congested_excluding(
        &self,
        fabric: &Fabric,
        now: SimTime,
        tenant: K,
        peer: NodeId,
        avoid: Option<rdma_sim::QpId>,
    ) -> Option<QpHandle> {
        let list = self.conns(tenant, peer);
        let best = list
            .iter()
            .filter(|&&qp| fabric.qp_ready(qp) && Some(qp.qp) != avoid)
            .min_by_key(|&&qp| fabric.sq_depth(qp))
            .copied()
            .or_else(|| {
                list.iter()
                    .find(|&&qp| Some(qp.qp) == avoid && fabric.qp_ready(qp))
                    .copied()
            })?;
        let mut per_tenant = self.per_tenant.borrow_mut();
        let entry = per_tenant.entry(tenant).or_insert((0, 0));
        if fabric.qp_is_active(best) {
            self.hits.set(self.hits.get() + 1);
            entry.0 += 1;
        } else {
            self.misses.set(self.misses.get() + 1);
            entry.1 += 1;
        }
        drop(per_tenant);
        // Activation is what charges the QP against the RNIC cache.
        let _ = fabric.set_qp_active(best, true);
        self.touch_active(fabric, now, best);
        Some(best)
    }

    /// Tracks `best` as active, refreshing its recency marks. One O(1)
    /// metadata probe per pick — never a scan of the active set.
    fn touch_active(&self, fabric: &Fabric, now: SimTime, best: QpHandle) {
        let tick = self.tick.get() + 1;
        self.tick.set(tick);
        self.membership_probes.set(self.membership_probes.get() + 1);
        let mut meta = self.meta.borrow_mut();
        let Some(m) = meta.get_mut(&best) else {
            return; // picked from a list the pool no longer tracks
        };
        m.last_used = now;
        m.last_tick = tick;
        if m.active_slot.is_some() {
            return;
        }
        let mut active = self.active.borrow_mut();
        m.active_slot = Some(active.len());
        active.push(best);
        self.activations.set(self.activations.get() + 1);
        let cap = self.cfg.active_capacity;
        if cap > 0 && active.len() > cap {
            self.evict_lru(fabric, now, &mut meta, &mut active, best);
        }
    }

    /// Returns the least-recently-used *drained* active QP to shadow state.
    /// Scans the active set (bounded by `active_capacity + 1`), skipping
    /// busy QPs and the just-activated one — eviction never strands an
    /// in-flight send.
    fn evict_lru(
        &self,
        fabric: &Fabric,
        now: SimTime,
        meta: &mut HashMap<QpHandle, ConnMeta<K>>,
        active: &mut Vec<QpHandle>,
        keep: QpHandle,
    ) {
        let victim = active
            .iter()
            .filter(|&&qp| qp != keep && fabric.sq_depth(qp) == 0)
            .min_by_key(|&&qp| meta.get(&qp).map(|m| m.last_tick).unwrap_or(0))
            .copied();
        let Some(victim) = victim else {
            return; // every other active QP is busy: overshoot the bound
        };
        let slot = meta
            .get(&victim)
            .and_then(|m| m.active_slot)
            .expect("victim came from the active set");
        Self::swap_remove_active(meta, active, slot);
        let _ = fabric.set_qp_active(victim, false);
        if let Some(m) = meta.get_mut(&victim) {
            m.active_slot = None;
            m.last_used = now;
        }
        self.idle_queue.borrow_mut().push_back((now, victim));
        self.evictions.set(self.evictions.get() + 1);
        self.deactivations.set(self.deactivations.get() + 1);
    }

    /// Swap-removes `slot` from the active vec, fixing the moved entry's
    /// mirrored slot index.
    fn swap_remove_active(
        meta: &mut HashMap<QpHandle, ConnMeta<K>>,
        active: &mut Vec<QpHandle>,
        slot: usize,
    ) {
        active.swap_remove(slot);
        if let Some(&moved) = active.get(slot) {
            if let Some(m) = meta.get_mut(&moved) {
                m.active_slot = Some(slot);
            }
        }
    }

    /// Returns `(hits, misses)`: picks that found the chosen QP already
    /// active vs. picks that had to activate one. A low hit rate under load
    /// signals shadow-QP churn (QP-cache thrash).
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Returns how many shadow QPs this pool has transitioned to active.
    pub fn activations(&self) -> u64 {
        self.activations.get()
    }

    /// Returns how many pool-activated QPs have been returned to shadow
    /// state (reaped idle or LRU-evicted). Never exceeds
    /// [`ConnPool::activations`].
    pub fn deactivations(&self) -> u64 {
        self.deactivations.get()
    }

    /// Returns how many active-but-untracked QPs the full-sweep audit has
    /// deactivated (connections activated behind the pool's back).
    pub fn untracked_reaps(&self) -> u64 {
        self.untracked_reaps.get()
    }

    /// Returns how many activations were demoted by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Returns how many connections idle-age teardown has destroyed.
    pub fn teardowns(&self) -> u64 {
        self.teardowns.get()
    }

    /// Returns how many O(1) membership probes picks have performed —
    /// exactly one per successful pick. The pre-fix implementation scanned
    /// the whole active set per pick instead.
    pub fn membership_probes(&self) -> u64 {
        self.membership_probes.get()
    }

    /// Returns `(hits, misses)` for one tenant's picks.
    pub fn hit_miss_of(&self, tenant: K) -> (u64, u64) {
        self.per_tenant
            .borrow()
            .get(&tenant)
            .copied()
            .unwrap_or((0, 0))
    }

    /// Deactivates every active QP whose send queue has drained, returning
    /// how many were deactivated. The DNE calls this when reaping send
    /// completions; the sweep walks only the tracked active set, not every
    /// pooled QP of every tenant.
    pub fn deactivate_idle(&self, fabric: &Fabric, now: SimTime) -> usize {
        let mut meta = self.meta.borrow_mut();
        let mut active = self.active.borrow_mut();
        let mut idle_queue = self.idle_queue.borrow_mut();
        let mut deactivated = 0;
        let mut slot = 0;
        while slot < active.len() {
            let qp = active[slot];
            if !fabric.qp_is_active(qp) {
                // Deactivated behind our back (e.g. an injected QP error
                // released the cache charge): untrack without counting.
                Self::swap_remove_active(&mut meta, &mut active, slot);
                if let Some(m) = meta.get_mut(&qp) {
                    m.active_slot = None;
                    m.last_used = now;
                }
                idle_queue.push_back((now, qp));
                continue;
            }
            if fabric.sq_depth(qp) == 0 {
                let _ = fabric.set_qp_active(qp, false);
                Self::swap_remove_active(&mut meta, &mut active, slot);
                if let Some(m) = meta.get_mut(&qp) {
                    m.active_slot = None;
                    m.last_used = now;
                }
                idle_queue.push_back((now, qp));
                deactivated += 1;
                continue;
            }
            slot += 1;
        }
        if deactivated > 0 {
            self.deactivations
                .set(self.deactivations.get() + deactivated as u64);
        }
        deactivated
    }

    /// Full-sweep reap: deactivates every drained active QP in the pool,
    /// tracked or not. Unlike [`ConnPool::deactivate_idle`] this walks
    /// every pooled QP, catching connections activated behind the pool's
    /// back (a tenant abusing direct fabric access); the DNE runs it as a
    /// periodic audit rather than on every completion. Untracked reaps are
    /// counted separately from deactivations — the pool never activated
    /// them, so counting them together would break the
    /// `deactivations <= activations` invariant.
    pub fn reap_all_idle(&self, fabric: &Fabric, now: SimTime) -> usize {
        let tracked = self.deactivate_idle(fabric, now);
        let mut untracked = 0;
        for qp in self.conns.values().flatten() {
            if fabric.qp_is_active(*qp) && fabric.sq_depth(*qp) == 0 {
                let _ = fabric.set_qp_active(*qp, false);
                untracked += 1;
            }
        }
        if untracked > 0 {
            self.untracked_reaps
                .set(self.untracked_reaps.get() + untracked as u64);
        }
        tracked + untracked
    }

    /// Lazy teardown: destroys pooled connections that have sat in shadow
    /// state past `ElasticConfig::idle_teardown_age`, releasing their
    /// fabric QP state. Amortized O(expired): the idle queue is consumed
    /// front-first and entries stale-checked against the connection's
    /// recency mark, so re-used QPs cost one pop, not a sweep. Returns how
    /// many connections were destroyed.
    pub fn teardown_idle(&mut self, fabric: &Fabric, now: SimTime) -> usize {
        let Some(age) = self.cfg.idle_teardown_age else {
            return 0;
        };
        let mut torn = 0;
        let mut busy = Vec::new();
        loop {
            let front = self.idle_queue.borrow().front().copied();
            let Some((idle_since, qp)) = front else { break };
            if now.saturating_since(idle_since) < age {
                break; // queue is append-ordered: the rest is younger
            }
            self.idle_queue.borrow_mut().pop_front();
            let meta_entry = self.meta.borrow().get(&qp).copied();
            let Some(m) = meta_entry else {
                continue; // already removed under another entry
            };
            // Stale entry: the QP was used (or re-idled) after this entry
            // was queued; a fresher entry exists or it is active again.
            if m.active_slot.is_some() || m.last_used != idle_since {
                continue;
            }
            // Never strand an in-flight send: while either end of the pair
            // is still sending, restart this end's idle clock. Any other
            // error means the peer's engine already destroyed the pair.
            if fabric.destroy_qp(qp) == Err(RdmaError::QpBusy(qp.qp)) {
                busy.push(qp);
                continue;
            }
            self.remove_conn(qp, m.key);
            torn += 1;
        }
        for qp in busy {
            if let Some(m) = self.meta.borrow_mut().get_mut(&qp) {
                m.last_used = now;
            }
            self.idle_queue.borrow_mut().push_back((now, qp));
        }
        if torn > 0 {
            self.teardowns.set(self.teardowns.get() + torn as u64);
        }
        torn
    }

    /// Drops every connection pooled for `(tenant, peer)`, deactivating any
    /// still-active ones, and returns the handles (the caller owns the
    /// fabric-side teardown — e.g. a departing tenant destroying its QPs).
    pub fn remove_peer(&mut self, fabric: &Fabric, tenant: K, peer: NodeId) -> Vec<QpHandle> {
        let Some(list) = self.conns.remove(&(tenant, peer)) else {
            return Vec::new();
        };
        let mut meta = self.meta.borrow_mut();
        let mut active = self.active.borrow_mut();
        let mut deactivated = 0;
        for &qp in &list {
            if let Some(m) = meta.remove(&qp) {
                if let Some(slot) = m.active_slot {
                    Self::swap_remove_active(&mut meta, &mut active, slot);
                    if fabric.qp_is_active(qp) {
                        let _ = fabric.set_qp_active(qp, false);
                        deactivated += 1;
                    }
                }
            }
        }
        if deactivated > 0 {
            self.deactivations
                .set(self.deactivations.get() + deactivated as u64);
        }
        list
    }

    /// Removes one connection from the pool's bookkeeping (teardown path;
    /// the handle is already known to be inactive).
    fn remove_conn(&mut self, qp: QpHandle, key: (K, NodeId)) {
        self.meta.borrow_mut().remove(&qp);
        if let Some(list) = self.conns.get_mut(&key) {
            if let Some(pos) = list.iter().position(|&h| h == qp) {
                list.swap_remove(pos);
            }
            if list.is_empty() {
                self.conns.remove(&key);
            }
        }
    }

    /// Returns all distinct peers this pool reaches for `tenant`.
    pub fn peers_of(&self, tenant: K) -> Vec<NodeId> {
        let mut peers: Vec<NodeId> = self
            .conns
            .keys()
            .filter(|(t, _)| *t == tenant)
            .map(|(_, p)| *p)
            .collect();
        peers.sort();
        peers
    }

    /// Debug/test view of the tracked active set.
    #[cfg(test)]
    fn active_snapshot(&self) -> Vec<QpHandle> {
        self.active.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membuf::pool::{BufferPool, PoolConfig};
    use rdma_sim::RdmaCosts;
    use simcore::Sim;

    fn mk_pool(tenant: u16) -> BufferPool {
        let mut cfg = PoolConfig::new(TenantId(tenant), 0, 1024, 32);
        cfg.segment_size = 32 * 1024;
        BufferPool::new(cfg).unwrap()
    }

    /// Builds a fabric with two nodes and `n` ready connections.
    fn setup(n: usize) -> (Fabric, Sim, ConnPool, TenantId, NodeId, BufferPool) {
        let fabric = Fabric::new(RdmaCosts::default());
        let mut sim = Sim::new();
        let a = fabric.add_node();
        let b = fabric.add_node();
        let tenant = TenantId(1);
        let pool_a = mk_pool(1);
        let pool_b = mk_pool(1);
        fabric.register_pool(a, pool_a.clone()).unwrap();
        fabric.register_pool(b, pool_b.clone()).unwrap();
        let cq_a = fabric.create_cq(a).unwrap();
        let cq_b = fabric.create_cq(b).unwrap();
        let rq_a = fabric.create_rq(a, tenant).unwrap();
        let rq_b = fabric.create_rq(b, tenant).unwrap();
        let mut pool = ConnPool::new();
        for _ in 0..n {
            let (ha, _) = fabric
                .connect(&mut sim, tenant, a, cq_a, rq_a, b, cq_b, rq_b)
                .unwrap();
            assert!(pool.add(tenant, b, ha, sim.now()));
        }
        sim.run();
        (fabric, sim, pool, tenant, b, pool_a)
    }

    #[test]
    fn empty_pool_returns_none() {
        let (fabric, sim, pool, tenant, peer, _) = setup(0);
        assert!(pool
            .pick_least_congested(&fabric, sim.now(), tenant, peer)
            .is_none());
    }

    #[test]
    fn pick_prefers_least_congested() {
        use rdma_sim::WrId;
        let (fabric, mut sim, pool, tenant, peer, pool_a) = setup(2);
        let now = sim.now();
        let first = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        // Load up the first connection with a send (no recv posted: it
        // lingers in RNR retry, keeping sq_outstanding > 0).
        let buf = pool_a.get().unwrap();
        fabric.post_send(&mut sim, first, WrId(0), buf, 0).unwrap();
        let second = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        assert_ne!(first.qp, second.qp, "picker avoids the loaded QP");
    }

    #[test]
    fn picking_activates_and_idle_drain_deactivates() {
        let (fabric, sim, pool, tenant, peer, _) = setup(3);
        let now = sim.now();
        let qp = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        assert!(fabric.qp_is_active(qp));
        assert_eq!(fabric.active_qp_count(qp.node), 1);
        // No traffic outstanding: the reaper deactivates it.
        let n = pool.deactivate_idle(&fabric, now);
        assert_eq!(n, 1);
        assert_eq!(fabric.active_qp_count(qp.node), 0);
    }

    #[test]
    fn hit_miss_tracks_shadow_qp_churn() {
        let (fabric, sim, pool, tenant, peer, _) = setup(2);
        let now = sim.now();
        assert_eq!(pool.hit_miss(), (0, 0));
        // First pick activates a shadow QP: a miss.
        let qp = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        assert_eq!(pool.hit_miss(), (0, 1));
        // Re-picking while still active (sq_depth 0 on both, so the picker
        // may choose either; force the hit by deactivating the other).
        let _ = fabric.set_qp_active(qp, true);
        let again = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        let (h, m) = pool.hit_miss();
        assert_eq!(h + m, 2);
        let _ = again;
        // The reaper deactivates the drained QPs and counts them.
        let n = pool.deactivate_idle(&fabric, now);
        assert_eq!(pool.deactivations(), n as u64);
    }

    /// What the pre-optimization reaper would count: a full scan over every
    /// pooled QP for active-and-drained ones.
    fn full_scan_idle(pool: &ConnPool, fabric: &Fabric) -> usize {
        pool.conns
            .values()
            .flatten()
            .filter(|&&qp| fabric.qp_is_active(qp) && fabric.sq_depth(qp) == 0)
            .count()
    }

    #[test]
    fn active_set_reap_matches_full_scan_counters() {
        use rdma_sim::WrId;
        let (fabric, mut sim, pool, tenant, peer, pool_a) = setup(4);
        let now = sim.now();
        // Round 1: a drained active QP → reaped, matching the full scan.
        let _q1 = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        let expect = full_scan_idle(&pool, &fabric);
        assert_eq!(expect, 1);
        assert_eq!(pool.deactivate_idle(&fabric, now), expect);
        assert_eq!(pool.deactivations(), expect as u64);
        // Round 2: one busy QP (send stuck in RNR retry) and one drained;
        // only the drained one is reaped.
        let busy = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        let buf = pool_a.get().unwrap();
        fabric.post_send(&mut sim, busy, WrId(0), buf, 0).unwrap();
        let idle = pool
            .pick_least_congested_excluding(&fabric, now, tenant, peer, Some(busy.qp))
            .unwrap();
        assert_ne!(busy.qp, idle.qp);
        let expect2 = full_scan_idle(&pool, &fabric);
        assert_eq!(expect2, 1, "only the drained QP is reapable");
        let before = pool.deactivations();
        assert_eq!(pool.deactivate_idle(&fabric, now), expect2);
        assert_eq!(pool.deactivations(), before + expect2 as u64);
        // Round 3: a killed QP loses its active flag externally; the reaper
        // untracks it without counting, exactly like the full scan.
        let killed = pool
            .pick_least_congested_excluding(&fabric, now, tenant, peer, Some(busy.qp))
            .unwrap();
        fabric.inject_qp_error(killed).unwrap();
        let expect3 = full_scan_idle(&pool, &fabric);
        assert_eq!(expect3, 0);
        let before = pool.deactivations();
        assert_eq!(pool.deactivate_idle(&fabric, now), expect3);
        assert_eq!(pool.deactivations(), before + expect3 as u64);
        assert_eq!(
            pool.active_snapshot().as_slice(),
            &[busy],
            "only the still-busy QP stays tracked"
        );
    }

    #[test]
    fn excluding_avoids_failed_qp_unless_it_is_the_only_one() {
        let (fabric, sim, pool, tenant, peer, _) = setup(2);
        let now = sim.now();
        let first = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        let other = pool
            .pick_least_congested_excluding(&fabric, now, tenant, peer, Some(first.qp))
            .unwrap();
        assert_ne!(first.qp, other.qp, "failover avoids the failed QP");
        // Break the alternative: the avoided QP is the only ready one left,
        // so the picker falls back to it rather than returning None.
        fabric.inject_qp_error(other).unwrap();
        let fallback = pool
            .pick_least_congested_excluding(&fabric, now, tenant, peer, Some(first.qp))
            .unwrap();
        assert_eq!(fallback.qp, first.qp);
        // Nothing ready at all → None.
        fabric.inject_qp_error(first).unwrap();
        assert!(pool
            .pick_least_congested_excluding(&fabric, now, tenant, peer, Some(first.qp))
            .is_none());
    }

    #[test]
    fn peers_listing() {
        let (_fabric, _sim, mut pool, tenant, peer, _) = setup(1);
        assert_eq!(pool.peers_of(tenant), vec![peer]);
        // Re-registering the SAME handle under another key is rejected:
        // one endpoint has one owner (dedupe bugfix), so the phantom peer
        // never appears in the listing.
        let qp = pool.conns(tenant, peer)[0];
        assert!(!pool.add(TenantId(9), NodeId(5), qp, SimTime::ZERO));
        assert_eq!(pool.peers_of(TenantId(9)), Vec::<NodeId>::new());
        assert_eq!(pool.count(tenant, peer), 1);
    }

    /// Regression (dedupe bugfix): before deduplication, the same handle
    /// registered under two keys was visited twice by the full-sweep audit
    /// and `deactivations` could exceed `activations`.
    #[test]
    fn duplicate_handle_cannot_double_count_deactivations() {
        let (fabric, sim, mut pool, tenant, peer, _) = setup(1);
        let now = sim.now();
        let qp = pool.conns(tenant, peer)[0];
        assert!(
            !pool.add(TenantId(9), NodeId(5), qp, SimTime::ZERO),
            "duplicate rejected"
        );
        let picked = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        assert_eq!(picked, qp);
        assert_eq!(pool.activations(), 1);
        pool.reap_all_idle(&fabric, now);
        assert_eq!(pool.deactivations(), 1, "counted exactly once");
        assert!(
            pool.deactivations() <= pool.activations(),
            "invariant: deactivations <= activations"
        );
    }

    /// Regression (quadratic-pick bugfix): membership is one O(1) probe
    /// per pick, independent of how many QPs are active.
    #[test]
    fn pick_membership_is_constant_work() {
        let (fabric, sim, pool, tenant, peer, _) = setup(64);
        let now = sim.now();
        // Activate the whole pool, then keep re-picking: probes track picks
        // 1:1 even with 64 QPs active (the old code scanned all 64 each
        // time).
        let mut picks = 0u64;
        for _ in 0..256 {
            pool.pick_least_congested(&fabric, now, tenant, peer)
                .unwrap();
            picks += 1;
        }
        assert_eq!(pool.membership_probes(), picks);
        assert!(pool.active_total() <= 64);
    }

    #[test]
    fn capacity_bound_evicts_lru_drained_qp() {
        use rdma_sim::WrId;
        let (fabric, mut sim, mut pool, tenant, peer, pool_a) = setup(4);
        pool.set_config(ElasticConfig {
            active_capacity: 2,
            idle_teardown_age: None,
        });
        let now = sim.now();
        let q1 = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        let q2 = pool
            .pick_least_congested_excluding(&fabric, now, tenant, peer, Some(q1.qp))
            .unwrap();
        assert_ne!(q1, q2);
        assert_eq!(pool.active_total(), 2);
        // Make q1 busy (send with no recv posted lingers in RNR retry),
        // then force a third activation by excluding q2: the picker takes
        // a fresh drained QP, and the bound evicts the LRU *drained*
        // active QP — q2, never the busy q1.
        let buf = pool_a.get().unwrap();
        fabric.post_send(&mut sim, q1, WrId(0), buf, 0).unwrap();
        let q3 = pool
            .pick_least_congested_excluding(&fabric, now, tenant, peer, Some(q2.qp))
            .unwrap();
        assert!(q3 != q1 && q3 != q2, "picker found a fresh QP");
        assert_eq!(pool.active_total(), 2, "bound held");
        assert_eq!(pool.evictions(), 1);
        assert!(!fabric.qp_is_active(q2), "drained LRU evicted");
        assert!(fabric.qp_is_active(q1), "busy QP untouched");
        assert!(fabric.qp_is_active(q3));
        // Now make q3 busy too: with every active QP busy, the next
        // activation overshoots the bound rather than strand a send.
        let buf = pool_a.get().unwrap();
        fabric.post_send(&mut sim, q3, WrId(1), buf, 0).unwrap();
        let q4 = pool
            .pick_least_congested(&fabric, now, tenant, peer)
            .unwrap();
        assert!(q4 != q1 && q4 != q3);
        assert_eq!(pool.active_total(), 3, "overshoot rather than strand");
        assert_eq!(pool.evictions(), 1, "no busy QP was evicted");
    }

    #[test]
    fn idle_age_teardown_destroys_shadow_connections() {
        let (fabric, sim, mut pool, tenant, peer, _) = setup(3);
        pool.set_config(ElasticConfig {
            active_capacity: 0,
            idle_teardown_age: Some(SimDuration::from_millis(5)),
        });
        // Connections were added at t=0; the connect delay puts t0 at 20ms,
        // so the two never-picked QPs are already past the 5ms idle age.
        // The picked-and-drained one is only idle since t0.
        let t0 = sim.now();
        let qp = pool
            .pick_least_congested(&fabric, t0, tenant, peer)
            .unwrap();
        pool.deactivate_idle(&fabric, t0);
        assert_eq!(
            pool.teardown_idle(&fabric, t0 + SimDuration::from_millis(1)),
            2,
            "never-used connections age out from their add instant"
        );
        assert!(fabric.qp_ready(qp), "recently drained QP survives");
        // Past the age since its drain: the last one goes too.
        let torn = pool.teardown_idle(&fabric, t0 + SimDuration::from_millis(6));
        assert_eq!(torn, 1);
        assert_eq!(pool.teardowns(), 3);
        assert_eq!(pool.pooled_total(), 0);
        assert_eq!(pool.count(tenant, peer), 0);
        assert!(!fabric.qp_ready(qp), "fabric state released");
        assert!(pool
            .pick_least_congested(&fabric, t0, tenant, peer)
            .is_none());
    }

    #[test]
    fn teardown_skips_recently_reused_connections() {
        let (fabric, sim, mut pool, tenant, peer, _) = setup(1);
        pool.set_config(ElasticConfig {
            active_capacity: 0,
            idle_teardown_age: Some(SimDuration::from_millis(5)),
        });
        let t0 = sim.now();
        let qp = pool
            .pick_least_congested(&fabric, t0, tenant, peer)
            .unwrap();
        pool.deactivate_idle(&fabric, t0);
        // Re-used just before the sweep: the stale idle entry must not
        // tear it down.
        let t1 = t0 + SimDuration::from_millis(4);
        assert_eq!(
            pool.pick_least_congested(&fabric, t1, tenant, peer),
            Some(qp)
        );
        assert_eq!(
            pool.teardown_idle(&fabric, t0 + SimDuration::from_millis(6)),
            0
        );
        assert!(fabric.qp_ready(qp));
        assert_eq!(pool.count(tenant, peer), 1);
    }
}
