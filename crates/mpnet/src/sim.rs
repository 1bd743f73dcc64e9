//! The CST discrete-event simulator: Algorithm 4 of the paper executed over
//! lossy, delayed, single-capacity links on a bidirectional ring.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use ssr_core::{Config, RingAlgorithm, WireState};
use ssr_netem::checkpoint::put_bytes;
use ssr_netem::{CheckpointError, ChunkReader, ChunkWriter, Cursor, LinkProfile, NetemLink};

use crate::event::{DelayModel, EventKind, EventQueue, Time};
use crate::link::{Link, LinkModel};
use crate::node::Node;
use crate::observe::{Sample, Timeline};
use crate::transcript::{EventRecord, Transcript};

pub use crate::loss::GilbertElliott;
use crate::loss::LossChannel;

/// Writer-defined kind of a [`CstSim::checkpoint`] file (the `kind` field
/// of the `SSRC` header): a full DES cluster state.
pub const CHECKPOINT_KIND_DES: u16 = 1;

/// Frame length, in bytes, the DES charges the netem serializer per CST
/// state broadcast: the wire header plus payload of `ssr-net`, rounded up
/// to a realistic small datagram. Fixed so serialization delay — and hence
/// the whole delivery schedule — depends only on profile and seed.
pub const NETEM_FRAME_BYTES: usize = 64;

/// Simulator parameters.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// RNG seed; two runs with equal seed and parameters are bit-identical.
    pub seed: u64,
    /// Link delay model.
    pub delay: DelayModel,
    /// Probability that a transmission is lost (decided at arrival,
    /// uniformly at random — the fault model of Lemma 9). When `burst` is
    /// set, this is the *good-state* loss probability.
    pub loss: f64,
    /// Optional Gilbert–Elliott burst-loss channel layered per link; when
    /// `Some`, links alternate between the good state (loss = `loss`) and a
    /// bad state (loss = `burst.loss_bad`).
    pub burst: Option<GilbertElliott>,
    /// Period of the CST retransmission timer (Algorithm 4, line 11).
    pub timer_interval: Time,
    /// Whether a node broadcasts its state after handling a receipt
    /// (Algorithm 4, line 10). Disabling this leaves only timer-driven
    /// gossip — an ablation that slows handover but must not break safety.
    pub send_on_receipt: bool,
    /// Delay between receiving a state and executing the enabled rule —
    /// the node's critical-section dwell time. With `0` the rule fires in
    /// the same instant as the receipt (the bare Algorithm 4); with a
    /// positive value a privileged node *stays* privileged for at least
    /// this long before handing over, which is how a monitoring node
    /// actually behaves.
    pub exec_delay: Time,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0,
            delay: DelayModel::Fixed(5),
            loss: 0.0,
            timer_interval: 50,
            send_on_receipt: true,
            exec_delay: 0,
            burst: None,
        }
    }
}

/// Aggregate message statistics of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Completed transmissions over all links.
    pub transmissions: u64,
    /// Messages dropped by the loss process.
    pub losses: u64,
    /// Rules executed over all nodes.
    pub rules_executed: u64,
    /// Events processed.
    pub events: u64,
}

/// The Cached Sensornet Transform of a ring algorithm, executed by a
/// deterministic discrete-event simulation.
///
/// Each node holds its real state plus caches of both neighbours' states;
/// on every receipt it refreshes the cache, executes at most one enabled
/// rule *on the cached view*, and (optionally) rebroadcasts its state; a
/// periodic timer rebroadcasts regardless, which is what repairs lost
/// messages and corrupt caches (the self-stabilization of the transform).
#[derive(Debug)]
pub struct CstSim<A: RingAlgorithm> {
    algo: A,
    cfg: SimConfig,
    nodes: Vec<Node<A::State>>,
    /// Directed links: index `2i` is `i → succ(i)`, `2i+1` is `i → pred(i)`.
    links: Vec<Link<A::State>>,
    queue: EventQueue,
    now: Time,
    rng: StdRng,
    timeline: Timeline,
    corruptions: Vec<(Time, usize, A::State)>,
    exec_scheduled: Vec<bool>,
    /// Loss process per directed link (i.i.d. + optional burst overlay).
    link_loss: Vec<LossChannel>,
    // ---- incrementally maintained observation counters (an event only
    // changes one node's local view, so per-event sampling is O(1)) ----
    priv_flags: Vec<bool>,
    priv_count: usize,
    priv_mask: u64,
    node_tokens: Vec<u8>,
    tokens_total_ctr: usize,
    /// `cache_ok[i] = [pred entry coherent, succ entry coherent]`.
    cache_ok: Vec<[bool; 2]>,
    bad_entries: usize,
    /// Definition 1 legitimacy of the ground configuration, kept current by
    /// `rebuild_counters` and `on_own_changed` (the only places own states
    /// change).
    ground_legit: bool,
    /// Per-link delay overrides (indexed like `links`); `None` = global model.
    link_delay: Vec<Option<DelayModel>>,
    /// Per-node pause windows: while `now` is inside one, the node is
    /// crashed — it processes no receipts and sends nothing.
    pauses: Vec<Vec<(Time, Time)>>,
    /// Per-link outage windows: deliveries on the link inside a window are
    /// dropped (a unidirectional radio shadow).
    outages: Vec<Vec<(Time, Time)>>,
    transcript: Option<Transcript<A::State>>,
    events_processed: u64,
    // ---- counters retired by membership re-splices (links are rebuilt and
    // leavers drop out, but `stats()` must stay cumulative) ----
    retired_transmissions: u64,
    retired_losses: u64,
    retired_rules: u64,
    /// Per-directed-link netem emulators (installed by [`CstSim::set_netem`],
    /// indexed like `links`); `None` entries use the [`DelayModel`] path.
    netem: Vec<Option<NetemLink>>,
    /// The installed profile and its seed, kept so membership re-splices
    /// rebuild the emulator set for the new ring size.
    netem_profile: Option<(LinkProfile, u64)>,
    retired_netem_drops: u64,
}

impl<A: RingAlgorithm> CstSim<A> {
    /// Build a simulator whose caches start *coherent* with `initial` —
    /// the hypothesis of Theorem 3.
    pub fn new(algo: A, initial: Config<A::State>, cfg: SimConfig) -> ssr_core::Result<Self> {
        algo.validate_config(&initial)?;
        let n = algo.n();
        let nodes = (0..n)
            .map(|i| {
                let pred = if i == 0 { n - 1 } else { i - 1 };
                let succ = if i + 1 == n { 0 } else { i + 1 };
                Node::coherent(initial[i].clone(), initial[pred].clone(), initial[succ].clone())
            })
            .collect();
        Ok(Self::from_nodes(algo, nodes, cfg))
    }

    /// Build a simulator with explicit (possibly *incoherent* or corrupt)
    /// caches — arbitrary initial cache values as in Lemma 9 / Theorem 4.
    pub fn with_nodes(
        algo: A,
        nodes: Vec<Node<A::State>>,
        cfg: SimConfig,
    ) -> ssr_core::Result<Self> {
        let own: Config<A::State> = nodes.iter().map(|nd| nd.own.clone()).collect();
        algo.validate_config(&own)?;
        Ok(Self::from_nodes(algo, nodes, cfg))
    }

    fn from_nodes(algo: A, nodes: Vec<Node<A::State>>, cfg: SimConfig) -> Self {
        let n = algo.n();
        let mut links = Vec::with_capacity(2 * n);
        for i in 0..n {
            let succ = if i + 1 == n { 0 } else { i + 1 };
            let pred = if i == 0 { n - 1 } else { i - 1 };
            links.push(Link::new(i, succ));
            links.push(Link::new(i, pred));
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut queue = EventQueue::new();
        // Stagger the first timer fire per node so the fleet does not act in
        // lockstep (real deployments never do).
        for i in 0..n {
            let first = rng.random_range(1..=cfg.timer_interval.max(1));
            queue.push(first, EventKind::Timer { node: i });
        }
        let mut sim = CstSim {
            algo,
            cfg,
            nodes,
            links,
            queue,
            now: 0,
            rng,
            timeline: Timeline::new(),
            corruptions: Vec::new(),
            exec_scheduled: vec![false; n],
            link_loss: vec![LossChannel::new(cfg.loss, cfg.burst); 2 * n],
            priv_flags: vec![false; n],
            priv_count: 0,
            priv_mask: 0,
            node_tokens: vec![0; n],
            tokens_total_ctr: 0,
            cache_ok: vec![[true; 2]; n],
            bad_entries: 0,
            ground_legit: false,
            link_delay: vec![None; 2 * n],
            pauses: vec![Vec::new(); n],
            outages: vec![Vec::new(); 2 * n],
            transcript: None,
            events_processed: 0,
            retired_transmissions: 0,
            retired_losses: 0,
            retired_rules: 0,
            netem: vec![None; 2 * n],
            netem_profile: None,
            retired_netem_drops: 0,
        };
        sim.rebuild_counters();
        sim.record_sample();
        sim
    }

    /// Full recomputation of the incremental observation counters (used at
    /// construction, re-splice and restore; later events update them in
    /// O(1), except `ground_legit`, which `on_own_changed` recomputes in O(n)
    /// on every own-state change).
    fn rebuild_counters(&mut self) {
        let n = self.algo.n();
        self.priv_count = 0;
        self.priv_mask = 0;
        self.tokens_total_ctr = 0;
        self.bad_entries = 0;
        for i in 0..n {
            let t = self.nodes[i].tokens(&self.algo, i);
            self.priv_flags[i] = t.any();
            if t.any() {
                self.priv_count += 1;
                if i < 64 {
                    self.priv_mask |= 1 << i;
                }
            }
            self.node_tokens[i] = t.count();
            self.tokens_total_ctr += t.count() as usize;
            let pred = if i == 0 { n - 1 } else { i - 1 };
            let succ = if i + 1 == n { 0 } else { i + 1 };
            let ok = [
                self.nodes[i].cache_pred == self.nodes[pred].own,
                self.nodes[i].cache_succ == self.nodes[succ].own,
            ];
            self.cache_ok[i] = ok;
            self.bad_entries += ok.iter().filter(|&&b| !b).count();
        }
        self.ground_legit = self.algo.is_legitimate(&self.ground_config());
    }

    /// Re-evaluate node `i`'s local token predicate (its view changed).
    fn refresh_predicate(&mut self, i: usize) {
        let t = self.nodes[i].tokens(&self.algo, i);
        let any = t.any();
        if self.priv_flags[i] != any {
            self.priv_flags[i] = any;
            if any {
                self.priv_count += 1;
                if i < 64 {
                    self.priv_mask |= 1 << i;
                }
            } else {
                self.priv_count -= 1;
                if i < 64 {
                    self.priv_mask &= !(1 << i);
                }
            }
        }
        self.tokens_total_ctr =
            self.tokens_total_ctr + t.count() as usize - self.node_tokens[i] as usize;
        self.node_tokens[i] = t.count();
    }

    /// Re-check one cache-coherence entry (`dir` 0 = pred, 1 = succ).
    fn refresh_coherence(&mut self, i: usize, dir: usize) {
        let n = self.algo.n();
        let neighbour = if dir == 0 {
            if i == 0 {
                n - 1
            } else {
                i - 1
            }
        } else if i + 1 == n {
            0
        } else {
            i + 1
        };
        let ok = if dir == 0 {
            self.nodes[i].cache_pred == self.nodes[neighbour].own
        } else {
            self.nodes[i].cache_succ == self.nodes[neighbour].own
        };
        if self.cache_ok[i][dir] != ok {
            self.cache_ok[i][dir] = ok;
            if ok {
                self.bad_entries -= 1;
            } else {
                self.bad_entries += 1;
            }
        }
    }

    /// Node `j`'s own state changed: refresh its predicate, its neighbours'
    /// coherence entries about it, and ground legitimacy.
    fn on_own_changed(&mut self, j: usize) {
        self.ground_legit = self.algo.is_legitimate(&self.ground_config());
        self.refresh_predicate(j);
        let n = self.algo.n();
        let pred = if j == 0 { n - 1 } else { j - 1 };
        let succ = if j + 1 == n { 0 } else { j + 1 };
        self.refresh_coherence(succ, 0); // succ's pred-cache mirrors j
        self.refresh_coherence(pred, 1); // pred's succ-cache mirrors j
    }

    /// The algorithm under simulation.
    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Node view (state + caches + counters).
    pub fn node(&self, i: usize) -> &Node<A::State> {
        &self.nodes[i]
    }

    /// The ground-truth configuration (every node's actual state).
    pub fn ground_config(&self) -> Config<A::State> {
        self.nodes.iter().map(|nd| nd.own.clone()).collect()
    }

    /// Indices of nodes whose *local* token predicate currently holds.
    pub fn local_privileged(&self) -> Vec<usize> {
        (0..self.algo.n()).filter(|&i| self.nodes[i].tokens(&self.algo, i).any()).collect()
    }

    /// Evaluate Definition 3's token-existence measure right now: does the
    /// cached (acted-on) view agree with the omniscient view about "at
    /// least one token exists"? SSRmin keeps this true at every instant of
    /// a legitimate run (model gap tolerance); Dijkstra's ring does not.
    pub fn definition3_check(&self) -> crate::model_gap::GapCheck {
        crate::model_gap::token_existence_check(&self.algo, &self.nodes)
    }

    /// True iff every cache matches the actual neighbour state
    /// (Definition 2, cache coherence).
    pub fn is_coherent(&self) -> bool {
        let n = self.algo.n();
        (0..n).all(|i| {
            let pred = if i == 0 { n - 1 } else { i - 1 };
            let succ = if i + 1 == n { 0 } else { i + 1 };
            self.nodes[i].is_coherent(&self.nodes[pred].own, &self.nodes[succ].own)
        })
    }

    /// Schedule a transient fault: at time `at`, node `i`'s state is
    /// overwritten with `state` (caches of its neighbours keep the stale
    /// value until gossip repairs them).
    pub fn schedule_corruption(&mut self, at: Time, node: usize, state: A::State) {
        assert!(node < self.algo.n(), "node out of range");
        assert!(at >= self.now, "cannot schedule in the past");
        self.corruptions.push((at, node, state));
        self.queue.push(at, EventKind::Corruption { node });
    }

    /// Override the delay model of the directed link `src → dst` (must be a
    /// ring edge). Models heterogeneous radios: one slow or jittery hop in
    /// an otherwise fast ring.
    pub fn set_link_delay(&mut self, src: usize, dst: usize, model: DelayModel) {
        let idx = self
            .links
            .iter()
            .position(|l| l.src == src && l.dst == dst)
            .unwrap_or_else(|| panic!("{src} → {dst} is not a ring link"));
        self.link_delay[idx] = Some(model);
    }

    /// Install a netem link profile on every directed link: even indices
    /// (`i → succ(i)`) run the profile's `forward` direction, odd indices
    /// (`i → pred(i)`) its `reverse`. Each link direction gets its own
    /// deterministic jitter stream derived from `seed` and the link index,
    /// independent of the simulator's global RNG, and the per-link loss
    /// channel is rebuilt from the profile's `loss` rate (the global
    /// `SimConfig::burst` overlay still applies). Replaces both the global
    /// delay model and any [`CstSim::set_link_delay`] overrides; survives
    /// membership re-splices (emulators are rebuilt for the new ring).
    pub fn set_netem(&mut self, profile: &LinkProfile, seed: u64) {
        self.netem_profile = Some((profile.clone(), seed));
        self.install_netem();
    }

    /// (Re)build the emulator set from the stored profile, if any.
    fn install_netem(&mut self) {
        let Some((profile, seed)) = self.netem_profile.clone() else {
            return;
        };
        let m = self.links.len();
        self.netem = (0..m)
            .map(|idx| {
                let dir = if idx % 2 == 0 { profile.forward } else { profile.reverse };
                Some(NetemLink::new(dir, seed, idx))
            })
            .collect();
        for idx in 0..m {
            let dir = if idx % 2 == 0 { &profile.forward } else { &profile.reverse };
            self.link_loss[idx] = LossChannel::new(dir.loss, self.cfg.burst);
        }
    }

    /// The installed netem profile, if any.
    pub fn netem_profile(&self) -> Option<&LinkProfile> {
        self.netem_profile.as_ref().map(|(p, _)| p)
    }

    /// The emulator of directed link `idx` (indexed like the links: `2i` is
    /// `i → succ(i)`, `2i+1` is `i → pred(i)`), if netem is installed.
    pub fn netem_link(&self, idx: usize) -> Option<&NetemLink> {
        self.netem.get(idx).and_then(|l| l.as_ref())
    }

    /// Frames tail-dropped by netem buffers so far, cumulative across
    /// membership re-splices. A strict subset of [`SimStats::losses`]:
    /// buffer drops are congestion, not the random-loss process, and the
    /// distinction is what E20 measures.
    pub fn netem_buffer_drops(&self) -> u64 {
        self.retired_netem_drops
            + self.netem.iter().flatten().map(|l| l.stats().buffer_drops).sum::<u64>()
    }

    /// Schedule an outage of the directed link `src → dst`: every delivery
    /// inside `[from, until)` is lost. Models a unidirectional radio shadow
    /// (asymmetric interference), a fault CST's periodic retransmission
    /// must ride out.
    pub fn schedule_link_outage(&mut self, src: usize, dst: usize, from: Time, until: Time) {
        assert!(from < until, "empty outage window");
        let idx = self
            .links
            .iter()
            .position(|l| l.src == src && l.dst == dst)
            .unwrap_or_else(|| panic!("{src} → {dst} is not a ring link"));
        self.outages[idx].push((from, until));
    }

    /// Schedule a crash window for `node`: during `[from, until)` the node
    /// is down — it processes no receipts (in-flight messages to it are
    /// lost) and its timer does not broadcast. After `until` it resumes
    /// with whatever state and caches it had: a classic crash-recover
    /// transient fault.
    pub fn schedule_pause(&mut self, node: usize, from: Time, until: Time) {
        assert!(node < self.algo.n(), "node out of range");
        assert!(from < until, "empty pause window");
        self.pauses[node].push((from, until));
    }

    fn is_paused(&self, node: usize, at: Time) -> bool {
        self.pauses[node].iter().any(|&(f, u)| at >= f && at < u)
    }

    /// Membership churn, grow side: splice a joining node into the ring at
    /// the tail position (between the current last node and node 0, so the
    /// anchor keeps index 0). `algo` is the same algorithm re-parameterised
    /// for `n + 1`; `own` is the state the joiner boots with — for SSRmin a
    /// graceful joiner adopts its predecessor's counter with no token bits,
    /// but any state is legal (self-stabilization must absorb it). The
    /// join handshake seeds the joiner's caches and both neighbours'
    /// facing cache entries coherently; the re-splice flushes all in-flight
    /// messages and per-link overrides (the old links are gone) and
    /// restarts every node's gossip timer with a fresh stagger.
    ///
    /// Schedule-level validation (ring bounds, whole-ring requirement)
    /// lives in [`crate::FaultSchedule::validate`]; this method only
    /// asserts the ring shape.
    pub fn splice_join(&mut self, algo: A, own: A::State) {
        let n = self.nodes.len();
        assert_eq!(algo.n(), n + 1, "splice_join needs an algorithm for n + 1");
        let tail = n - 1;
        let node = Node::coherent(own, self.nodes[tail].own.clone(), self.nodes[0].own.clone());
        self.nodes[tail].cache_succ = node.own.clone();
        self.nodes[0].cache_pred = node.own.clone();
        self.nodes.push(node);
        self.pauses.push(Vec::new());
        self.resplice(algo);
    }

    /// Membership churn, shrink side: splice `node` out of the ring; its
    /// two neighbours re-point at each other and seed their facing cache
    /// entries from each other's real state (the leave handshake). Node 0
    /// is the anchor and can never leave. Later indices shift down by one,
    /// as do their pending corruptions and pause windows; the leaver's own
    /// pending faults die with it. Counters of the departed node are
    /// retired so [`CstSim::stats`] stays cumulative.
    pub fn splice_leave(&mut self, algo: A, node: usize) {
        let n = self.nodes.len();
        assert_eq!(algo.n(), n - 1, "splice_leave needs an algorithm for n - 1");
        assert!(node < n, "node out of range");
        assert!(node != 0, "node 0 is the ring anchor and cannot leave");
        let removed = self.nodes.remove(node);
        self.retired_rules += removed.rules_executed;
        self.pauses.remove(node);
        self.corruptions.retain(|&(_, nd, _)| nd != node);
        for c in &mut self.corruptions {
            if c.1 > node {
                c.1 -= 1;
            }
        }
        let pred = node - 1;
        let succ = if node == self.nodes.len() { 0 } else { node };
        self.nodes[pred].cache_succ = self.nodes[succ].own.clone();
        self.nodes[succ].cache_pred = self.nodes[pred].own.clone();
        self.resplice(algo);
    }

    /// Rebuild everything ring-shaped after a membership change: links,
    /// loss channels, timers and the incremental counters. In-flight
    /// arrivals, deferred executions, link-delay overrides and outage
    /// windows are dropped — a re-splice tears the old links down — while
    /// pending corruptions and pause windows survive (adjusted by the
    /// caller) and are re-queued no earlier than `now`.
    fn resplice(&mut self, algo: A) {
        let n = self.nodes.len();
        debug_assert_eq!(algo.n(), n);
        self.algo = algo;
        self.retired_transmissions += self.links.iter().map(|l| l.transmissions).sum::<u64>();
        self.retired_losses += self.links.iter().map(|l| l.losses).sum::<u64>();
        let mut links = Vec::with_capacity(2 * n);
        for i in 0..n {
            let succ = if i + 1 == n { 0 } else { i + 1 };
            let pred = if i == 0 { n - 1 } else { i - 1 };
            links.push(Link::new(i, succ));
            links.push(Link::new(i, pred));
        }
        self.links = links;
        self.queue = EventQueue::new();
        self.exec_scheduled = vec![false; n];
        self.link_loss = vec![LossChannel::new(self.cfg.loss, self.cfg.burst); 2 * n];
        self.link_delay = vec![None; 2 * n];
        self.outages = vec![Vec::new(); 2 * n];
        self.retired_netem_drops +=
            self.netem.iter().flatten().map(|l| l.stats().buffer_drops).sum::<u64>();
        self.netem = vec![None; 2 * n];
        self.install_netem();
        for i in 0..n {
            let first = self.now + self.rng.random_range(1..=self.cfg.timer_interval.max(1));
            self.queue.push(first, EventKind::Timer { node: i });
        }
        for c in &mut self.corruptions {
            c.0 = c.0.max(self.now);
            self.queue.push(c.0, EventKind::Corruption { node: c.1 });
        }
        self.priv_flags = vec![false; n];
        self.node_tokens = vec![0; n];
        self.cache_ok = vec![[true; 2]; n];
        self.rebuild_counters();
        self.record_sample();
    }

    /// Start recording an event transcript keeping the most recent
    /// `capacity` events (see [`Transcript`]). Costs allocations per event.
    pub fn enable_transcript(&mut self, capacity: usize) {
        self.transcript = Some(Transcript::new(capacity));
    }

    /// The transcript, if recording was enabled.
    pub fn transcript(&self) -> Option<&Transcript<A::State>> {
        self.transcript.as_ref()
    }

    fn log(&mut self, record: EventRecord<A::State>) {
        if let Some(t) = self.transcript.as_mut() {
            t.push(self.now, record);
        }
    }

    /// The recorded timeline so far.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Aggregate message statistics (cumulative across membership
    /// re-splices: counters of rebuilt links and departed nodes are
    /// retired, not forgotten).
    pub fn stats(&self) -> SimStats {
        SimStats {
            transmissions: self.retired_transmissions
                + self.links.iter().map(|l| l.transmissions).sum::<u64>(),
            losses: self.retired_losses + self.links.iter().map(|l| l.losses).sum::<u64>(),
            rules_executed: self.retired_rules
                + self.nodes.iter().map(|nd| nd.rules_executed).sum::<u64>(),
            events: self.events_processed,
        }
    }

    /// Run the simulation until simulated time `t_end` (inclusive of events
    /// at `t_end`). Returns the number of events processed.
    pub fn run_until(&mut self, t_end: Time) -> u64 {
        let mut processed = 0;
        while let Some(at) = self.queue.peek_time() {
            if at > t_end {
                break;
            }
            let (at, kind) = self.queue.pop().expect("peeked");
            self.now = at;
            self.dispatch(kind);
            self.events_processed += 1;
            processed += 1;
            self.record_sample();
        }
        self.now = t_end.max(self.now);
        self.timeline.close(self.now);
        processed
    }

    /// Run until the *ground* configuration has been legitimate for
    /// `stable_window` consecutive ticks, or until `t_max`. Returns the time
    /// at which the stable legitimate stretch began.
    ///
    /// This is the operational convergence criterion for Theorem 4: under
    /// receipt-driven gossip a non-silent algorithm updates some state at
    /// almost every instant, so demanding simultaneous cache coherence at an
    /// event boundary would be vacuous — what stabilization means here is
    /// that the real configuration entered the legitimate cycle and stopped
    /// leaving it.
    ///
    /// Ground legitimacy is read from the flag the simulator maintains
    /// wherever an own state changes (a rule firing or a corruption, and the
    /// full rebuild at construction, re-splice and restore), so checking it
    /// after every event costs O(1).
    pub fn run_until_stably_legitimate(
        &mut self,
        t_max: Time,
        stable_window: Time,
    ) -> Option<Time> {
        let mut legit_since: Option<Time> = self.ground_legit.then_some(self.now);
        loop {
            if let Some(since) = legit_since {
                if self.now.saturating_sub(since) >= stable_window {
                    self.timeline.close(self.now);
                    return Some(since);
                }
            }
            let Some(at) = self.queue.peek_time() else { break };
            if at > t_max {
                break;
            }
            let (at, kind) = self.queue.pop().expect("peeked");
            self.now = at;
            self.dispatch(kind);
            self.events_processed += 1;
            self.record_sample();
            if self.ground_legit {
                legit_since.get_or_insert(self.now);
            } else {
                legit_since = None;
            }
        }
        self.now = t_max.max(self.now);
        self.timeline.close(self.now);
        None
    }

    // ------------------------------------------------------------------

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Timer { node } => {
                if !self.is_paused(node, self.now) {
                    self.log(EventRecord::TimerBroadcast { node });
                    self.broadcast(node);
                }
                let next = self.now + self.cfg.timer_interval.max(1);
                self.queue.push(next, EventKind::Timer { node });
            }
            EventKind::Arrival { link } => self.on_arrival(link),
            EventKind::Execute { node } => {
                self.exec_scheduled[node] = false;
                if !self.is_paused(node, self.now) {
                    if let Some(rule) = self.nodes[node].execute_one(&self.algo, node) {
                        let tag = self.algo.rule_tag(rule);
                        let after = self.nodes[node].own.clone();
                        self.log(EventRecord::RuleFired { node, rule_tag: tag, after });
                        self.on_own_changed(node);
                    }
                    if self.cfg.send_on_receipt {
                        self.broadcast(node);
                    }
                }
            }
            EventKind::Corruption { node } => {
                if let Some(pos) =
                    self.corruptions.iter().position(|(at, nd, _)| *at == self.now && *nd == node)
                {
                    let (_, _, state) = self.corruptions.swap_remove(pos);
                    self.log(EventRecord::Corrupted { node, state: state.clone() });
                    self.nodes[node].own = state;
                    self.on_own_changed(node);
                }
            }
        }
    }

    fn on_arrival(&mut self, link_idx: usize) {
        let (state, had_pending) = self.links[link_idx].complete();
        // Evolve the per-link loss process and decide the drop; the shared
        // LossChannel keeps the RNG draw order of seeded runs stable.
        let dropped = self.link_loss[link_idx].step_drop(&mut self.rng);
        let src = self.links[link_idx].src;
        let dst = self.links[link_idx].dst;
        let now = self.now;
        let lost = dropped
            || self.is_paused(dst, self.now)
            || self.outages[link_idx].iter().any(|&(f, u)| now >= f && now < u);
        if lost {
            self.links[link_idx].record_loss();
            self.log(EventRecord::Lost { from: src, to: dst });
        } else {
            if self.transcript.is_some() {
                self.log(EventRecord::Delivered { from: src, to: dst, state: state.clone() });
            }
            // Update the receiver's cache for the sender's direction.
            let n = self.algo.n();
            let dst_pred = if dst == 0 { n - 1 } else { dst - 1 };
            if src == dst_pred {
                self.nodes[dst].cache_pred = state;
                self.refresh_coherence(dst, 0);
            } else {
                self.nodes[dst].cache_succ = state;
                self.refresh_coherence(dst, 1);
            }
            self.refresh_predicate(dst);
            self.nodes[dst].messages_received += 1;
            if self.cfg.exec_delay == 0 {
                // Algorithm 4, line 9: execute one enabled rule on the cache.
                if let Some(rule) = self.nodes[dst].execute_one(&self.algo, dst) {
                    let tag = self.algo.rule_tag(rule);
                    let after = self.nodes[dst].own.clone();
                    self.log(EventRecord::RuleFired { node: dst, rule_tag: tag, after });
                    self.on_own_changed(dst);
                }
                // Line 10: rebroadcast own state.
                if self.cfg.send_on_receipt {
                    self.broadcast(dst);
                }
            } else if !self.exec_scheduled[dst] {
                // Defer the execution by the critical-section dwell time;
                // further receipts before it fires just refresh the cache.
                self.exec_scheduled[dst] = true;
                self.queue.push(self.now + self.cfg.exec_delay, EventKind::Execute { node: dst });
            }
        }
        // The link freed up; flush a coalesced (newest-state) send.
        if had_pending {
            self.offer(src, link_idx);
        }
    }

    /// Send node `i`'s current state on both of its outgoing links.
    fn broadcast(&mut self, i: usize) {
        self.offer(i, 2 * i);
        self.offer(i, 2 * i + 1);
    }

    fn offer(&mut self, src: usize, link_idx: usize) {
        debug_assert_eq!(self.links[link_idx].src, src);
        let state = self.nodes[src].own.clone();
        if !self.links[link_idx].try_send(state, self.now) {
            return;
        }
        let deliver_at = match self.netem[link_idx].as_mut() {
            Some(nl) => nl.offer_frame(self.now, NETEM_FRAME_BYTES, &mut self.rng),
            None => {
                let mut model = self.link_delay[link_idx].unwrap_or(self.cfg.delay);
                model.offer_frame(self.now, NETEM_FRAME_BYTES, &mut self.rng)
            }
        };
        match deliver_at {
            Some(at) => self.queue.push(at, EventKind::Arrival { link: link_idx }),
            None => {
                // Tail drop: the frame never left the NIC. Free the link and
                // account the loss like any other (the netem link's own
                // buffer_drops counter keeps the congestion/loss split).
                let (_, had_pending) = self.links[link_idx].complete();
                debug_assert!(!had_pending, "a just-accepted send has no pending successor");
                self.links[link_idx].record_loss();
                let dst = self.links[link_idx].dst;
                self.log(EventRecord::Lost { from: src, to: dst });
            }
        }
    }

    fn record_sample(&mut self) {
        // O(1): all quantities are maintained incrementally as events touch
        // individual nodes (see `rebuild_counters` for the invariants).
        let sample = Sample {
            at: self.now,
            privileged: self.priv_count,
            mask: self.priv_mask,
            tokens_total: self.tokens_total_ctr,
            coherent: self.bad_entries == 0,
            legitimate: self.ground_legit,
        };
        self.timeline.push(sample);
    }
}

// ---------------------------------------------------------------------
// Cluster checkpointing: the full simulator state — replica states (via
// the existing CRC-32 snapshot codec), in-flight frames, netem queues,
// the fault-schedule cursor and every RNG cursor — serializes into one
// `SSRC` chunk file that `restore` turns back into a running simulator.
// The timeline and transcript are *observers*, not state: a restored run
// starts them fresh, which is exactly what byte-identical replay wants
// (both the original and the replay observe from the checkpoint onward).
// ---------------------------------------------------------------------

fn put_delay(buf: &mut Vec<u8>, m: DelayModel) {
    match m {
        DelayModel::Fixed(d) => {
            buf.push(0);
            buf.extend_from_slice(&d.to_le_bytes());
        }
        DelayModel::Uniform { min, max } => {
            buf.push(1);
            buf.extend_from_slice(&min.to_le_bytes());
            buf.extend_from_slice(&max.to_le_bytes());
        }
    }
}

fn read_delay(c: &mut Cursor<'_>, tag: [u8; 4]) -> Result<DelayModel, CheckpointError> {
    match c.u8()? {
        0 => Ok(DelayModel::Fixed(c.u64()?)),
        1 => Ok(DelayModel::Uniform { min: c.u64()?, max: c.u64()? }),
        _ => Err(CheckpointError::BadChunk { tag }),
    }
}

fn put_burst(buf: &mut Vec<u8>, b: Option<GilbertElliott>) {
    match b {
        None => buf.push(0),
        Some(ge) => {
            buf.push(1);
            buf.extend_from_slice(&ge.p_enter.to_bits().to_le_bytes());
            buf.extend_from_slice(&ge.p_exit.to_bits().to_le_bytes());
            buf.extend_from_slice(&ge.loss_bad.to_bits().to_le_bytes());
        }
    }
}

fn read_burst(c: &mut Cursor<'_>, tag: [u8; 4]) -> Result<Option<GilbertElliott>, CheckpointError> {
    match c.u8()? {
        0 => Ok(None),
        1 => Ok(Some(GilbertElliott { p_enter: c.f64()?, p_exit: c.f64()?, loss_bad: c.f64()? })),
        _ => Err(CheckpointError::BadChunk { tag }),
    }
}

fn put_state<S: WireState>(buf: &mut Vec<u8>, s: &S) {
    let mut tmp = Vec::new();
    s.encode_payload(&mut tmp);
    put_bytes(buf, &tmp);
}

fn read_state<S: WireState>(c: &mut Cursor<'_>, tag: [u8; 4]) -> Result<S, CheckpointError> {
    S::decode_payload(c.bytes()?).ok_or(CheckpointError::BadChunk { tag })
}

fn put_windows(buf: &mut Vec<u8>, windows: &[(Time, Time)]) {
    buf.extend_from_slice(&(windows.len() as u32).to_le_bytes());
    for &(from, until) in windows {
        buf.extend_from_slice(&from.to_le_bytes());
        buf.extend_from_slice(&until.to_le_bytes());
    }
}

fn read_windows(c: &mut Cursor<'_>) -> Result<Vec<(Time, Time)>, CheckpointError> {
    let count = c.u32()? as usize;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        out.push((c.u64()?, c.u64()?));
    }
    Ok(out)
}

impl<A: RingAlgorithm> CstSim<A>
where
    A::State: WireState,
{
    /// Serialize the entire simulator into a versioned, CRC-32-sealed
    /// checkpoint (see [`ssr_netem::checkpoint`] for the container format;
    /// the kind is [`CHECKPOINT_KIND_DES`]). `meta` is opaque caller data
    /// stored verbatim and handed back by [`CstSim::restore`] — `ssrmin`
    /// stores the run plan (end time, transcript capacity) there.
    ///
    /// Per-node replica states ride in the *existing* snapshot codec
    /// ([`ssr_core::encode_snapshot`]), so a node chunk is bitwise the same
    /// artifact a daemon writes at shutdown.
    pub fn checkpoint(&self, meta: &[u8]) -> Vec<u8> {
        let n = self.nodes.len();
        let mut w = ChunkWriter::new(CHECKPOINT_KIND_DES);

        let mut b = Vec::new();
        b.extend_from_slice(&self.cfg.seed.to_le_bytes());
        put_delay(&mut b, self.cfg.delay);
        b.extend_from_slice(&self.cfg.loss.to_bits().to_le_bytes());
        put_burst(&mut b, self.cfg.burst);
        b.extend_from_slice(&self.cfg.timer_interval.to_le_bytes());
        b.push(u8::from(self.cfg.send_on_receipt));
        b.extend_from_slice(&self.cfg.exec_delay.to_le_bytes());
        b.extend_from_slice(&(n as u32).to_le_bytes());
        w.chunk(*b"cfg ", &b);

        let mut b = Vec::new();
        for v in [
            self.now,
            self.events_processed,
            self.retired_transmissions,
            self.retired_losses,
            self.retired_rules,
            self.retired_netem_drops,
        ] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        w.chunk(*b"time", &b);

        let mut b = Vec::new();
        for word in self.rng.state() {
            b.extend_from_slice(&word.to_le_bytes());
        }
        w.chunk(*b"rng ", &b);

        for node in &self.nodes {
            w.chunk(*b"node", &node.snapshot());
        }

        for link in &self.links {
            let mut b = Vec::new();
            b.extend_from_slice(&(link.src as u32).to_le_bytes());
            b.extend_from_slice(&(link.dst as u32).to_le_bytes());
            match link.in_flight() {
                None => b.push(0),
                Some(s) => {
                    b.push(1);
                    put_state(&mut b, s);
                }
            }
            b.push(u8::from(link.has_pending()));
            b.extend_from_slice(&link.transmissions.to_le_bytes());
            b.extend_from_slice(&link.losses.to_le_bytes());
            b.extend_from_slice(&link.sent_at.to_le_bytes());
            w.chunk(*b"link", &b);
        }

        for ch in &self.link_loss {
            let mut b = Vec::new();
            b.extend_from_slice(&ch.base_loss.to_bits().to_le_bytes());
            put_burst(&mut b, ch.burst);
            b.push(u8::from(ch.is_bad()));
            w.chunk(*b"loss", &b);
        }

        let mut b = Vec::new();
        for d in &self.link_delay {
            match d {
                None => b.push(0),
                Some(m) => {
                    b.push(1);
                    put_delay(&mut b, *m);
                }
            }
        }
        w.chunk(*b"ldly", &b);

        let (entries, next_seq) = self.queue.snapshot();
        let mut b = Vec::new();
        b.extend_from_slice(&next_seq.to_le_bytes());
        b.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (at, seq, kind) in entries {
            b.extend_from_slice(&at.to_le_bytes());
            b.extend_from_slice(&seq.to_le_bytes());
            let (disc, idx) = match kind {
                EventKind::Arrival { link } => (0u8, link),
                EventKind::Timer { node } => (1, node),
                EventKind::Corruption { node } => (2, node),
                EventKind::Execute { node } => (3, node),
            };
            b.push(disc);
            b.extend_from_slice(&(idx as u32).to_le_bytes());
        }
        w.chunk(*b"evnt", &b);

        // The fault-schedule cursor: corruptions not yet applied. (Applied
        // ones were swap_removed; their queue events exist only pre-fire.)
        let mut b = Vec::new();
        b.extend_from_slice(&(self.corruptions.len() as u32).to_le_bytes());
        for (at, node, state) in &self.corruptions {
            b.extend_from_slice(&at.to_le_bytes());
            b.extend_from_slice(&(*node as u32).to_le_bytes());
            put_state(&mut b, state);
        }
        w.chunk(*b"corr", &b);

        let b: Vec<u8> = self.exec_scheduled.iter().map(|&x| u8::from(x)).collect();
        w.chunk(*b"exec", &b);

        let mut b = Vec::new();
        for windows in &self.pauses {
            put_windows(&mut b, windows);
        }
        w.chunk(*b"paus", &b);

        let mut b = Vec::new();
        for windows in &self.outages {
            put_windows(&mut b, windows);
        }
        w.chunk(*b"outg", &b);

        if let Some((profile, seed)) = &self.netem_profile {
            let mut b = Vec::new();
            put_bytes(&mut b, profile.name.as_bytes());
            profile.forward.encode_into(&mut b);
            profile.reverse.encode_into(&mut b);
            b.extend_from_slice(&seed.to_le_bytes());
            w.chunk(*b"ntem", &b);
            for nl in &self.netem {
                let nl = nl.as_ref().expect("set_netem installs every link");
                w.chunk(*b"ntml", &nl.snapshot());
            }
        }

        w.chunk(*b"meta", meta);
        w.finish()
    }

    /// Restore a simulator from [`CstSim::checkpoint`] bytes and return it
    /// together with the stored `meta` payload. `algo` must be the same
    /// algorithm the checkpointed run used (same ring size — checked — and
    /// same parameters, which the state chunks implicitly pin via their
    /// wire `KIND` and payloads).
    ///
    /// The restored simulator resumes the exact event, RNG, loss and netem
    /// streams of the original: running both to the same end time yields
    /// byte-identical transcripts and verdicts. The timeline and transcript
    /// restart empty (observers, not state).
    pub fn restore(algo: A, bytes: &[u8]) -> Result<(Self, Vec<u8>), CheckpointError> {
        let r = ChunkReader::parse_kind(bytes, CHECKPOINT_KIND_DES)?;
        let bad = |tag: [u8; 4]| CheckpointError::BadChunk { tag };

        let tag = *b"cfg ";
        let mut c = Cursor::new(tag, r.require(tag)?);
        let seed = c.u64()?;
        let delay = read_delay(&mut c, tag)?;
        let loss = c.f64()?;
        let burst = read_burst(&mut c, tag)?;
        let timer_interval = c.u64()?;
        let send_on_receipt = c.u8()? != 0;
        let exec_delay = c.u64()?;
        let n = c.u32()? as usize;
        c.finish()?;
        let cfg =
            SimConfig { seed, delay, loss, burst, timer_interval, send_on_receipt, exec_delay };
        if algo.n() != n || n == 0 {
            return Err(bad(tag));
        }

        let tag = *b"time";
        let mut c = Cursor::new(tag, r.require(tag)?);
        let now = c.u64()?;
        let events_processed = c.u64()?;
        let retired_transmissions = c.u64()?;
        let retired_losses = c.u64()?;
        let retired_rules = c.u64()?;
        let retired_netem_drops = c.u64()?;
        c.finish()?;

        let tag = *b"rng ";
        let mut c = Cursor::new(tag, r.require(tag)?);
        let rng_state = [c.u64()?, c.u64()?, c.u64()?, c.u64()?];
        c.finish()?;

        let nodes: Vec<Node<A::State>> = r
            .all(*b"node")
            .map(|chunk| Node::from_snapshot(chunk).map_err(|_| bad(*b"node")))
            .collect::<Result<_, _>>()?;
        if nodes.len() != n {
            return Err(CheckpointError::MissingChunk { tag: *b"node" });
        }

        let tag = *b"link";
        let mut links = Vec::with_capacity(2 * n);
        for chunk in r.all(tag) {
            let mut c = Cursor::new(tag, chunk);
            let src = c.u32()? as usize;
            let dst = c.u32()? as usize;
            let in_flight = match c.u8()? {
                0 => None,
                1 => Some(read_state::<A::State>(&mut c, tag)?),
                _ => return Err(bad(tag)),
            };
            let pending = c.u8()? != 0;
            let transmissions = c.u64()?;
            let losses = c.u64()?;
            let sent_at = c.u64()?;
            c.finish()?;
            if src >= n || dst >= n {
                return Err(bad(tag));
            }
            links.push(Link::from_parts(
                src,
                dst,
                in_flight,
                pending,
                transmissions,
                losses,
                sent_at,
            ));
        }
        if links.len() != 2 * n {
            return Err(CheckpointError::MissingChunk { tag });
        }

        let tag = *b"loss";
        let mut link_loss = Vec::with_capacity(2 * n);
        for chunk in r.all(tag) {
            let mut c = Cursor::new(tag, chunk);
            let base_loss = c.f64()?;
            let ge = read_burst(&mut c, tag)?;
            let is_bad = c.u8()? != 0;
            c.finish()?;
            link_loss.push(LossChannel::with_state(base_loss, ge, is_bad));
        }
        if link_loss.len() != 2 * n {
            return Err(CheckpointError::MissingChunk { tag });
        }

        let tag = *b"ldly";
        let mut c = Cursor::new(tag, r.require(tag)?);
        let mut link_delay = Vec::with_capacity(2 * n);
        for _ in 0..2 * n {
            link_delay.push(match c.u8()? {
                0 => None,
                1 => Some(read_delay(&mut c, tag)?),
                _ => return Err(bad(tag)),
            });
        }
        c.finish()?;

        let tag = *b"evnt";
        let mut c = Cursor::new(tag, r.require(tag)?);
        let next_seq = c.u64()?;
        let count = c.u32()? as usize;
        let mut entries = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let at = c.u64()?;
            let seq = c.u64()?;
            let disc = c.u8()?;
            let idx = c.u32()? as usize;
            let kind = match disc {
                0 if idx < 2 * n => EventKind::Arrival { link: idx },
                1 if idx < n => EventKind::Timer { node: idx },
                2 if idx < n => EventKind::Corruption { node: idx },
                3 if idx < n => EventKind::Execute { node: idx },
                _ => return Err(bad(tag)),
            };
            if seq >= next_seq {
                return Err(bad(tag));
            }
            entries.push((at, seq, kind));
        }
        c.finish()?;
        let queue = EventQueue::from_snapshot(entries, next_seq);

        let tag = *b"corr";
        let mut c = Cursor::new(tag, r.require(tag)?);
        let count = c.u32()? as usize;
        let mut corruptions = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let at = c.u64()?;
            let node = c.u32()? as usize;
            let state = read_state::<A::State>(&mut c, tag)?;
            if node >= n {
                return Err(bad(tag));
            }
            corruptions.push((at, node, state));
        }
        c.finish()?;

        let tag = *b"exec";
        let chunk = r.require(tag)?;
        if chunk.len() != n {
            return Err(bad(tag));
        }
        let exec_scheduled: Vec<bool> = chunk.iter().map(|&x| x != 0).collect();

        let tag = *b"paus";
        let mut c = Cursor::new(tag, r.require(tag)?);
        let pauses: Vec<_> = (0..n).map(|_| read_windows(&mut c)).collect::<Result<_, _>>()?;
        c.finish()?;

        let tag = *b"outg";
        let mut c = Cursor::new(tag, r.require(tag)?);
        let outages: Vec<_> = (0..2 * n).map(|_| read_windows(&mut c)).collect::<Result<_, _>>()?;
        c.finish()?;

        let tag = *b"ntem";
        let (netem, netem_profile) = match r.find(tag) {
            None => (vec![None; 2 * n], None),
            Some(chunk) => {
                let mut c = Cursor::new(tag, chunk);
                let name = String::from_utf8(c.bytes()?.to_vec()).map_err(|_| bad(tag))?;
                let forward = ssr_netem::DirProfile::decode(&mut c, tag)?;
                let reverse = ssr_netem::DirProfile::decode(&mut c, tag)?;
                let netem_seed = c.u64()?;
                c.finish()?;
                let profile = LinkProfile { name, forward, reverse };
                let netem: Vec<Option<NetemLink>> = r
                    .all(*b"ntml")
                    .map(|chunk| NetemLink::restore(*b"ntml", chunk).map(Some))
                    .collect::<Result<_, _>>()?;
                if netem.len() != 2 * n {
                    return Err(CheckpointError::MissingChunk { tag: *b"ntml" });
                }
                (netem, Some((profile, netem_seed)))
            }
        };

        let meta = r.find(*b"meta").unwrap_or_default().to_vec();

        let mut sim = CstSim {
            algo,
            cfg,
            nodes,
            links,
            queue,
            now,
            rng: StdRng::from_state(rng_state),
            timeline: Timeline::new(),
            corruptions,
            exec_scheduled,
            link_loss,
            priv_flags: vec![false; n],
            priv_count: 0,
            priv_mask: 0,
            node_tokens: vec![0; n],
            tokens_total_ctr: 0,
            cache_ok: vec![[true; 2]; n],
            bad_entries: 0,
            ground_legit: false,
            link_delay,
            pauses,
            outages,
            transcript: None,
            events_processed,
            retired_transmissions,
            retired_losses,
            retired_rules,
            netem,
            netem_profile,
            retired_netem_drops,
        };
        sim.rebuild_counters();
        sim.record_sample();
        Ok((sim, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_core::{RingParams, SsToken, SsrMin};

    fn params(n: usize, k: u32) -> RingParams {
        RingParams::new(n, k).unwrap()
    }

    fn ssr_sim(seed: u64) -> CstSim<SsrMin> {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        CstSim::new(a, a.legitimate_anchor(3), SimConfig { seed, ..SimConfig::default() }).unwrap()
    }

    #[test]
    fn deterministic_per_seed() {
        let mut s1 = ssr_sim(11);
        let mut s2 = ssr_sim(11);
        s1.run_until(5_000);
        s2.run_until(5_000);
        assert_eq!(s1.ground_config(), s2.ground_config());
        assert_eq!(s1.stats(), s2.stats());
        assert_eq!(s1.timeline().samples(), s2.timeline().samples());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut s1 = ssr_sim(1);
        let mut s2 = ssr_sim(2);
        s1.run_until(5_000);
        s2.run_until(5_000);
        // Timers are staggered differently, so the stats differ w.h.p.
        assert_ne!(s1.timeline().samples(), s2.timeline().samples());
    }

    /// Theorem 3 observed: SSRmin under CST from a coherent legitimate start
    /// keeps 1..=2 privileged nodes at every instant.
    #[test]
    fn ssrmin_never_drops_to_zero_privileged() {
        for seed in 0..5u64 {
            let mut sim = ssr_sim(seed);
            sim.run_until(20_000);
            let sum = sim.timeline().summary(0).unwrap();
            assert_eq!(sum.zero_privileged_time, 0, "seed {seed}");
            assert_eq!(sum.zero_privileged_intervals, 0, "seed {seed}");
            assert!(sum.min_privileged >= 1, "seed {seed}");
            assert!(sum.max_privileged <= 2, "seed {seed}");
            assert!(sum.over_two_privileged_time == 0);
            // And the ring actually made progress.
            assert!(sim.stats().rules_executed > 10, "seed {seed}");
        }
    }

    /// Figure 11 observed: Dijkstra's ring under CST has zero-token
    /// instants at (essentially) every handover.
    #[test]
    fn dijkstra_under_cst_loses_the_token_during_transit() {
        let p = params(5, 7);
        let a = SsToken::new(p);
        // exec_delay = 3: a node keeps the token for 3 ticks of critical-
        // section work before releasing it (link delay is 5 ticks).
        let cfg = SimConfig { seed: 4, exec_delay: 3, ..SimConfig::default() };
        let mut sim = CstSim::new(a, a.uniform_config(3), cfg).unwrap();
        sim.run_until(20_000);
        let sum = sim.timeline().summary(0).unwrap();
        assert_eq!(sum.min_privileged, 0, "mutual inclusion must fail");
        assert!(sum.zero_privileged_time > 0);
        assert!(sum.zero_privileged_intervals > 1);
        assert!(sim.stats().rules_executed > 10, "the ring still circulates");
    }

    /// The mirror of the Figure 11 test: with the same critical-section
    /// dwell time, SSRmin never has a zero-privileged instant (Figure 13).
    #[test]
    fn ssrmin_with_dwell_time_still_never_zero() {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let cfg = SimConfig { seed: 4, exec_delay: 3, ..SimConfig::default() };
        let mut sim = CstSim::new(a, a.legitimate_anchor(3), cfg).unwrap();
        sim.run_until(20_000);
        let sum = sim.timeline().summary(0).unwrap();
        assert_eq!(sum.zero_privileged_time, 0);
        assert!(sum.min_privileged >= 1);
        assert!(sum.max_privileged <= 2);
        assert!(sim.stats().rules_executed > 10);
    }

    #[test]
    fn message_loss_keeps_ssrmin_gaps_negligible() {
        // Under message loss the Theorem 3 invariant is only *almost*
        // preserved: a long streak of consecutive losses can leave a stale
        // cache ("bad incoherence" in the paper's terms — a transient
        // fault), whose Rule-4/5 self-repair may cost a brief gap. The gap
        // fraction must stay negligible and the system must self-restore
        // (Theorem 4). Compare: Dijkstra's ring spends the majority of its
        // time at zero tokens even WITHOUT loss.
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let cfg = SimConfig { seed: 9, loss: 0.3, ..SimConfig::default() };
        let mut sim = CstSim::new(a, a.legitimate_anchor(0), cfg).unwrap();
        sim.run_until(30_000);
        let sum = sim.timeline().summary(0).unwrap();
        let frac = sum.zero_privileged_time as f64 / sum.window as f64;
        assert!(frac < 0.005, "zero-privileged fraction {frac} too high");
        assert!(sim.stats().losses > 0, "loss process must actually fire");
        assert!(sim.stats().rules_executed > 0);
    }

    /// Lemma 9 / Theorem 4 observed: from corrupted state and stale caches,
    /// with loss, the system still reaches a legitimate coherent state.
    #[test]
    fn converges_from_corruption_with_loss() {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let cfg = SimConfig { seed: 5, loss: 0.2, ..SimConfig::default() };
        let mut sim = CstSim::new(a, a.legitimate_anchor(0), cfg).unwrap();
        sim.schedule_corruption(100, 2, "6.1.1".parse().unwrap());
        sim.schedule_corruption(150, 4, "1.0.1".parse().unwrap());
        let t = sim.run_until_stably_legitimate(2_000_000, 1_000);
        assert!(t.is_some(), "must re-stabilize");
        // After stabilization: run further, zero-token time stays zero.
        let t0 = sim.now();
        sim.run_until(t0 + 10_000);
        let sum = sim.timeline().summary(t0).unwrap();
        assert_eq!(sum.zero_privileged_time, 0);
    }

    #[test]
    fn timer_only_mode_still_safe_but_slower() {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let fast = SimConfig { seed: 3, ..SimConfig::default() };
        let slow = SimConfig { seed: 3, send_on_receipt: false, ..SimConfig::default() };
        let mut s_fast = CstSim::new(a, a.legitimate_anchor(0), fast).unwrap();
        let mut s_slow = CstSim::new(a, a.legitimate_anchor(0), slow).unwrap();
        s_fast.run_until(50_000);
        s_slow.run_until(50_000);
        let fast_rules = s_fast.stats().rules_executed;
        let slow_rules = s_slow.stats().rules_executed;
        assert!(slow_rules > 0);
        assert!(
            fast_rules > slow_rules,
            "receipt-driven gossip must move tokens faster ({fast_rules} vs {slow_rules})"
        );
        let sum = s_slow.timeline().summary(0).unwrap();
        assert_eq!(sum.zero_privileged_time, 0, "safety holds even timer-only");
    }

    #[test]
    fn paused_token_holder_keeps_the_token_and_the_ring_resumes() {
        // Crash the bottom node (which holds both tokens at the anchor) for
        // a while: the token stays with it — its camera keeps observing —
        // so safety holds; when it wakes, circulation resumes.
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let mut sim =
            CstSim::new(a, a.legitimate_anchor(0), SimConfig { seed: 2, ..SimConfig::default() })
                .unwrap();
        sim.schedule_pause(0, 0, 2_000);
        sim.run_until(2_000);
        let during = sim.timeline().summary(0).unwrap();
        assert_eq!(during.zero_privileged_time, 0, "paused holder still holds");
        let rules_during = sim.stats().rules_executed;
        sim.run_until(20_000);
        let rules_after = sim.stats().rules_executed;
        assert!(
            rules_after > rules_during + 50,
            "circulation must resume after the pause ({rules_during} -> {rules_after})"
        );
        let post = sim.timeline().summary(2_000).unwrap();
        assert_eq!(post.zero_privileged_time, 0);
    }

    #[test]
    fn slow_link_delays_but_does_not_break_handover() {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let mut fast =
            CstSim::new(a, a.legitimate_anchor(0), SimConfig { seed: 3, ..SimConfig::default() })
                .unwrap();
        let mut slow =
            CstSim::new(a, a.legitimate_anchor(0), SimConfig { seed: 3, ..SimConfig::default() })
                .unwrap();
        // One crawling hop: P2 -> P3 takes 60 ticks instead of 5.
        slow.set_link_delay(2, 3, DelayModel::Fixed(60));
        fast.run_until(30_000);
        slow.run_until(30_000);
        assert!(
            slow.stats().rules_executed < fast.stats().rules_executed,
            "the slow hop must throttle circulation"
        );
        let sum = slow.timeline().summary(0).unwrap();
        assert_eq!(sum.zero_privileged_time, 0, "safety is latency-independent");
    }

    #[test]
    #[should_panic(expected = "not a ring link")]
    fn set_link_delay_rejects_non_edges() {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let mut sim = CstSim::new(a, a.legitimate_anchor(0), SimConfig::default()).unwrap();
        sim.set_link_delay(0, 2, DelayModel::Fixed(9));
    }

    #[test]
    fn link_outage_is_ridden_out_by_retransmission() {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let mut sim =
            CstSim::new(a, a.legitimate_anchor(0), SimConfig { seed: 5, ..SimConfig::default() })
                .unwrap();
        // The forward hop P1 → P2 is dark for 3000 ticks.
        sim.schedule_link_outage(1, 2, 1_000, 4_000);
        sim.run_until(30_000);
        let st = sim.stats();
        assert!(st.losses > 10, "the outage must actually drop deliveries");
        // Safety holds throughout, and circulation resumes after the window.
        let sum = sim.timeline().summary(0).unwrap();
        assert_eq!(sum.zero_privileged_time, 0, "{sum:?}");
        let tail = sim.timeline().summary(10_000).unwrap();
        assert!(sim.stats().rules_executed > 100);
        assert_eq!(tail.zero_privileged_time, 0);
    }

    #[test]
    #[should_panic(expected = "not a ring link")]
    fn link_outage_rejects_non_edges() {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let mut sim = CstSim::new(a, a.legitimate_anchor(0), SimConfig::default()).unwrap();
        sim.schedule_link_outage(0, 3, 1, 2);
    }

    #[test]
    fn burst_loss_drops_messages_in_bursts() {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let cfg = SimConfig {
            seed: 6,
            burst: Some(GilbertElliott { p_enter: 0.05, p_exit: 0.2, loss_bad: 0.9 }),
            ..SimConfig::default()
        };
        let mut sim = CstSim::new(a, a.legitimate_anchor(0), cfg).unwrap();
        sim.run_until(40_000);
        let st = sim.stats();
        assert!(st.losses > 0, "bursts must drop messages");
        assert!(st.rules_executed > 10, "circulation must survive bursts");
        // Despite bursts the zero-token fraction must stay negligible
        // (brief bad-incoherence blips only).
        let sum = sim.timeline().summary(0).unwrap();
        let frac = sum.zero_privileged_time as f64 / sum.window as f64;
        assert!(frac < 0.02, "zero fraction {frac} too high under bursts");
    }

    #[test]
    fn burst_loss_is_deterministic_per_seed() {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let run = |seed| {
            let cfg = SimConfig {
                seed,
                burst: Some(GilbertElliott { p_enter: 0.1, p_exit: 0.3, loss_bad: 0.8 }),
                ..SimConfig::default()
            };
            let mut sim = CstSim::new(a, a.legitimate_anchor(0), cfg).unwrap();
            sim.run_until(10_000);
            sim.stats()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn corruption_requires_valid_node_and_future_time() {
        let mut sim = ssr_sim(0);
        sim.run_until(100);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.schedule_corruption(50, 0, "0.0.0".parse().unwrap());
        }));
        assert!(r.is_err(), "scheduling in the past must panic");
    }

    #[test]
    fn transcript_records_the_handover_story() {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let mut sim = CstSim::new(
            a,
            a.legitimate_anchor(0),
            SimConfig { seed: 1, loss: 0.2, ..SimConfig::default() },
        )
        .unwrap();
        sim.enable_transcript(200);
        sim.run_until(3_000);
        let t = sim.transcript().unwrap();
        assert!(!t.is_empty());
        let rendered = t.render();
        assert!(rendered.contains("deliver"), "{rendered}");
        assert!(rendered.contains("rule"), "{rendered}");
        assert!(rendered.contains("LOST"), "{rendered}");
        assert!(rendered.contains("timer"), "{rendered}");
        // Timestamps are non-decreasing.
        let mut last = 0;
        for (at, _) in t.entries() {
            assert!(*at >= last);
            last = *at;
        }
    }

    #[test]
    fn transcript_disabled_by_default_and_costs_nothing() {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let mut sim = CstSim::new(a, a.legitimate_anchor(0), SimConfig::default()).unwrap();
        sim.run_until(2_000);
        assert!(sim.transcript().is_none());
    }

    /// The incremental observation counters must agree with a full
    /// recomputation at any point, including under loss, faults, pauses and
    /// dwell — the strongest guard against drift in the O(1) sampler.
    #[test]
    fn incremental_counters_match_full_recount() {
        let p = params(6, 8);
        let a = SsrMin::new(p);
        let cfg = SimConfig { seed: 13, loss: 0.2, exec_delay: 3, ..SimConfig::default() };
        let mut sim = CstSim::new(a, a.legitimate_anchor(1), cfg).unwrap();
        sim.schedule_corruption(500, 2, "5.1.1".parse().unwrap());
        sim.schedule_pause(4, 900, 1_400);
        for t in 1..=60u64 {
            sim.run_until(t * 100);
            // Full recount via the public (scanning) accessors.
            let privileged_full = sim.local_privileged();
            let last = *sim.timeline().samples().last().unwrap();
            assert_eq!(last.privileged, privileged_full.len(), "t={t}");
            let mask_full: u64 = privileged_full.iter().map(|&i| 1u64 << i).fold(0, |a, b| a | b);
            assert_eq!(last.mask, mask_full, "t={t}");
            assert_eq!(last.coherent, sim.is_coherent(), "t={t}");
            assert_eq!(
                last.legitimate,
                sim.algorithm().is_legitimate(&sim.ground_config()),
                "t={t}"
            );
            let tokens_full: usize =
                (0..6).map(|i| sim.node(i).tokens(sim.algorithm(), i).count() as usize).sum();
            assert_eq!(last.tokens_total, tokens_full, "t={t}");
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut sim = ssr_sim(0);
        sim.run_until(2_000);
        let st = sim.stats();
        assert!(st.transmissions > 0);
        assert!(st.events > 0);
        assert_eq!(st.losses, 0);
    }

    use ssr_core::SsrState;

    /// A graceful SSRmin joiner: adopt the predecessor's counter, hold no
    /// token bits (mirrors the UDP re-splice handshake).
    fn graceful_joiner(sim: &CstSim<SsrMin>) -> SsrState {
        let tail = sim.ground_config().len() - 1;
        SsrState::new(sim.node(tail).own.x, 0, 0)
    }

    /// Drive one seeded churn schedule through the DES and assert the ring
    /// re-converges to a stably legitimate configuration — checked against
    /// the *current* n's Theorem-2 envelope — after every membership event.
    #[test]
    fn churn_schedule_reconverges_within_envelope_of_current_n() {
        use crate::faults::{ChurnPlan, FaultKind, FaultSchedule};
        let k = 12; // headroom: the ring may grow to max_n = 9 < K
        let plan = ChurnPlan { rate: 4.0, window: (500, 4_500), min_n: 3, max_n: 9 };
        let schedule = FaultSchedule::churn(5, &plan, 21).unwrap();
        assert!(!schedule.is_empty(), "seed 21 must produce churn events");
        let a = SsrMin::new(params(5, k));
        let cfg = SimConfig { seed: 21, loss: 0.1, ..SimConfig::default() };
        let mut sim = CstSim::new(a, a.legitimate_anchor(0), cfg).unwrap();
        for ev in schedule.events() {
            sim.run_until(ev.at);
            let n = sim.ground_config().len();
            match ev.kind {
                FaultKind::Join { node } => {
                    assert_eq!(node, n);
                    let own = graceful_joiner(&sim);
                    sim.splice_join(SsrMin::new(params(n + 1, k)), own);
                }
                FaultKind::Leave { node } => {
                    sim.splice_leave(SsrMin::new(params(n - 1, k)), node);
                }
                other => panic!("churn schedules only hold membership events, got {other}"),
            }
            // Theorem 2 for the post-event ring: O(n²) rounds; one gossip
            // round is one timer interval of ticks.
            let n_now = sim.ground_config().len();
            let envelope = 4 * (n_now as u64) * (n_now as u64) * sim.cfg.timer_interval;
            let t0 = sim.now();
            let since = sim.run_until_stably_legitimate(t0 + envelope, 200);
            assert!(
                since.is_some(),
                "event '{}' at {} did not reconverge within the {n_now}-ring envelope",
                ev.kind,
                ev.at
            );
        }
        // The resized ring keeps circulating and the stats stayed cumulative.
        let before = sim.stats();
        sim.run_until(sim.now() + 10_000);
        let after = sim.stats();
        assert!(after.rules_executed > before.rules_executed + 10);
        assert!(after.transmissions > before.transmissions);
    }

    /// A graceful join/leave on a legitimate quiescent ring never loses the
    /// token: the membership event lands between handovers, so safety (1..=2
    /// privileged) holds across the splice itself, not just eventually.
    #[test]
    fn graceful_splice_preserves_the_token_through_the_event() {
        let k = 10;
        let a = SsrMin::new(params(5, k));
        let cfg = SimConfig { seed: 3, ..SimConfig::default() };
        let mut sim = CstSim::new(a, a.legitimate_anchor(0), cfg).unwrap();
        sim.run_until(2_000);
        let own = graceful_joiner(&sim);
        sim.splice_join(SsrMin::new(params(6, k)), own);
        sim.run_until(4_000);
        sim.splice_leave(SsrMin::new(params(5, k)), 2);
        sim.run_until(8_000);
        let sum = sim.timeline().summary(0).unwrap();
        assert_eq!(sum.zero_privileged_time, 0, "{sum:?}");
        assert!(sum.max_privileged <= 2, "{sum:?}");
    }

    #[test]
    fn splice_retires_counters_and_survives_pending_faults() {
        let k = 10;
        let a = SsrMin::new(params(5, k));
        let cfg = SimConfig { seed: 7, loss: 0.2, ..SimConfig::default() };
        let mut sim = CstSim::new(a, a.legitimate_anchor(0), cfg).unwrap();
        // Pending faults that straddle the splice: node 4's corruption and
        // node 2's pause survive (node 3's corruption leaves with node 3).
        sim.schedule_corruption(6_000, 3, "6.1.1".parse().unwrap());
        sim.schedule_corruption(6_000, 4, "1.0.1".parse().unwrap());
        sim.schedule_pause(2, 5_000, 5_500);
        sim.run_until(3_000);
        let before = sim.stats();
        assert!(before.transmissions > 0 && before.losses > 0);
        sim.splice_leave(SsrMin::new(params(4, k)), 3);
        let after = sim.stats();
        assert!(after.transmissions >= before.transmissions, "stats must stay cumulative");
        assert!(after.rules_executed >= before.rules_executed);
        // The shifted corruption (old node 4 is now node 3) still fires,
        // and the ring still restabilizes afterwards.
        assert!(sim.run_until_stably_legitimate(120_000, 500).is_some());
        assert!(sim.stats().events > after.events);
    }

    #[test]
    #[should_panic(expected = "anchor")]
    fn splice_leave_rejects_the_anchor() {
        let a = SsrMin::new(params(5, 10));
        let mut sim = CstSim::new(a, a.legitimate_anchor(0), SimConfig::default()).unwrap();
        sim.splice_leave(SsrMin::new(params(4, 10)), 0);
    }

    #[test]
    #[should_panic(expected = "n + 1")]
    fn splice_join_rejects_a_mismatched_algorithm() {
        let a = SsrMin::new(params(5, 10));
        let mut sim = CstSim::new(a, a.legitimate_anchor(0), SimConfig::default()).unwrap();
        sim.splice_join(SsrMin::new(params(7, 10)), SsrState::new(0, 0, 0));
    }

    // ---- netem link models -------------------------------------------

    fn netem_sim(seed: u64, profile: &str) -> CstSim<SsrMin> {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        // Netem times are microseconds; a gossip timer every 20 ms keeps
        // the WAN profiles (40–60 ms latency) meaningfully slower than LAN.
        let cfg = SimConfig { seed, timer_interval: 20_000, ..SimConfig::default() };
        let mut sim = CstSim::new(a, a.legitimate_anchor(0), cfg).unwrap();
        sim.set_netem(&ssr_netem::LinkProfile::builtin(profile).unwrap(), seed);
        sim
    }

    #[test]
    fn netem_runs_are_deterministic_per_seed() {
        let run = |seed| {
            let mut sim = netem_sim(seed, "wan");
            sim.run_until(2_000_000);
            (sim.ground_config(), sim.stats(), sim.netem_buffer_drops())
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn wan_throttles_circulation_relative_to_lan_but_stays_safe() {
        let mut lan = netem_sim(5, "lan");
        let mut wan = netem_sim(5, "wan");
        lan.run_until(3_000_000);
        wan.run_until(3_000_000);
        assert!(
            wan.stats().rules_executed < lan.stats().rules_executed,
            "40 ms links must hand over slower than 100 µs links ({} vs {})",
            wan.stats().rules_executed,
            lan.stats().rules_executed
        );
        assert!(lan.stats().rules_executed > 50, "lan ring must circulate");
        let sum = lan.timeline().summary(0).unwrap();
        assert_eq!(sum.zero_privileged_time, 0, "safety under netem");
    }

    #[test]
    fn lossy_wan_drops_and_netem_drops_stay_distinct() {
        let mut sim = netem_sim(9, "lossy-wan");
        sim.run_until(4_000_000);
        let st = sim.stats();
        assert!(st.losses > 0, "5% profile loss must fire");
        // Buffer drops are a subset of losses; with a 32-frame buffer and
        // one-deep senders they should be rare or zero, never exceeding
        // the loss total.
        assert!(sim.netem_buffer_drops() <= st.losses);
        assert!(st.rules_executed > 10, "circulation survives the lossy WAN");
    }

    #[test]
    fn cst_single_capacity_links_self_pace_even_a_one_frame_buffer() {
        use ssr_netem::{DirProfile, Jitter, LinkProfile};
        // The paper's links carry one message per direction at a time, and
        // the coalescing sender never offers a second frame before the
        // first delivers — CST is *self-clocking*, so in the DES even a
        // 1-frame netem buffer cannot overflow, no matter how slow the
        // serializer. (Drop-tail fires at the UDP proxy, where kernel
        // datagrams race the pacer asynchronously.) The serializer still
        // throttles: one 64-byte frame at 64 kbit/s occupies it for 8 ms.
        let dir = DirProfile {
            rate_bps: 64_000,
            latency_us: 1_000,
            jitter: Jitter::None,
            buffer_frames: 1,
            loss: 0.0,
        };
        let profile = LinkProfile::symmetric("crawl", dir);
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let cfg = SimConfig { seed: 2, timer_interval: 5_000, ..SimConfig::default() };
        let mut crawl = CstSim::new(a, a.legitimate_anchor(0), cfg).unwrap();
        crawl.set_netem(&profile, 2);
        let mut lan = CstSim::new(a, a.legitimate_anchor(0), cfg).unwrap();
        lan.set_netem(&LinkProfile::builtin("lan").unwrap(), 2);
        crawl.run_until(1_000_000);
        lan.run_until(1_000_000);
        assert_eq!(crawl.netem_buffer_drops(), 0, "self-clocked senders cannot overflow");
        assert_eq!(crawl.stats().losses, 0);
        assert!(crawl.stats().rules_executed > 0, "the ring still makes progress");
        assert!(
            crawl.stats().rules_executed < lan.stats().rules_executed / 2,
            "the 8 ms serializer must throttle circulation ({} vs {})",
            crawl.stats().rules_executed,
            lan.stats().rules_executed
        );
    }

    #[test]
    fn netem_survives_a_resplice() {
        let mut sim = netem_sim(4, "lan");
        sim.run_until(500_000);
        let own = graceful_joiner(&sim);
        sim.splice_join(SsrMin::new(params(6, 7)), own);
        assert_eq!(sim.netem_profile().unwrap().name, "lan");
        assert!(sim.netem_link(11).is_some(), "12 directed links after the join");
        let before = sim.stats().rules_executed;
        sim.run_until(1_500_000);
        assert!(sim.stats().rules_executed > before, "resized netem ring circulates");
    }

    // ---- cluster checkpoint / replay ---------------------------------

    #[test]
    fn checkpoint_restore_replays_byte_identically() {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let cfg = SimConfig { seed: 17, timer_interval: 20_000, ..SimConfig::default() };
        let mut sim = CstSim::new(a, a.legitimate_anchor(0), cfg).unwrap();
        sim.set_netem(&ssr_netem::LinkProfile::builtin("lossy-wan").unwrap(), 17);
        // A fault cursor that straddles the checkpoint: one corruption
        // before it (already applied), one after (still pending).
        sim.schedule_corruption(400_000, 2, "6.1.1".parse().unwrap());
        sim.schedule_corruption(1_200_000, 4, "1.0.1".parse().unwrap());
        sim.schedule_pause(3, 900_000, 1_100_000);
        sim.run_until(800_000);

        let bytes = sim.checkpoint(b"run-to-3M");
        let (mut replay, meta) = CstSim::restore(SsrMin::new(p), &bytes).unwrap();
        assert_eq!(meta, b"run-to-3M");
        assert_eq!(replay.now(), sim.now());
        assert_eq!(replay.ground_config(), sim.ground_config());

        // Observe both runs from the checkpoint onward and drive them to
        // the same end: every event must match, byte for byte.
        sim.enable_transcript(1 << 14);
        replay.enable_transcript(1 << 14);
        sim.run_until(3_000_000);
        replay.run_until(3_000_000);
        assert_eq!(sim.stats(), replay.stats());
        assert_eq!(sim.ground_config(), replay.ground_config());
        assert_eq!(sim.netem_buffer_drops(), replay.netem_buffer_drops());
        let a_t = sim.transcript().unwrap().render();
        let b_t = replay.transcript().unwrap().render();
        assert!(!a_t.is_empty());
        assert_eq!(a_t, b_t, "replay transcript must be byte-identical");
    }

    #[test]
    fn checkpoint_without_netem_also_round_trips() {
        let p = params(4, 6);
        let a = SsrMin::new(p);
        let cfg = SimConfig { seed: 8, loss: 0.2, exec_delay: 3, ..SimConfig::default() };
        let mut sim = CstSim::new(a, a.legitimate_anchor(1), cfg).unwrap();
        sim.set_link_delay(1, 2, DelayModel::Uniform { min: 2, max: 11 });
        sim.run_until(4_000);
        let bytes = sim.checkpoint(&[]);
        let (mut replay, meta) = CstSim::restore(SsrMin::new(p), &bytes).unwrap();
        assert!(meta.is_empty());
        sim.enable_transcript(4096);
        replay.enable_transcript(4096);
        sim.run_until(20_000);
        replay.run_until(20_000);
        assert_eq!(sim.transcript().unwrap().render(), replay.transcript().unwrap().render());
        assert_eq!(sim.stats(), replay.stats());
    }

    #[test]
    fn restore_rejects_the_wrong_ring_size_and_damage() {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        let sim = CstSim::new(a, a.legitimate_anchor(0), SimConfig::default()).unwrap();
        let bytes = sim.checkpoint(&[]);
        assert!(CstSim::restore(SsrMin::new(params(6, 7)), &bytes).is_err());
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(CstSim::restore(SsrMin::new(p), &bad).is_err(), "corruption fails closed");
        assert!(CstSim::restore(SsrMin::new(p), &bytes[..bytes.len() - 3]).is_err());
    }
}
