//! The time-window protocol state machine.
//!
//! [`Engine`] drives the protocol of paper §2 over a shared channel: at
//! every *decision point* it discards over-age messages (element 4),
//! chooses an initial window via the [`ControlPolicy`], and runs one
//! *windowing round* — probe, split on collision, immediately split a
//! sibling known to contain two or more arrivals — until the round ends in
//! a successful transmission or the initial window proves empty.
//!
//! Windows live on the **pseudo time** axis (§3.1): a window is a
//! contiguous pseudo interval whose actual-time image may consist of
//! several segments when examined regions intervene (this matters for the
//! LCFS/RANDOM disciplines; under the Theorem-1 policy the two views
//! coincide). A frozen [`PseudoMap`] snapshot taken at the decision point
//! materializes window segments during the round.
//!
//! The engine is a faithful *global* simulation of the distributed
//! protocol: every decision depends only on information all stations share
//! (the channel-feedback-reconstructible timeline and a common
//! pseudo-random stream) — the [`crate::mirror`] module proves this
//! property in tests. Each pending message acts as an independent
//! transmitter (the infinite-population model of the paper's analysis).
//!
//! ## Sub-tick resolution
//!
//! The continuous-time protocol can split windows forever; a tick lattice
//! cannot. When a collision occurs in a window one tick wide, the engine
//! switches to per-message fair coin flips — statistically identical to
//! splitting the (uniform) sub-tick arrival instants in half — until one
//! message is isolated. The tick is *not* marked examined in that case,
//! because unexamined sub-tick arrivals may remain.
//!
//! ## Fault injection and graceful degradation
//!
//! The engine probes through a [`tcw_mac::FaultyMedium`], which under a
//! nonzero [`FaultPlan`] corrupts the ternary feedback (see
//! `tcw_mac::fault`). The engine models the consensus reaction of the
//! station population:
//!
//! * **detectable corruption** (erased feedback, or a collision misread as
//!   idle — which the transmitters flag) triggers a bounded
//!   re-probe/backoff of the same window per [`ResyncPolicy`]; once the
//!   retry budget is exhausted the round is abandoned and the protocol
//!   resumes from the unexamined backlog (`t_past`) at the next decision
//!   point;
//! * **undetectable misdetections** fool every station identically, so
//!   consensus survives: a phantom collision wastes splitting work, a
//!   success misread as a collision aborts the transmission (the message
//!   stays pending), and a collision misread as a success strands the
//!   colliding messages in examined time — the engine reopens their
//!   arrival intervals ([`Timeline::reopen`]) at the next decision point.
//!
//! With [`FaultPlan::none`] (the default) every code path, random stream
//! and metric is bit-identical to a fault-free build.
//!
//! ## Station churn and dynamic membership
//!
//! A [`ChurnPlan`] breaks the fixed-population assumption: stations
//! crash and restart, join late, or leave permanently, driven by a
//! dedicated RNG fork stepped once per probe slot ([`ChurnProcess`]).
//! The engine models the consensus view of the *surviving* population:
//!
//! * a **down** station neither hears nor transmits — its pending
//!   messages drop out of the transmitter set, so a window holding only
//!   down-station backlog probes idle and is marked examined (the
//!   backlog is stranded, exactly like fault-orphaned messages);
//! * a **restarted** station cold-starts from the next decision-point
//!   beacon; its stranded backlog younger than the catch-up bound is
//!   recovered through the orphan-reopen path (which preserves Theorem-1
//!   FCFS order for surviving messages), and older backlog is dropped as
//!   churn loss;
//! * a **departed** station's backlog is dropped immediately — no future
//!   membership state could ever resolve it;
//! * messages arriving at a station that is down, absent or departed are
//!   blocked (churn loss) — there is nobody to buffer them.
//!
//! With [`ChurnPlan::none`] (the default) the membership process draws
//! nothing from its stream and the run is bit-identical to a
//! static-population build.

use crate::controller::{SlotContext, StaticController, WindowController};
use crate::interval::Interval;
use crate::metrics::{MeasureConfig, Metrics};
use crate::policy::{ControlPolicy, SplitRule, WindowPosition};
use crate::pseudo::{PseudoInterval, PseudoMap};
use crate::timeline::Timeline;
use crate::trace::{DropCause, EngineObserver};
use std::collections::{BTreeMap, HashSet};
use tcw_mac::{
    Arrival, ArrivalSource, ChannelConfig, ChannelStats, ChurnEvent, ChurnPlan, ChurnProcess,
    FaultPlan, FaultyMedium, Feedback, Medium, Message, MessageId, SlotOutcome, StationId,
};
use tcw_sim::rng::Rng;
use tcw_sim::snap::{self, SnapError, SnapReader, SnapWriter};
use tcw_sim::time::{Dur, Time};

/// Static configuration of a protocol run.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Channel parameters (`tau` resolution, message length `M`, guard).
    pub channel: ChannelConfig,
    /// The control policy (elements 1–4).
    pub policy: ControlPolicy,
    /// Measurement window and deadline for loss accounting.
    pub measure: MeasureConfig,
    /// Master seed. The policy stream is derived as
    /// `Rng::new(seed).fork("policy")` — the first fork — so an external
    /// station model (see [`crate::mirror`]) can replicate it.
    pub seed: u64,
}

/// Bounded retry behaviour after a detectably corrupted slot.
#[derive(Clone, Copy, Debug)]
pub struct ResyncPolicy {
    /// How many times a window whose feedback was detectably corrupted is
    /// re-probed before the round is abandoned.
    pub max_retries: u32,
    /// Cap (in `tau` slots) on the exponential quiet backoff held before
    /// each re-probe (1, 2, 4, ... slots, clamped here).
    pub backoff_cap_slots: u64,
}

impl Default for ResyncPolicy {
    fn default() -> Self {
        ResyncPolicy {
            max_retries: 4,
            backoff_cap_slots: 8,
        }
    }
}

/// Scratch buffers reused across windowing rounds so the per-slot hot
/// path performs no heap allocation once the buffers reach their
/// high-water capacity.
///
/// Invariants: every buffer is *content-dead* between uses — each user
/// clears (or overwrites) it before reading, so reuse can never leak
/// state from one round into the next, and draining a buffer never
/// changes an RNG draw or a probe decision (bit-identity is pinned by
/// the golden-metrics tests).
#[derive(Default)]
struct RoundScratch {
    /// Actual-time segments of the currently probed window.
    segments: Vec<Interval>,
    /// Segments of a sibling window (observer callback only).
    sib_segments: Vec<Interval>,
    /// Messages inside the probed window — the transmitter set; doubles
    /// as the active set during sub-tick cluster resolution.
    txs: Vec<Message>,
    /// Ids of the live transmitters handed to the medium.
    ids: Vec<MessageId>,
    /// "Older" half of a sub-tick cluster partition.
    older: Vec<Message>,
}

/// How a sub-tick cluster resolution ended.
enum ClusterEnd {
    /// One message was isolated and delivered (the transmission is
    /// completed inside the resolution loop, before that slot's churn
    /// transitions can touch the winner's pending entry).
    Delivered,
    /// A collision was misread as a success: stations believe the cluster
    /// resolved, nothing was delivered; the tick stays unexamined so the
    /// messages remain reachable.
    PhantomSuccess,
    /// Resolution was abandoned (only reachable under fault injection).
    Abandoned,
}

/// First word of every engine snapshot ("tcw_snap" in ASCII).
const SNAP_MAGIC: u64 = 0x7463_775f_736e_6170;
/// Snapshot layout version; bumped whenever the word stream changes so
/// stale snapshots are rejected instead of misdecoded.
const SNAP_FORMAT: u64 = 3;

/// Telemetry of the event-horizon fast path: how much work the engine
/// avoided by jumping over analytically known idle runs and by resolving
/// whole FCFS windowing rounds in the batched kernel. Purely
/// observational — both paths are bit-identical in every protocol metric,
/// so these counters are excluded from equivalence fingerprints.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HorizonStats {
    /// Idle-run jumps taken.
    pub jumps: u64,
    /// Idle decision rounds aggregated into jumps (one probe slot each).
    pub slots_skipped: u64,
    /// Batched-kernel activations.
    pub batched_runs: u64,
    /// Probe slots the batched kernel resolved without generic dispatch:
    /// one per empty or singleton round, and every probe of a collision
    /// round, sub-tick coin slots included. With `slots_skipped` this is
    /// the fast path's share of all probe slots.
    pub batched_slots: u64,
}

impl HorizonStats {
    /// Pushes the fast-path counters into `sink` under stable
    /// `tcw_horizon_*` names.
    pub fn emit(&self, sink: &mut dyn tcw_sim::stats::MetricSink) {
        sink.counter(
            "tcw_horizon_jumps_total",
            "idle-run jumps taken by the event-horizon fast path",
            self.jumps,
        );
        sink.counter(
            "tcw_horizon_slots_skipped_total",
            "idle decision rounds aggregated into jumps",
            self.slots_skipped,
        );
        sink.counter(
            "tcw_horizon_batched_runs_total",
            "batched resolution kernel activations",
            self.batched_runs,
        );
        sink.counter(
            "tcw_horizon_batched_slots_total",
            "probe slots resolved by the batched kernel",
            self.batched_slots,
        );
    }
}

/// The protocol engine; generic over the arrival process.
pub struct Engine<S: ArrivalSource> {
    medium: FaultyMedium,
    policy: ControlPolicy,
    timeline: Timeline,
    /// Pending (arrived, untransmitted, undiscarded) messages ordered by
    /// arrival time.
    pending: BTreeMap<(Time, MessageId), Message>,
    source: S,
    lookahead: Option<Arrival>,
    source_done: bool,
    /// Arrivals after this instant are not admitted (used for draining).
    arrival_cutoff: Time,
    next_id: u64,
    rng_policy: Rng,
    rng_coins: Rng,
    rng_source: Rng,
    last_tx_end: Time,
    /// Finite-population sensitivity mode: each station buffers at most
    /// one message; arrivals at a busy station are blocked (lost).
    single_buffer: bool,
    /// Per-station busy flags, indexed by station id (ids are dense):
    /// set on admission, cleared when the message is delivered,
    /// discarded or dropped. Read only in single-buffer mode.
    busy: Vec<bool>,
    /// Retry/backoff budget for detectably corrupted slots.
    resync: ResyncPolicy,
    /// Messages stranded in examined time by a misread slot; their arrival
    /// intervals are reopened at the next decision point.
    orphans: Vec<(Time, MessageId)>,
    /// Messages whose trajectory was touched by an injected fault, for
    /// attributing subsequent losses to the faults.
    fault_touched: HashSet<MessageId>,
    /// The station membership process, stepped once per probe slot.
    churn: ChurnProcess,
    /// Reused buffer for membership transitions of one slot.
    churn_events: Vec<ChurnEvent>,
    /// Messages whose station crashed while they were pending, for
    /// attributing subsequent losses to churn.
    churn_touched: HashSet<MessageId>,
    /// Stations that restarted since the last decision point, with the
    /// probe slot of their restart (for rejoin-latency accounting).
    rejoining: Vec<(StationId, u64)>,
    /// Online window-length control (adaptive element 2); the default
    /// [`StaticController`] defers to the policy and keeps the run
    /// bit-identical to a controller-free build.
    controller: Box<dyn WindowController>,
    /// Per-round scratch buffers (see [`RoundScratch`]).
    scratch: RoundScratch,
    /// Reused pseudo-time snapshot; rebuilt in place at every decision
    /// point so the hot path stops allocating gap/offset vectors.
    pseudo: PseudoMap,
    /// Reused key buffer for the membership sweeps (rejoin catch-up and
    /// permanent leaves) that remove from `pending` while iterating.
    sweep_keys: Vec<(Time, MessageId)>,
    /// Swap partner of `orphans`/`rejoining`, so draining either list at
    /// a decision point keeps its capacity instead of reallocating.
    orphans_swap: Vec<(Time, MessageId)>,
    /// See `orphans_swap`.
    rejoining_swap: Vec<(StationId, u64)>,
    /// Event-horizon fast path toggle (on by default). Off forces the
    /// slot-stepped slow path unconditionally, as does attaching an
    /// observer whose [`EngineObserver::slow_path`] returns `true`.
    jump_ahead: bool,
    /// Loss/delay accounting.
    pub metrics: Metrics,
    /// Channel-time accounting.
    pub channel_stats: ChannelStats,
    /// Event-horizon fast-path telemetry.
    pub horizon_stats: HorizonStats,
}

impl<S: ArrivalSource> Engine<S> {
    /// Creates an engine over the given arrival source.
    pub fn new(cfg: EngineConfig, source: S) -> Self {
        let mut master = Rng::new(cfg.seed);
        // Fork order is part of the determinism contract: "policy",
        // "coins", "source" predate fault injection, "faults" predates
        // churn, and "churn" comes last, so every earlier stream is
        // bit-identical whether or not the newer subsystems are ever
        // installed.
        let rng_policy = master.fork("policy");
        let rng_coins = master.fork("coins");
        let rng_source = master.fork("source");
        let rng_faults = master.fork("faults");
        let rng_churn = master.fork("churn");
        Engine {
            medium: FaultyMedium::new(Medium::new(cfg.channel), FaultPlan::none(), rng_faults),
            policy: cfg.policy,
            timeline: Timeline::new(),
            pending: BTreeMap::new(),
            source,
            lookahead: None,
            source_done: false,
            arrival_cutoff: Time::MAX,
            next_id: 0,
            rng_policy,
            rng_coins,
            rng_source,
            last_tx_end: Time::ZERO,
            single_buffer: false,
            busy: Vec::new(),
            resync: ResyncPolicy::default(),
            orphans: Vec::new(),
            fault_touched: HashSet::new(),
            churn: ChurnProcess::disabled(rng_churn),
            churn_events: Vec::new(),
            churn_touched: HashSet::new(),
            rejoining: Vec::new(),
            controller: Box::new(StaticController::new()),
            scratch: RoundScratch::default(),
            pseudo: PseudoMap::default(),
            sweep_keys: Vec::new(),
            orphans_swap: Vec::new(),
            rejoining_swap: Vec::new(),
            jump_ahead: true,
            metrics: Metrics::new(cfg.measure),
            channel_stats: ChannelStats::new(),
            horizon_stats: HorizonStats::default(),
        }
    }

    /// Enables or disables the event-horizon fast path (on by default).
    /// Disabling forces every decision cycle through the slot-stepped
    /// slow path; both paths are bit-identical in every protocol metric,
    /// RNG stream and controller state (pinned by the A-B property test),
    /// so this knob only trades speed for per-event observability.
    pub fn set_jump_ahead(&mut self, on: bool) {
        self.jump_ahead = on;
    }

    /// Whether the event-horizon fast path is enabled.
    pub fn jump_ahead(&self) -> bool {
        self.jump_ahead
    }

    /// Installs a fault plan; [`FaultPlan::none`] (the default) leaves the
    /// run bit-identical to a fault-free build.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.medium.set_plan(plan);
    }

    /// The active fault plan.
    pub fn fault_plan(&self) -> &FaultPlan {
        self.medium.plan()
    }

    /// Installs a churn plan over `stations` stations. Must be called
    /// before the run starts; [`ChurnPlan::none`] (the default) leaves
    /// the run bit-identical to a static-population build.
    pub fn set_churn_plan(&mut self, plan: ChurnPlan, stations: u32) {
        self.churn = ChurnProcess::new(plan, stations, self.churn.stream());
    }

    /// The station membership process (counters, plan, current slot).
    pub fn churn(&self) -> &ChurnProcess {
        &self.churn
    }

    /// Overrides the retry/backoff budget for detectably corrupted slots.
    pub fn set_resync_policy(&mut self, resync: ResyncPolicy) {
        self.resync = resync;
    }

    /// Installs an online window-length controller (adaptive element 2).
    /// The default [`StaticController`] defers to the policy's
    /// element (2) and leaves the run bit-identical to a controller-free
    /// build (pinned by the golden-fingerprint tests). Controllers draw
    /// no RNG, so installing one never perturbs the fork order or any
    /// stream.
    pub fn set_controller(&mut self, controller: Box<dyn WindowController>) {
        self.controller = controller;
    }

    /// The active window-length controller (telemetry access).
    pub fn controller(&self) -> &dyn WindowController {
        &*self.controller
    }

    /// Enables the finite-population sensitivity model: each station can
    /// buffer only one message, and an arrival at a busy station is
    /// blocked (counted as lost, reported by `Metrics::blocked`).
    ///
    /// The paper's analysis assumes an effectively infinite population
    /// (every message an independent transmitter); this knob quantifies
    /// how quickly that assumption becomes accurate as the station count
    /// grows.
    pub fn set_single_buffer_stations(&mut self, on: bool) {
        self.single_buffer = on;
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.timeline.now()
    }

    /// The protocol timeline (examined/unexamined state).
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Number of pending messages.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Captures the complete mutable simulation state as a flat word
    /// stream: timeline, pending set, all five RNG stream positions, the
    /// arrival-source cursor, fault/churn process state, controller state,
    /// metrics, and channel accounting. Configuration (channel, policy,
    /// measurement window, controller kind, source schedule) is *not*
    /// captured: [`Engine::restore`] requires a target built from the
    /// identical [`EngineConfig`] and controller.
    ///
    /// Snapshots are taken at decision-cycle boundaries (between
    /// [`Engine::step`] calls) — the protocol's own beacon instants, where
    /// all intra-round state is dead. The stream ends with an FNV-1a
    /// checksum word, so any bit flip is rejected by `restore`.
    ///
    /// # Errors
    /// Fails if the arrival source kind does not support checkpointing
    /// (e.g. [`tcw_mac::MergedSource`]).
    pub fn snapshot(&self) -> Result<Vec<u64>, SnapError> {
        let cursor = self
            .source
            .save_cursor()
            .ok_or_else(|| SnapError::new("arrival source kind does not support checkpointing"))?;
        let mut w = SnapWriter::new();
        w.push(SNAP_MAGIC);
        w.push(SNAP_FORMAT);
        self.medium.save_state(&mut w);
        self.timeline.save_state(&mut w);
        w.push_usize(self.pending.len());
        for (key, m) in &self.pending {
            debug_assert_eq!(*key, (m.arrival, m.id), "pending key out of sync");
            w.push(m.arrival.ticks());
            w.push(m.id.0);
            w.push(u64::from(m.station.0));
        }
        match self.lookahead {
            Some(a) => {
                w.push_bool(true);
                w.push(a.time.ticks());
                w.push(u64::from(a.station.0));
            }
            None => w.push_bool(false),
        }
        w.push_bool(self.source_done);
        w.push(self.arrival_cutoff.ticks());
        w.push(self.next_id);
        for rng in [&self.rng_policy, &self.rng_coins, &self.rng_source] {
            for s in rng.state() {
                w.push(s);
            }
        }
        w.push(self.last_tx_end.ticks());
        w.push_bool(self.single_buffer);
        w.push_usize(self.busy.iter().filter(|&&b| b).count());
        for (s, _) in self.busy.iter().enumerate().filter(|(_, &b)| b) {
            w.push(s as u64);
        }
        w.push(u64::from(self.resync.max_retries));
        w.push(self.resync.backoff_cap_slots);
        w.push_usize(self.orphans.len());
        for &(t, id) in &self.orphans {
            w.push(t.ticks());
            w.push(id.0);
        }
        let mut touched: Vec<u64> = self.fault_touched.iter().map(|id| id.0).collect();
        touched.sort_unstable();
        w.push_usize(touched.len());
        for id in touched {
            w.push(id);
        }
        self.churn.save_state(&mut w);
        let mut touched: Vec<u64> = self.churn_touched.iter().map(|id| id.0).collect();
        touched.sort_unstable();
        w.push_usize(touched.len());
        for id in touched {
            w.push(id);
        }
        w.push_usize(self.rejoining.len());
        for &(s, slot) in &self.rejoining {
            w.push(u64::from(s.0));
            w.push(slot);
        }
        let mut sub = SnapWriter::new();
        self.controller.save_state(&mut sub);
        w.push_section(&sub.into_words());
        w.push_section(&cursor);
        self.metrics.save_state(&mut w);
        for d in [
            self.channel_stats.idle,
            self.channel_stats.collision,
            self.channel_stats.success,
            self.channel_stats.erased,
            self.channel_stats.quiet,
        ] {
            w.push(d.ticks());
        }
        for c in [
            self.channel_stats.idle_slots,
            self.channel_stats.collision_slots,
            self.channel_stats.successes,
            self.channel_stats.erased_slots,
            self.channel_stats.quiet_periods,
        ] {
            w.push(c);
        }
        w.push_bool(self.jump_ahead);
        for c in [
            self.horizon_stats.jumps,
            self.horizon_stats.slots_skipped,
            self.horizon_stats.batched_runs,
            self.horizon_stats.batched_slots,
        ] {
            w.push(c);
        }
        let mut words = w.into_words();
        words.push(snap::checksum(&words));
        Ok(words)
    }

    /// Overwrites this engine's mutable state with a snapshot captured by
    /// [`Engine::snapshot`] on an engine built from the identical
    /// configuration (same [`EngineConfig`], controller kind, and source
    /// schedule). After a successful restore the run continues bit-identically
    /// to the engine the snapshot was taken from.
    ///
    /// # Errors
    /// Fails — leaving `self` unspecified but safe to drop — on a checksum
    /// mismatch (bit corruption), wrong magic/format (stale snapshot), a
    /// truncated stream, or structurally invalid state.
    pub fn restore(&mut self, words: &[u64]) -> Result<(), SnapError> {
        if words.len() < 2 {
            return Err(SnapError::new("snapshot too short"));
        }
        let (payload, tail) = words.split_at(words.len() - 1);
        if tail[0] != snap::checksum(payload) {
            return Err(SnapError::new("snapshot checksum mismatch"));
        }
        let mut r = SnapReader::new(payload);
        if r.take()? != SNAP_MAGIC {
            return Err(SnapError::new("not an engine snapshot (bad magic)"));
        }
        let format = r.take()?;
        if format != SNAP_FORMAT {
            return Err(SnapError::new(format!(
                "unsupported snapshot format {format} (expected {SNAP_FORMAT})"
            )));
        }
        self.medium.load_state(&mut r)?;
        self.timeline = Timeline::load_state(&mut r)?;
        self.pending.clear();
        let n = r.take_len()?;
        for _ in 0..n {
            let arrival = Time::from_ticks(r.take()?);
            let id = MessageId(r.take()?);
            let station = StationId(
                u32::try_from(r.take()?).map_err(|_| SnapError::new("station id overflows u32"))?,
            );
            self.pending.insert(
                (arrival, id),
                Message {
                    id,
                    station,
                    arrival,
                },
            );
        }
        self.lookahead = if r.take_bool()? {
            let time = Time::from_ticks(r.take()?);
            let station = StationId(
                u32::try_from(r.take()?).map_err(|_| SnapError::new("station id overflows u32"))?,
            );
            Some(Arrival { time, station })
        } else {
            None
        };
        self.source_done = r.take_bool()?;
        self.arrival_cutoff = Time::from_ticks(r.take()?);
        self.next_id = r.take()?;
        for rng in [
            &mut self.rng_policy,
            &mut self.rng_coins,
            &mut self.rng_source,
        ] {
            let mut s = [0u64; 4];
            for x in s.iter_mut() {
                *x = r.take()?;
            }
            *rng = Rng::from_state(s);
        }
        self.last_tx_end = Time::from_ticks(r.take()?);
        self.single_buffer = r.take_bool()?;
        self.busy.clear();
        let n = r.take_len()?;
        for _ in 0..n {
            let s = StationId(
                u32::try_from(r.take()?).map_err(|_| SnapError::new("station id overflows u32"))?,
            );
            // A flag is set when one of the station's messages is admitted
            // and cleared when any of them leaves the book, so a busy
            // station always holds a pending message. Checking it also
            // bounds the flag vector by the restored book.
            if !self.pending.values().any(|m| m.station == s) {
                return Err(SnapError::new("busy station holds no pending message"));
            }
            self.mark_busy(s);
        }
        self.resync = ResyncPolicy {
            max_retries: u32::try_from(r.take()?)
                .map_err(|_| SnapError::new("resync retries overflow u32"))?,
            backoff_cap_slots: r.take()?,
        };
        self.orphans.clear();
        let n = r.take_len()?;
        for _ in 0..n {
            let t = Time::from_ticks(r.take()?);
            let id = MessageId(r.take()?);
            self.orphans.push((t, id));
        }
        self.fault_touched.clear();
        let n = r.take_len()?;
        for _ in 0..n {
            self.fault_touched.insert(MessageId(r.take()?));
        }
        self.churn = ChurnProcess::load_state(&mut r)?;
        self.churn_touched.clear();
        let n = r.take_len()?;
        for _ in 0..n {
            self.churn_touched.insert(MessageId(r.take()?));
        }
        self.rejoining.clear();
        let n = r.take_len()?;
        for _ in 0..n {
            let s = StationId(
                u32::try_from(r.take()?).map_err(|_| SnapError::new("station id overflows u32"))?,
            );
            let slot = r.take()?;
            self.rejoining.push((s, slot));
        }
        let section = r.take_section()?;
        {
            let mut sub = SnapReader::new(section);
            self.controller.load_state(&mut sub)?;
            sub.finish().map_err(|_| {
                SnapError::new("controller state length mismatch (wrong controller kind?)")
            })?;
        }
        let cursor = r.take_section()?;
        self.source.load_cursor(cursor)?;
        self.metrics = Metrics::load_state(*self.metrics.config(), &mut r)?;
        let mut durs = [Dur::from_ticks(0); 5];
        for d in durs.iter_mut() {
            *d = Dur::from_ticks(r.take()?);
        }
        let mut counts = [0u64; 5];
        for c in counts.iter_mut() {
            *c = r.take()?;
        }
        self.channel_stats = ChannelStats {
            idle: durs[0],
            collision: durs[1],
            success: durs[2],
            erased: durs[3],
            quiet: durs[4],
            idle_slots: counts[0],
            collision_slots: counts[1],
            successes: counts[2],
            erased_slots: counts[3],
            quiet_periods: counts[4],
        };
        self.jump_ahead = r.take_bool()?;
        self.horizon_stats = HorizonStats {
            jumps: r.take()?,
            slots_skipped: r.take()?,
            batched_runs: r.take()?,
            batched_slots: r.take()?,
        };
        r.finish()?;
        // Scratch buffers hold no live content at a decision boundary;
        // clear them so a reused engine starts the next cycle clean.
        self.scratch.segments.clear();
        self.scratch.sib_segments.clear();
        self.scratch.txs.clear();
        self.scratch.ids.clear();
        self.scratch.older.clear();
        self.churn_events.clear();
        self.sweep_keys.clear();
        self.orphans_swap.clear();
        self.rejoining_swap.clear();
        Ok(())
    }

    /// Runs until the clock reaches `horizon`.
    ///
    /// When the event-horizon fast path is enabled (the default) and the
    /// attached observer does not demand per-event callbacks
    /// ([`EngineObserver::slow_path`]), stretches of analytically known
    /// rounds are executed by [`Engine::fast_forward`] — bit-identical in
    /// every protocol metric, RNG stream and controller state to the
    /// slot-stepped path, but reported to the observer only through the
    /// aggregate [`EngineObserver::on_idle_jump`] /
    /// [`EngineObserver::on_batched_run`] hooks.
    pub fn run_until(&mut self, horizon: Time, obs: &mut dyn EngineObserver) {
        let fast = self.jump_ahead && !obs.slow_path();
        while self.timeline.now() < horizon {
            if fast && self.fast_forward(horizon, obs) {
                continue;
            }
            self.cycle(obs);
        }
    }

    /// Stops admitting new arrivals and runs until every already-admitted
    /// message is resolved (transmitted or discarded).
    pub fn drain(&mut self, obs: &mut dyn EngineObserver) {
        self.arrival_cutoff = self.timeline.now();
        self.ingest(self.timeline.now(), obs);
        while !self.pending.is_empty() || self.has_admissible_lookahead() {
            self.cycle(obs);
        }
    }

    /// Runs one decision cycle (exposed for step-wise tests).
    pub fn step(&mut self, obs: &mut dyn EngineObserver) {
        self.cycle(obs);
    }

    fn has_admissible_lookahead(&self) -> bool {
        self.lookahead
            .map(|a| a.time <= self.arrival_cutoff)
            .unwrap_or(false)
    }

    /// The event-horizon fast path. Tries to execute a stretch of
    /// analytically known decision cycles in one pass and returns whether
    /// any progress was made; on `false` the caller must run one generic
    /// [`Engine::cycle`]. Two kernels:
    ///
    /// * **idle-run jump** — pending book empty: every cycle until the
    ///   next arrival (bounded by the horizon and the next scheduled churn
    ///   transition) probes the whole one-`tau` trailing gap idle, so the
    ///   clock, examined prefix, idle counters and controller feedback are
    ///   all advanced in O(1) + the controller's own feedback cost;
    /// * **batched resolution** — pending book nonempty, single trailing
    ///   gap, Oldest position: whole windowing rounds are resolved
    ///   without pseudo-map rebuilds or generic round dispatch, collision
    ///   rounds included when splits are `OlderFirst` and no membership
    ///   transition is pending.
    ///
    /// Both kernels require a fault-free medium, no pending recovery work
    /// (orphans/rejoining) and a non-RANDOM window position, and replicate
    /// the slow path's operation order exactly — no RNG stream is touched
    /// differently, so the runs are bit-identical (pinned by the A-B
    /// property tests). Per-event observer callbacks inside the stretch
    /// are suppressed; `fast_forward` is only reached when the observer
    /// declared itself aggregate-only via [`EngineObserver::slow_path`].
    fn fast_forward(&mut self, limit: Time, obs: &mut dyn EngineObserver) -> bool {
        if !self.medium.plan().is_none()
            || !self.orphans.is_empty()
            || !self.rejoining.is_empty()
            || matches!(self.policy.position, WindowPosition::Random)
        {
            return false;
        }
        let tau = self.medium.config().tau();
        // `ingest` is idempotent at fixed `now`: bailing to `cycle()`
        // afterwards re-runs it as a no-op.
        self.ingest(self.timeline.now(), obs);
        if self.pending.is_empty() {
            self.idle_jump(limit, tau, obs)
        } else {
            self.batched_rounds(limit, tau, obs)
        }
    }

    /// Idle-run jump: with nothing pending and the timeline in its
    /// steady idle shape (examined prefix + one trailing gap exactly one
    /// `tau` wide), every cycle up to the next external event is an
    /// idle probe of the whole gap. `n` such cycles leave the system in a
    /// closed-form state: clock `+n*tau`, examined prefix extended by
    /// `(n-1)*tau` (the final gap stays unexamined), `n` idle slots of
    /// channel time, `n` churn slots with no transitions, and `n`
    /// identical `Initial`/`Idle` feedback events — which
    /// [`WindowController::on_idle_run`] applies (or replays) exactly.
    /// No RNG stream is touched, matching the slow path draw-for-draw.
    fn idle_jump(&mut self, limit: Time, tau: Dur, obs: &mut dyn EngineObserver) -> bool {
        // A sub-`tau` discard deadline would eat into the trailing gap at
        // every cycle; leave that pathology to the slow path.
        if self.policy.discard_after.is_some_and(|k| k < tau) {
            return false;
        }
        let now = self.timeline.now();
        let Some(gap) = self.timeline.trailing_gap() else {
            return false;
        };
        if gap.hi != now || gap.width() != tau {
            return false;
        }
        let tau_ticks = tau.ticks();
        // Cycle counts that reproduce the slow path's exit conditions
        // exactly: `run_until` overshoots to the first decision point at
        // or past the horizon, and an arrival is admitted at the first
        // decision point at or past its arrival time.
        let mut n = (limit - now).ticks().div_ceil(tau_ticks);
        match self.lookahead {
            Some(a) => {
                debug_assert!(a.time > now, "admissible arrival not ingested");
                n = n.min((a.time - now).ticks().div_ceil(tau_ticks));
            }
            // `ingest` leaves `lookahead` empty only when the source is
            // exhausted, so there is no arrival bound.
            None => debug_assert!(self.source_done),
        }
        if let Some(s) = self.churn.next_scheduled_transition() {
            n = n.min(s - self.churn.slot() - 1);
        }
        if n == 0 {
            return false;
        }
        let consumed = self.controller.on_idle_run(now, tau_ticks, n, &self.policy);
        if consumed == 0 {
            return false;
        }
        let to = now + Dur::from_ticks(consumed * tau_ticks);
        self.timeline.advance(to);
        self.timeline.mark_examined(Interval::new(
            gap.lo,
            now + Dur::from_ticks((consumed - 1) * tau_ticks),
        ));
        self.channel_stats.idle += Dur::from_ticks(consumed * tau_ticks);
        self.channel_stats.idle_slots += consumed;
        self.churn.skip_slots(consumed);
        self.horizon_stats.jumps += 1;
        self.horizon_stats.slots_skipped += consumed;
        obs.on_idle_jump(now, to, consumed);
        true
    }

    /// Batched resolution kernel: under the Oldest (FCFS) position with a
    /// single trailing gap, whole windowing rounds resolve without the
    /// pseudo-map rebuild, segment materialization and generic dispatch
    /// of `cycle`. The pseudo-projection is then the identity shifted by
    /// the gap's old edge, so each round costs one `BTreeMap` range probe
    /// of its initial window (see [`Engine::batched_round`]).
    ///
    /// A round of one probe (empty or singleton window) needs only the
    /// next churn slot to be transition-free. A collision round takes an
    /// unknown number of probe slots and splits, so it also needs the
    /// `OlderFirst` rule (which draws no policy RNG) and a membership
    /// process with no transition pending at all. Otherwise the batch
    /// ends and the caller runs the generic round; re-entry is
    /// idempotent, since nothing beyond `ingest`, the discard sweep and
    /// an idempotent `next_length` has happened for the aborted round and
    /// no RNG was drawn.
    fn batched_rounds(&mut self, limit: Time, tau: Dur, obs: &mut dyn EngineObserver) -> bool {
        if !matches!(self.policy.position, WindowPosition::Oldest) {
            return false;
        }
        let from = self.timeline.now();
        let probe_slots = |c: &ChannelStats| c.idle_slots + c.collision_slots + c.successes;
        let slots_before = probe_slots(&self.channel_stats);
        // No membership transition happens inside a batch, so one query
        // bounds it: every round's first churn slot must come before the
        // next scheduled transition.
        let next_transition = self.churn.next_scheduled_transition();
        let collisions = self.policy.split == SplitRule::OlderFirst && next_transition.is_none();
        let mut bufs = std::mem::take(&mut self.scratch);
        loop {
            let now = self.timeline.now();
            if now >= limit || next_transition.is_some_and(|s| s <= self.churn.slot() + 1) {
                break;
            }
            self.ingest(now, obs);
            // Book drained and the timeline back in its steady idle
            // shape: hand the stretch to the O(1) idle jump instead of
            // stepping tau-wide idle rounds one loop iteration each.
            if self.pending.is_empty()
                && self
                    .timeline
                    .trailing_gap()
                    .is_some_and(|g| g.width() == tau)
            {
                break;
            }
            self.discard_expired(now, obs);
            let Some(gap) = self.timeline.trailing_gap() else {
                // Zero backlog (or interior gaps): slow path.
                break;
            };
            debug_assert_eq!(gap.hi, now);
            let backlog = gap.width();
            let length = self.controller.next_length(now, backlog, &self.policy);
            let initial = self
                .policy
                .choose_window_with_length(backlog, length, &mut self.rng_policy)
                .expect("a trailing gap is nonempty");
            bufs.txs.clear();
            bufs.txs.extend(
                self.pending
                    .range(
                        (gap.lo, MessageId(0))
                            ..(gap.lo + Dur::from_ticks(initial.hi), MessageId(0)),
                    )
                    .map(|(_, m)| *m),
            );
            if !self.churn.plan().is_none() {
                self.churn.retain_up(&mut bufs.txs);
            }
            if bufs.txs.len() >= 2 && !collisions {
                break;
            }
            self.batched_round(gap.lo, initial, tau, &mut bufs, obs);
        }
        self.scratch = bufs;
        let slots = probe_slots(&self.channel_stats) - slots_before;
        if slots == 0 {
            return false;
        }
        self.horizon_stats.batched_runs += 1;
        self.horizon_stats.batched_slots += slots;
        obs.on_batched_run(from, self.timeline.now(), slots);
        true
    }

    /// One FCFS windowing round of the batched kernel, from the pseudo
    /// window `initial` over a single unexamined interval starting at
    /// `base`. On entry `bufs.txs` holds the initial window's live
    /// members, oldest first.
    ///
    /// Under the Oldest position and the `OlderFirst` rule the examined
    /// set stays a prefix (Lemma 2), so every window the round probes is
    /// the actual interval `base + [p.lo, p.hi)`. Arrivals are admitted
    /// only at decision points and a delivery ends the round, so the
    /// member list never changes mid-round: each probe's transmitter set
    /// is a `partition_point` slice of it. A same-tick cluster goes to
    /// [`Engine::resolve_cluster`] with the same coin draws as the slow
    /// path.
    ///
    /// Operation order, RNG draws and span callbacks replicate
    /// `windowing_round` on a fault-free medium exactly: stats,
    /// controller feedback, clock, delivery, churn slot, examined
    /// marking. Per-slot callbacks (`on_probe`, `on_immediate_split`)
    /// are not reported.
    fn batched_round(
        &mut self,
        base: Time,
        initial: PseudoInterval,
        tau: Dur,
        bufs: &mut RoundScratch,
        obs: &mut dyn EngineObserver,
    ) {
        let round_start = self.timeline.now();
        for m in &bufs.txs {
            obs.on_window_member(m, round_start);
        }
        let mut overhead: u64 = 0;
        let mut ctx = SlotContext::Initial {
            width: initial.width(),
        };
        let mut current = initial;
        // As in `windowing_round`: current ∪ sibling holds >= 2 arrivals.
        let mut sibling: Option<PseudoInterval> = None;
        loop {
            let now = self.timeline.now();
            let span = Interval::new(
                base + Dur::from_ticks(current.lo),
                base + Dur::from_ticks(current.hi),
            );
            let lo = bufs.txs.partition_point(|m| m.arrival < span.lo);
            let hi = bufs.txs.partition_point(|m| m.arrival < span.hi);
            let txs = &bufs.txs[lo..hi];
            let (outcome, dur) = match txs {
                [] => (SlotOutcome::Idle, tau),
                [m] => (
                    SlotOutcome::Success(m.id),
                    self.medium.config().success_duration(),
                ),
                _ => (SlotOutcome::Collision(txs.len() as u32), tau),
            };
            self.channel_stats.record(&outcome, dur);
            if txs.len() >= 2 {
                for m in txs {
                    obs.on_collision_member(m, now);
                }
            }
            self.controller.on_slot(ctx, &outcome);
            ctx = SlotContext::Resolution;
            self.timeline.advance(now + dur);
            if let SlotOutcome::Success(_) = outcome {
                self.complete_transmission(bufs.txs[lo], now, round_start, overhead, obs);
            }
            self.churn.skip_slots(1);
            match outcome {
                SlotOutcome::Idle => {
                    overhead += 1;
                    self.timeline.mark_examined(span);
                    let Some(sib) = sibling.take() else {
                        return; // empty initial window: round over
                    };
                    match self.policy.split_window(sib, &mut self.rng_policy) {
                        Some((first, second)) => {
                            current = first;
                            sibling = Some(second);
                        }
                        None => current = sib,
                    }
                }
                SlotOutcome::Success(_) => {
                    self.timeline.mark_examined(span);
                    return;
                }
                SlotOutcome::Collision(_) => {
                    overhead += 1;
                    match self.policy.split_window(current, &mut self.rng_policy) {
                        Some((first, second)) => {
                            current = first;
                            sibling = Some(second);
                        }
                        None => {
                            bufs.txs.truncate(hi);
                            bufs.txs.drain(..lo);
                            let end =
                                self.resolve_cluster(bufs, &mut overhead, round_start, false, obs);
                            debug_assert!(
                                matches!(end, ClusterEnd::Delivered),
                                "a fault-free cluster of live stations always delivers"
                            );
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Admits arrivals with time `<= now` into the pending set. Each
    /// admission opens a lifecycle span via
    /// [`EngineObserver::on_arrival`]; blocked arrivals (churn-blocked or
    /// single-buffer) never enter the protocol and open no span.
    fn ingest(&mut self, now: Time, obs: &mut dyn EngineObserver) {
        loop {
            if self.lookahead.is_none() && !self.source_done {
                self.lookahead = self.source.next_arrival(&mut self.rng_source);
                if self.lookahead.is_none() {
                    self.source_done = true;
                }
            }
            match self.lookahead {
                Some(a) if a.time <= now => {
                    self.lookahead = None;
                    if a.time > self.arrival_cutoff {
                        continue; // dropped: past the drain cutoff
                    }
                    if !self.churn.is_up(a.station) {
                        // The station is down, absent or departed: nobody
                        // exists to buffer the message.
                        self.metrics.on_churn_blocked(a.time);
                        continue;
                    }
                    if self.single_buffer && self.busy.get(a.station.0 as usize) == Some(&true) {
                        self.metrics.on_blocked(a.time);
                        continue;
                    }
                    let msg = Message::new(MessageId(self.next_id), a.station, a.time);
                    self.next_id += 1;
                    self.metrics.on_offered(a.time);
                    self.mark_busy(a.station);
                    self.pending.insert((a.time, msg.id), msg);
                    obs.on_arrival(&msg, now);
                }
                _ => break,
            }
        }
    }

    /// One decision point plus the windowing round (or idle slot) it
    /// selects.
    fn cycle(&mut self, obs: &mut dyn EngineObserver) {
        let now = self.timeline.now();
        self.ingest(now, obs);

        // Membership recovery: stations that restarted since the last
        // decision point cold-start from this beacon. Backlog stranded in
        // examined time while they were down is recovered through the
        // orphan-reopen path if it is young enough to catch up, and
        // dropped as churn loss otherwise; backlog still in unexamined
        // time needs no help — the windowing process will reach it.
        if !self.rejoining.is_empty() {
            let catch_up = Dur::from_ticks(
                self.churn
                    .plan()
                    .catch_up_slots
                    .saturating_mul(self.medium.config().ticks_per_tau),
            );
            std::mem::swap(&mut self.rejoining, &mut self.rejoining_swap);
            let mut keys = std::mem::take(&mut self.sweep_keys);
            for i in 0..self.rejoining_swap.len() {
                let (station, restart_slot) = self.rejoining_swap[i];
                self.metrics
                    .on_rejoin(self.churn.slot().saturating_sub(restart_slot));
                keys.clear();
                keys.extend(
                    self.pending
                        .iter()
                        .filter(|(_, m)| m.station == station)
                        .map(|(&k, _)| k),
                );
                for &(arrival, id) in &keys {
                    if !self.timeline.is_examined(arrival) {
                        continue;
                    }
                    if arrival + catch_up >= now {
                        if !self.orphans.contains(&(arrival, id)) {
                            self.orphans.push((arrival, id));
                            self.metrics.on_churn_reopen();
                        }
                    } else {
                        let msg = self.unbook((arrival, id));
                        take_touched(&mut self.fault_touched, msg.id);
                        take_touched(&mut self.churn_touched, msg.id);
                        self.metrics.on_churn_drop(msg.arrival);
                        obs.on_message_drop(&msg, now, DropCause::RejoinExpired);
                    }
                }
            }
            self.rejoining_swap.clear();
            self.sweep_keys = keys;
        }

        // Fault recovery: reopen the arrival intervals of messages
        // stranded in examined time by a misread slot so the windowing
        // process can reach them again. Running the sweep before the
        // window choice preserves FCFS under Oldest-first policies: the
        // reopened (oldest) intervals are served before younger backlog.
        if !self.orphans.is_empty() {
            let tick = Dur::from_ticks(1);
            std::mem::swap(&mut self.orphans, &mut self.orphans_swap);
            for i in 0..self.orphans_swap.len() {
                let (arrival, id) = self.orphans_swap[i];
                if self.pending.contains_key(&(arrival, id)) {
                    let iv = Interval::new(arrival, arrival + tick);
                    self.timeline.reopen(iv);
                    self.metrics.on_reopen();
                    obs.on_reopen(iv);
                }
            }
            self.orphans_swap.clear();
        }

        self.discard_expired(now, obs);

        obs.on_beacon(now, &self.timeline, &self.rng_policy);

        let mut pm = std::mem::take(&mut self.pseudo);
        pm.rebuild(&self.timeline);
        let backlog = pm.backlog();
        let length = self.controller.next_length(now, backlog, &self.policy);
        let window = self
            .policy
            .choose_window_with_length(backlog, length, &mut self.rng_policy);
        match window {
            None => {
                obs.on_decision(now, None);
                // Nothing unexamined: the channel idles one probe slot
                // while fresh time accumulates.
                let report = self.medium.probe(&[]);
                match report.observed {
                    Feedback::Erased => {
                        self.metrics.on_erased_slot();
                        self.channel_stats.record_erased(report.dur);
                        obs.on_corrupted_slot(now, report.dur);
                    }
                    Feedback::Observed(outcome) => {
                        // A phantom collision outside a round carries no
                        // protocol state to repair; all stations observe
                        // it identically and ignore it.
                        if report.fault.is_some() {
                            self.metrics.on_corrupted_slot();
                        }
                        self.channel_stats.record(&outcome, report.dur);
                        obs.on_probe(now, &[], &outcome, report.dur);
                        self.controller.on_slot(SlotContext::IdleDecision, &outcome);
                    }
                }
                self.timeline.advance(now + report.dur);
                self.churn_step(obs);
            }
            Some(w) => {
                let mut bufs = std::mem::take(&mut self.scratch);
                pm.preimage_into(w, &mut bufs.segments);
                obs.on_decision(now, Some(&bufs.segments));
                self.windowing_round(w, &pm, obs, &mut bufs);
                self.scratch = bufs;
            }
        }
        self.pseudo = pm;
    }

    /// Fills `out` with the pending messages whose arrival time lies
    /// inside any of the window's segments, oldest first.
    ///
    /// One `BTreeMap::range` descent covers the whole window span; a
    /// cursor over the (sorted, disjoint) segments filters out messages
    /// stranded in the examined gaps between them. A probe slot thus
    /// costs a single O(log n) descent plus O(messages in span) — not
    /// one descent per segment with a fresh `Vec` per probe.
    fn in_segments_into(&self, segments: &[Interval], out: &mut Vec<Message>) {
        out.clear();
        let (Some(first), Some(last)) = (segments.first(), segments.last()) else {
            return;
        };
        let mut seg = 0usize;
        for (&(t, _), m) in self
            .pending
            .range((first.lo, MessageId(0))..(last.hi, MessageId(0)))
        {
            // `t < last.hi` (range bound), so the cursor never runs off
            // the end of the segment list.
            while t >= segments[seg].hi {
                seg += 1;
            }
            if t >= segments[seg].lo {
                out.push(*m);
            }
        }
    }

    /// Runs one windowing round starting from the pseudo window `initial`;
    /// ends on the first successful transmission or when the initial
    /// window proves empty. `pm` is the pseudo map frozen at the decision
    /// point; `bufs` is the engine's scratch (taken out of `self` by the
    /// caller to satisfy the borrow checker).
    fn windowing_round(
        &mut self,
        initial: PseudoInterval,
        pm: &PseudoMap,
        obs: &mut dyn EngineObserver,
        bufs: &mut RoundScratch,
    ) {
        let round_start = self.timeline.now();
        let mut overhead: u64 = 0;
        // The round's first clean probe examines the blindly chosen
        // initial window — the rate-information slot for controllers.
        let mut first_probe = true;
        // Lifecycle spans report the initial window's membership once per
        // round (not re-reported on erased-feedback re-probes).
        let mut members_reported = false;
        let mut current = initial;
        // `Some(s)` means: current ∪ s is known to contain >= 2 arrivals,
        // so if current is empty then s contains >= 2.
        let mut sibling: Option<PseudoInterval> = None;
        // Consecutive detectably-corrupted probes of the current window.
        let mut retries: u32 = 0;

        loop {
            let now = self.timeline.now();
            pm.preimage_into(current, &mut bufs.segments);
            self.in_segments_into(&bufs.segments, &mut bufs.txs);
            if !self.churn.plan().is_none() {
                // Down, absent or departed stations cannot transmit; their
                // stranded backlog stays pending for rejoin recovery or
                // the age discard.
                self.churn.retain_up(&mut bufs.txs);
            }
            if !members_reported {
                members_reported = true;
                for m in &bufs.txs {
                    obs.on_window_member(m, now);
                }
            }
            bufs.ids.clear();
            bufs.ids.extend(bufs.txs.iter().map(|m| m.id));
            let report = self.medium.probe(&bufs.ids);
            if report.fault.is_some() {
                for m in &bufs.txs {
                    self.fault_touched.insert(m.id);
                }
            }

            let outcome = match report.observed {
                Feedback::Erased => {
                    // Every station knows this slot's feedback was lost:
                    // back off and re-probe the same window.
                    self.metrics.on_erased_slot();
                    self.channel_stats.record_erased(report.dur);
                    obs.on_corrupted_slot(now, report.dur);
                    self.timeline.advance(now + report.dur);
                    self.churn_step(obs);
                    overhead += 1;
                    if self.backoff_or_abandon(&mut retries, obs) {
                        continue;
                    }
                    return;
                }
                Feedback::Observed(o) => o,
            };

            // A collision misread as idle is detectable: the transmitters
            // know they transmitted and flag the slot, so all stations
            // treat it as corrupted and retry instead of wrongly marking
            // the window empty.
            if matches!(outcome, SlotOutcome::Idle) && bufs.txs.len() >= 2 {
                self.metrics.on_corrupted_slot();
                self.channel_stats.record(&outcome, report.dur);
                obs.on_corrupted_slot(now, report.dur);
                self.timeline.advance(now + report.dur);
                self.churn_step(obs);
                overhead += 1;
                if self.backoff_or_abandon(&mut retries, obs) {
                    continue;
                }
                return;
            }

            if report.fault.is_some() {
                self.metrics.on_corrupted_slot();
            }
            retries = 0;
            self.channel_stats.record(&outcome, report.dur);
            obs.on_probe(now, &bufs.segments, &outcome, report.dur);
            if matches!(outcome, SlotOutcome::Collision(_)) {
                // A collision episode: every current transmitter stays
                // pending and re-contends as the window is split.
                for m in &bufs.txs {
                    obs.on_collision_member(m, now);
                }
            }
            let ctx = if first_probe {
                SlotContext::Initial {
                    width: initial.width(),
                }
            } else {
                SlotContext::Resolution
            };
            first_probe = false;
            self.controller.on_slot(ctx, &outcome);
            self.timeline.advance(now + report.dur);
            // A delivered success happened *during* this slot, so it
            // completes before the end-of-slot churn transitions: a
            // station leaving at this exact boundary has already
            // transmitted, and dropping its backlog first would strand
            // a message the channel carried.
            let delivered =
                matches!(outcome, SlotOutcome::Success(_)) && report.delivered().is_some();
            if delivered {
                debug_assert_eq!(bufs.txs.len(), 1);
                self.complete_transmission(bufs.txs[0], now, round_start, overhead, obs);
            }
            self.churn_step(obs);

            match outcome {
                SlotOutcome::Idle => {
                    overhead += 1;
                    for s in &bufs.segments {
                        self.timeline.mark_examined(*s);
                    }
                    match sibling.take() {
                        None => return, // empty initial window: round over
                        Some(sib) => {
                            // sib is known to hold >= 2 arrivals.
                            match self.policy.split_window(sib, &mut self.rng_policy) {
                                Some((first, second)) => {
                                    pm.preimage_into(sib, &mut bufs.sib_segments);
                                    obs.on_immediate_split(self.timeline.now(), &bufs.sib_segments);
                                    current = first;
                                    sibling = Some(second);
                                }
                                None => {
                                    // One tick wide: cannot split, probe it
                                    // (it will collide and enter sub-tick
                                    // resolution).
                                    current = sib;
                                    sibling = None;
                                }
                            }
                        }
                    }
                }
                SlotOutcome::Success(_) => {
                    for s in &bufs.segments {
                        self.timeline.mark_examined(*s);
                    }
                    if !delivered {
                        // Phantom success (collision misread): all
                        // stations believe the window resolved, nothing
                        // was delivered. The colliding messages are
                        // stranded in examined time; the next decision
                        // point reopens their arrival intervals.
                        for m in &bufs.txs {
                            self.orphans.push((m.arrival, m.id));
                        }
                    }
                    return;
                }
                SlotOutcome::Collision(_) => {
                    overhead += 1;
                    match self.policy.split_window(current, &mut self.rng_policy) {
                        Some((first, second)) => {
                            current = first;
                            sibling = Some(second);
                            // A previous sibling, if any, silently returns
                            // to the unexamined pool: nothing is known
                            // about it on its own.
                        }
                        None => {
                            // Sub-tick cluster: resolve by fair coins.
                            match self.resolve_cluster(bufs, &mut overhead, round_start, true, obs)
                            {
                                ClusterEnd::Delivered => {}
                                ClusterEnd::PhantomSuccess => {
                                    // Stations saw a success; the tick is
                                    // not marked examined, so the cluster
                                    // stays reachable at the next round.
                                }
                                ClusterEnd::Abandoned => {
                                    self.metrics.on_round_abandoned();
                                    obs.on_round_abandoned(self.timeline.now());
                                }
                            }
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Steps the membership process one probe slot (the unit every
    /// surviving station can count by listening) and applies any
    /// transitions:
    ///
    /// * **crash** — the station's pending backlog is tagged so later
    ///   losses are attributed to churn;
    /// * **restart** — the station is queued for catch-up at the next
    ///   decision point (it cold-starts from that beacon);
    /// * **leave** — the backlog is dropped immediately: no future
    ///   membership state could ever resolve it, and keeping it would
    ///   wedge `drain`;
    /// * **join** — nothing to do; the station simply starts buffering
    ///   arrivals.
    ///
    /// With [`ChurnPlan::none`] only the slot counter moves.
    fn churn_step(&mut self, obs: &mut dyn EngineObserver) {
        let mut events = std::mem::take(&mut self.churn_events);
        self.churn.step(&mut events);
        if !events.is_empty() {
            let now = self.timeline.now();
            for ev in events.drain(..) {
                obs.on_churn_event(now, &ev);
                match ev {
                    ChurnEvent::Crash(s) => {
                        // Disjoint field borrows: `pending` is read while
                        // `churn_touched` absorbs the ids.
                        self.churn_touched.extend(
                            self.pending
                                .values()
                                .filter(|m| m.station == s)
                                .map(|m| m.id),
                        );
                    }
                    ChurnEvent::Restart(s) => {
                        self.rejoining.push((s, self.churn.slot()));
                    }
                    ChurnEvent::Join(_) => {}
                    ChurnEvent::Leave(s) => {
                        let mut keys = std::mem::take(&mut self.sweep_keys);
                        keys.clear();
                        keys.extend(
                            self.pending
                                .iter()
                                .filter(|(_, m)| m.station == s)
                                .map(|(&k, _)| k),
                        );
                        for &key in &keys {
                            let msg = self.unbook(key);
                            take_touched(&mut self.fault_touched, msg.id);
                            take_touched(&mut self.churn_touched, msg.id);
                            self.metrics.on_churn_drop(msg.arrival);
                            obs.on_message_drop(&msg, now, DropCause::StationLeft);
                        }
                        self.sweep_keys = keys;
                    }
                }
            }
        }
        self.churn_events = events;
    }

    /// Holds a capped-exponential quiet backoff before re-probing a window
    /// whose feedback was detectably corrupted. Returns `true` to retry;
    /// `false` when the retry budget is exhausted and the round must be
    /// abandoned (the abandonment itself is recorded here).
    fn backoff_or_abandon(&mut self, retries: &mut u32, obs: &mut dyn EngineObserver) -> bool {
        *retries += 1;
        if *retries > self.resync.max_retries {
            self.metrics.on_round_abandoned();
            obs.on_round_abandoned(self.timeline.now());
            return false;
        }
        self.metrics.on_resync();
        let slots = 1u64
            .checked_shl(*retries - 1)
            .unwrap_or(u64::MAX)
            .min(self.resync.backoff_cap_slots);
        let dur = Dur::from_ticks(slots * self.medium.config().ticks_per_tau);
        let now = self.timeline.now();
        self.channel_stats.record_quiet(dur);
        obs.on_backoff(now, dur);
        self.timeline.advance(now + dur);
        true
    }

    /// Resolves a same-tick collision cluster with per-message fair coins
    /// until exactly one message transmits. The surviving probe (the
    /// success) is executed inside. Under fault injection the resolution
    /// can also end in a phantom success or be abandoned once too many
    /// fault-wasted slots accumulate.
    ///
    /// On entry `bufs.txs` holds the colliding cluster; the active set
    /// lives there throughout, with `bufs.older` as the partition buffer
    /// (swapped in on a collision) — no per-iteration allocation.
    /// `per_slot` reports each probe through `on_probe`; the batched
    /// kernel passes `false`, as it reports only span callbacks.
    fn resolve_cluster(
        &mut self,
        bufs: &mut RoundScratch,
        overhead: &mut u64,
        round_start: Time,
        per_slot: bool,
        obs: &mut dyn EngineObserver,
    ) -> ClusterEnd {
        // Slots wasted by injected faults during this resolution. Bounded
        // so a hostile fault plan cannot trap the engine here forever;
        // never incremented on clean slots, so fault-free behaviour is
        // untouched.
        let mut futile: u32 = 0;
        loop {
            if !self.churn.plan().is_none() {
                // Departed stations' messages can never resolve; drop
                // them from the cluster. If every surviving member's
                // station is down, nothing can transmit: abandon — the
                // tick stays unexamined, so the messages remain reachable
                // after rejoin (or age out).
                bufs.txs.retain(|m| self.churn.is_present(m.station));
                if !bufs.txs.is_empty() && !bufs.txs.iter().any(|m| self.churn.is_up(m.station)) {
                    return ClusterEnd::Abandoned;
                }
            }
            if bufs.txs.is_empty() || futile > 64 {
                return ClusterEnd::Abandoned;
            }
            // Split the active set as the continuous protocol would split
            // the (uniform) sub-tick arrival instants. One coin per
            // member, drawn in arrival order — the same draws, in the
            // same order, as the original `filter`-collect.
            bufs.older.clear();
            for i in 0..bufs.txs.len() {
                if self.rng_coins.chance(0.5) {
                    bufs.older.push(bufs.txs[i]);
                }
            }
            let now = self.timeline.now();
            // Only live stations actually transmit; a churn-free run has
            // every station up, so `ids` is exactly `older` there.
            bufs.ids.clear();
            bufs.ids.extend(
                bufs.older
                    .iter()
                    .filter(|m| self.churn.is_up(m.station))
                    .map(|m| m.id),
            );
            let live_in_older = bufs.ids.len();
            let report = self.medium.probe(&bufs.ids);
            if report.fault.is_some() {
                for m in &bufs.txs {
                    self.fault_touched.insert(m.id);
                }
            }
            let outcome = match report.observed {
                Feedback::Erased => {
                    self.metrics.on_erased_slot();
                    self.channel_stats.record_erased(report.dur);
                    obs.on_corrupted_slot(now, report.dur);
                    self.timeline.advance(now + report.dur);
                    self.churn_step(obs);
                    *overhead += 1;
                    futile += 1;
                    continue;
                }
                Feedback::Observed(o) => o,
            };
            // Collision misread as idle: flagged by the transmitters,
            // consumed and retried like an erasure.
            if matches!(outcome, SlotOutcome::Idle) && live_in_older >= 2 {
                self.metrics.on_corrupted_slot();
                self.channel_stats.record(&outcome, report.dur);
                obs.on_corrupted_slot(now, report.dur);
                self.timeline.advance(now + report.dur);
                self.churn_step(obs);
                *overhead += 1;
                futile += 1;
                continue;
            }
            if report.fault.is_some() {
                self.metrics.on_corrupted_slot();
                futile += 1;
            }
            self.channel_stats.record(&outcome, report.dur);
            if per_slot {
                obs.on_probe(now, &[], &outcome, report.dur);
            }
            if matches!(outcome, SlotOutcome::Collision(_)) {
                // Sub-tick collision episode among the live "older" half
                // (the actual transmitter set of this probe).
                for m in bufs.older.iter().filter(|m| self.churn.is_up(m.station)) {
                    obs.on_collision_member(m, now);
                }
            }
            self.controller.on_slot(SlotContext::Resolution, &outcome);
            self.timeline.advance(now + report.dur);
            // As in the round loop: a delivered success completes
            // before this slot's churn transitions can drop the
            // winner's pending entry.
            if matches!(outcome, SlotOutcome::Success(_)) {
                if let Some(id) = report.delivered() {
                    let winner = bufs
                        .older
                        .iter()
                        .copied()
                        .find(|m| m.id == id)
                        .expect("delivered message came from the probed set");
                    // The transmission started with this probe slot.
                    self.complete_transmission(winner, now, round_start, *overhead, obs);
                    self.churn_step(obs);
                    return ClusterEnd::Delivered;
                }
            }
            self.churn_step(obs);
            match outcome {
                SlotOutcome::Idle => {
                    // The entire cluster is in the "younger" part, which is
                    // known to hold >= 2: split again immediately.
                    *overhead += 1;
                }
                SlotOutcome::Success(_) => {
                    // Phantom success: every station believes the cluster
                    // resolved; nothing was delivered and the tick stays
                    // unexamined, so the messages remain reachable.
                    return ClusterEnd::PhantomSuccess;
                }
                SlotOutcome::Collision(_) => {
                    *overhead += 1;
                    std::mem::swap(&mut bufs.txs, &mut bufs.older);
                }
            }
        }
    }

    /// Policy element (4): discards every pending message older than the
    /// deadline `K` and marks its arrival interval examined.
    fn discard_expired(&mut self, now: Time, obs: &mut dyn EngineObserver) {
        let Some(k) = self.policy.discard_after else {
            return;
        };
        let cutoff = now.saturating_sub(k);
        while let Some((&key, _)) = self.pending.first_key_value() {
            if key.0 >= cutoff {
                break;
            }
            let msg = self.unbook(key);
            let counted = self.metrics.config().counts(msg.arrival);
            if take_touched(&mut self.fault_touched, msg.id) && counted {
                self.metrics.on_fault_loss();
            }
            if take_touched(&mut self.churn_touched, msg.id) && counted {
                self.metrics.on_churn_loss();
            }
            self.metrics.on_sender_discard(msg.arrival);
            obs.on_sender_discard(&msg, now);
        }
        self.timeline.discard_before(cutoff);
    }

    /// Sets `station`'s busy flag, growing the flag vector on first use.
    fn mark_busy(&mut self, station: StationId) {
        let i = station.0 as usize;
        if i >= self.busy.len() {
            self.busy.resize(i + 1, false);
        }
        self.busy[i] = true;
    }

    /// Removes a resolved message from the pending book and clears its
    /// station's busy flag.
    fn unbook(&mut self, key: (Time, MessageId)) -> Message {
        let msg = self
            .pending
            .remove(&key)
            .expect("resolved message was pending");
        if let Some(busy) = self.busy.get_mut(msg.station.0 as usize) {
            *busy = false;
        }
        msg
    }

    /// Bookkeeping for a completed transmission.
    fn complete_transmission(
        &mut self,
        msg: Message,
        tx_start: Time,
        round_start: Time,
        overhead: u64,
        obs: &mut dyn EngineObserver,
    ) {
        self.unbook((msg.arrival, msg.id));
        let paper_delay = round_start - msg.arrival;
        let true_delay = tx_start - msg.arrival;
        let sched_start = self.last_tx_end.max(msg.arrival);
        let sched_time = tx_start - sched_start.min(tx_start);
        self.last_tx_end = self.timeline.now();
        // A delivery past the deadline (receiver loss) by a message whose
        // trajectory a fault or a crash disturbed is attributed to the
        // disturbance.
        let counted_late = self.metrics.config().counts(msg.arrival)
            && true_delay > self.metrics.config().deadline;
        if take_touched(&mut self.fault_touched, msg.id) && counted_late {
            self.metrics.on_fault_loss();
        }
        if take_touched(&mut self.churn_touched, msg.id) && counted_late {
            self.metrics.on_churn_loss();
        }
        self.metrics
            .on_transmit(msg.arrival, paper_delay, true_delay);
        self.metrics.on_round(overhead);
        self.metrics.on_sched_time(sched_time);
        // Age process: the delivery instant is the end of the slot
        // (`timeline.now()` — already advanced), identical on the
        // slot-stepped and batched paths.
        self.metrics
            .on_delivery(msg.station, msg.arrival, self.timeline.now());
        obs.on_transmit(&msg, tx_start, paper_delay, true_delay);
    }
}

/// Removes `id` from a loss-attribution set, returning whether it was
/// there. Both sets stay empty on fault- and crash-free runs, where this
/// skips hashing the id.
fn take_touched(set: &mut HashSet<MessageId>, id: MessageId) -> bool {
    !set.is_empty() && set.remove(&id)
}

/// Convenience: builds an engine fed by aggregate Poisson arrivals with
/// normalized offered load `rho_prime = lambda * M * tau` spread over
/// `stations` stations (the paper's Figure 7 workload).
pub fn poisson_engine(
    channel: ChannelConfig,
    policy: ControlPolicy,
    measure: MeasureConfig,
    rho_prime: f64,
    stations: u32,
    seed: u64,
) -> Engine<tcw_mac::PoissonArrivals> {
    let rate_per_tau = rho_prime / channel.message_slots as f64;
    let source = tcw_mac::PoissonArrivals::per_tau(rate_per_tau, channel.ticks_per_tau, stations);
    Engine::new(
        EngineConfig {
            channel,
            policy,
            measure,
            seed,
        },
        source,
    )
}

/// A deterministic single-message smoke check used in doctests.
///
/// ```
/// use tcw_window::engine::{Engine, EngineConfig};
/// use tcw_window::metrics::MeasureConfig;
/// use tcw_window::policy::ControlPolicy;
/// use tcw_window::trace::NoopObserver;
/// use tcw_mac::{ChannelConfig, TraceArrivals};
/// use tcw_sim::time::{Dur, Time};
///
/// let channel = ChannelConfig { ticks_per_tau: 4, message_slots: 5, guard: false };
/// let cfg = EngineConfig {
///     channel,
///     policy: ControlPolicy::fcfs(Dur::from_ticks(16)),
///     measure: MeasureConfig {
///         start: Time::ZERO,
///         end: Time::from_ticks(1_000),
///         deadline: Dur::from_ticks(400),
///     },
///     seed: 1,
/// };
/// let mut eng = Engine::new(cfg, TraceArrivals::from_ticks(&[(3, 0)]));
/// eng.run_until(Time::from_ticks(100), &mut NoopObserver);
/// eng.drain(&mut NoopObserver);
/// assert_eq!(eng.metrics.offered(), 1);
/// assert_eq!(eng.metrics.loss_fraction(), 0.0);
/// ```
pub fn _doctest_anchor() {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{NoopObserver, TraceRecorder};
    use tcw_mac::TraceArrivals;

    fn channel() -> ChannelConfig {
        ChannelConfig {
            ticks_per_tau: 4,
            message_slots: 5,
            guard: false,
        }
    }

    fn measure(deadline_ticks: u64) -> MeasureConfig {
        MeasureConfig {
            start: Time::ZERO,
            end: Time::from_ticks(u64::MAX / 2),
            deadline: Dur::from_ticks(deadline_ticks),
        }
    }

    fn fcfs_engine(arrivals: &[(u64, u32)], window_ticks: u64) -> Engine<TraceArrivals> {
        Engine::new(
            EngineConfig {
                channel: channel(),
                policy: ControlPolicy::fcfs(Dur::from_ticks(window_ticks)),
                measure: measure(1_000_000),
                seed: 7,
            },
            TraceArrivals::from_ticks(arrivals),
        )
    }

    #[test]
    fn single_message_is_delivered() {
        let mut eng = fcfs_engine(&[(2, 0)], 16);
        eng.run_until(Time::from_ticks(200), &mut NoopObserver);
        eng.drain(&mut NoopObserver);
        assert_eq!(eng.metrics.offered(), 1);
        assert_eq!(eng.metrics.loss_fraction(), 0.0);
        assert_eq!(eng.pending_count(), 0);
    }

    #[test]
    fn two_messages_fcfs_order() {
        let mut rec = TraceRecorder::new(1000);
        let mut eng = fcfs_engine(&[(2, 0), (40, 1)], 64);
        eng.run_until(Time::from_ticks(400), &mut rec);
        eng.drain(&mut rec);
        assert_eq!(eng.metrics.offered(), 2);
        assert_eq!(eng.metrics.loss_fraction(), 0.0);
        let text = rec.text();
        let pos0 = text.find("m0 from S0 delivered").expect("m0 delivered");
        let pos1 = text.find("m1 from S1 delivered").expect("m1 delivered");
        assert!(pos0 < pos1, "FCFS order violated:\n{text}");
    }

    #[test]
    fn collision_resolves_by_splitting() {
        // m0 occupies the channel while m1 and m2 arrive; the decision
        // after the transmission sees both in one window => collision.
        let mut rec = TraceRecorder::new(1000);
        let mut eng = fcfs_engine(&[(1, 0), (5, 1), (15, 2)], 16);
        eng.run_until(Time::from_ticks(300), &mut rec);
        eng.drain(&mut rec);
        assert_eq!(eng.metrics.loss_fraction(), 0.0);
        assert!(rec.text().contains("collision among 2"), "{}", rec.text());
        assert_eq!(eng.channel_stats.successes, 3);
        assert!(eng.channel_stats.collision_slots >= 1);
    }

    #[test]
    fn same_tick_collision_resolved_by_coins() {
        let mut eng = fcfs_engine(&[(5, 0), (5, 1), (5, 2)], 16);
        eng.run_until(Time::from_ticks(500), &mut NoopObserver);
        eng.drain(&mut NoopObserver);
        assert_eq!(eng.metrics.offered(), 3);
        assert_eq!(eng.metrics.loss_fraction(), 0.0);
        assert_eq!(eng.channel_stats.successes, 3);
    }

    #[test]
    fn discard_policy_drops_old_messages() {
        let k = 40; // ticks = 10 tau
        let mut eng = Engine::new(
            EngineConfig {
                channel: channel(),
                policy: ControlPolicy::controlled(Dur::from_ticks(k), Dur::from_ticks(16)),
                measure: measure(k),
                seed: 3,
            },
            TraceArrivals::from_ticks(&[(1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5)]),
        );
        eng.run_until(Time::from_ticks(2_000), &mut NoopObserver);
        eng.drain(&mut NoopObserver);
        assert_eq!(eng.metrics.offered(), 6);
        assert!(eng.metrics.sender_lost() > 0, "no sender discards");
        assert!(eng.metrics.loss_fraction() < 1.0);
    }

    #[test]
    fn controlled_timeline_stays_contiguous() {
        // Theorem 1 corollary (Lemma 2): under the controlled policy the
        // unexamined region never fragments.
        let arrivals: Vec<(u64, u32)> = (0..100).map(|i| (i * 13 + 1, (i % 7) as u32)).collect();
        let mut eng = Engine::new(
            EngineConfig {
                channel: channel(),
                policy: ControlPolicy::controlled(Dur::from_ticks(200), Dur::from_ticks(16)),
                measure: measure(200),
                seed: 5,
            },
            TraceArrivals::from_ticks(&arrivals),
        );
        for _ in 0..2_000 {
            eng.step(&mut NoopObserver);
            assert!(
                eng.timeline().is_contiguous(),
                "unexamined region fragmented at t={}",
                eng.now()
            );
        }
    }

    #[test]
    fn lcfs_delivers_newest_first_under_backlog() {
        let mut rec = TraceRecorder::new(10_000);
        let mut eng = Engine::new(
            EngineConfig {
                channel: channel(),
                policy: ControlPolicy::lcfs(Dur::from_ticks(8)),
                measure: measure(1_000_000),
                seed: 9,
            },
            TraceArrivals::from_ticks(&[(1, 0), (3, 1), (5, 2)]),
        );
        eng.run_until(Time::from_ticks(600), &mut rec);
        eng.drain(&mut rec);
        assert_eq!(eng.metrics.loss_fraction(), 0.0);
        let text = rec.text();
        let p0 = text.find("m0 from").unwrap();
        let p2 = text.find("m2 from").unwrap();
        assert!(p2 < p0, "LCFS should deliver m2 before m0:\n{text}");
    }

    #[test]
    fn lcfs_drain_reaches_starved_messages() {
        // After arrivals stop, LCFS windows work backwards through the
        // backlog (in pseudo time) and old messages are eventually served
        // rather than starving behind fresh empty time.
        let mut eng = Engine::new(
            EngineConfig {
                channel: channel(),
                policy: ControlPolicy::lcfs(Dur::from_ticks(8)),
                measure: measure(1_000_000),
                seed: 10,
            },
            TraceArrivals::from_ticks(&[(1, 0), (100, 1), (200, 2)]),
        );
        eng.run_until(Time::from_ticks(260), &mut NoopObserver);
        eng.drain(&mut NoopObserver);
        assert_eq!(eng.metrics.offered(), 3);
        assert_eq!(eng.metrics.loss_fraction(), 0.0);
        assert_eq!(eng.pending_count(), 0);
    }

    #[test]
    fn drain_resolves_everything() {
        // Heavily overloaded burst; drain cuts off new arrivals at the
        // current clock and must resolve every admitted message.
        let arrivals: Vec<(u64, u32)> = (0..50).map(|i| (i * 3 + 1, 0)).collect();
        let mut eng = fcfs_engine(&arrivals, 32);
        eng.run_until(Time::from_ticks(50), &mut NoopObserver);
        eng.drain(&mut NoopObserver);
        assert_eq!(eng.pending_count(), 0);
        assert_eq!(eng.metrics.outstanding(), 0);
        // Arrivals after the drain cutoff were dropped unadmitted; those
        // before it are all accounted for.
        assert!(
            eng.metrics.offered() >= 15,
            "offered = {}",
            eng.metrics.offered()
        );
        assert_eq!(eng.metrics.loss_fraction(), 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut eng = poisson_engine(
                channel(),
                ControlPolicy::controlled(Dur::from_ticks(100), Dur::from_ticks(12)),
                measure(100),
                0.5,
                20,
                seed,
            );
            eng.run_until(Time::from_ticks(200_000), &mut NoopObserver);
            eng.drain(&mut NoopObserver);
            (
                eng.metrics.offered(),
                eng.metrics.loss_fraction(),
                eng.channel_stats.successes,
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn paper_delay_never_exceeds_true_delay() {
        let mut eng = poisson_engine(
            channel(),
            ControlPolicy::fcfs(Dur::from_ticks(16)),
            measure(1_000_000),
            0.4,
            10,
            21,
        );
        eng.run_until(Time::from_ticks(100_000), &mut NoopObserver);
        eng.drain(&mut NoopObserver);
        assert!(eng.metrics.paper_delay().mean() <= eng.metrics.true_delay().mean());
        assert!(eng.metrics.offered() > 50);
    }

    #[test]
    fn controlled_paper_delay_bounded_by_k() {
        // Element (4) guarantees no message is *scheduled* with waiting
        // time (paper definition) beyond K — up to one decision cycle of
        // ageing slack, since discards happen at decision points.
        let k = 200u64;
        let mut eng = poisson_engine(
            channel(),
            ControlPolicy::controlled(Dur::from_ticks(k), Dur::from_ticks(12)),
            measure(k),
            0.7,
            20,
            13,
        );
        eng.run_until(Time::from_ticks(300_000), &mut NoopObserver);
        eng.drain(&mut NoopObserver);
        let max_paper = eng.metrics.paper_delay().max();
        let slack = (channel().message_slots + 1) * channel().ticks_per_tau;
        assert!(
            max_paper <= (k + slack) as f64,
            "paper delay {max_paper} exceeds K + slack {}",
            k + slack
        );
    }

    #[test]
    fn channel_conservation_of_time() {
        let mut eng = poisson_engine(
            channel(),
            ControlPolicy::fcfs(Dur::from_ticks(16)),
            measure(1_000_000),
            0.5,
            10,
            17,
        );
        eng.run_until(Time::from_ticks(50_000), &mut NoopObserver);
        // Every tick of simulated time is accounted to exactly one slot
        // category.
        assert_eq!(eng.channel_stats.total().ticks(), eng.now().ticks());
    }

    #[test]
    fn single_buffer_blocks_at_busy_stations() {
        // Two stations, heavy load: many arrivals land on busy stations.
        let mut eng = poisson_engine(
            channel(),
            ControlPolicy::fcfs(Dur::from_ticks(16)),
            measure(1_000_000),
            0.75,
            2,
            31,
        );
        eng.set_single_buffer_stations(true);
        eng.run_until(Time::from_ticks(200_000), &mut NoopObserver);
        eng.drain(&mut NoopObserver);
        assert!(eng.metrics.blocked() > 0, "no arrivals were blocked");
        // Blocked + resolved = everything counted.
        assert_eq!(eng.metrics.outstanding(), 0);
        // With many stations at the same load, blocking fades.
        let mut wide = poisson_engine(
            channel(),
            ControlPolicy::fcfs(Dur::from_ticks(16)),
            measure(1_000_000),
            0.75,
            500,
            31,
        );
        wide.set_single_buffer_stations(true);
        wide.run_until(Time::from_ticks(200_000), &mut NoopObserver);
        wide.drain(&mut NoopObserver);
        let narrow_frac = eng.metrics.blocked() as f64 / eng.metrics.offered() as f64;
        let wide_frac = wide.metrics.blocked() as f64 / wide.metrics.offered().max(1) as f64;
        assert!(
            wide_frac < narrow_frac / 4.0,
            "blocking should vanish with population: {narrow_frac:.4} vs {wide_frac:.4}"
        );
    }

    #[test]
    fn single_buffer_off_never_blocks() {
        let mut eng = poisson_engine(
            channel(),
            ControlPolicy::fcfs(Dur::from_ticks(16)),
            measure(1_000_000),
            0.75,
            2,
            31,
        );
        eng.run_until(Time::from_ticks(200_000), &mut NoopObserver);
        eng.drain(&mut NoopObserver);
        assert_eq!(eng.metrics.blocked(), 0);
    }

    #[test]
    fn restore_rejects_busy_station_without_pending_message() {
        let mut eng = fcfs_engine(&[(2, 0)], 16);
        eng.run_until(Time::from_ticks(8), &mut NoopObserver);
        let words = eng.snapshot().expect("trace source checkpoints");
        assert!(fcfs_engine(&[(2, 0)], 16).restore(&words).is_ok());
        eng.mark_busy(StationId(3));
        let words = eng.snapshot().expect("trace source checkpoints");
        assert!(fcfs_engine(&[(2, 0)], 16).restore(&words).is_err());
    }

    #[test]
    fn adaptive_controllers_are_deterministic_and_complete() {
        use crate::controller::{AimdConfig, ControllerConfig, EstimatorConfig};
        for cfg in [
            ControllerConfig::Aimd(AimdConfig::around(12)),
            ControllerConfig::Estimator(EstimatorConfig::around(12)),
        ] {
            let run = |cfg: &ControllerConfig| {
                let mut eng = poisson_engine(
                    channel(),
                    ControlPolicy::controlled(Dur::from_ticks(300), Dur::from_ticks(12)),
                    measure(300),
                    0.6,
                    20,
                    47,
                );
                eng.set_controller(cfg.build());
                eng.run_until(Time::from_ticks(100_000), &mut NoopObserver);
                eng.drain(&mut NoopObserver);
                (
                    eng.metrics.offered(),
                    eng.metrics.loss_fraction().to_bits(),
                    eng.controller().window_ticks(),
                    eng.controller().shrinks(),
                    eng.controller().grows(),
                )
            };
            let a = run(&cfg);
            let b = run(&cfg);
            assert_eq!(a, b, "{} not deterministic", cfg.label());
            assert!(a.0 > 100, "{}: too few messages", cfg.label());
            assert!(
                a.3 + a.4 > 0,
                "{}: controller never adapted under load",
                cfg.label()
            );
        }
    }

    #[test]
    fn static_controller_explicitly_installed_is_bit_identical() {
        use crate::controller::ControllerConfig;
        let run = |install: bool| {
            let mut eng = poisson_engine(
                channel(),
                ControlPolicy::controlled(Dur::from_ticks(300), Dur::from_ticks(12)),
                measure(300),
                0.6,
                20,
                11,
            );
            if install {
                eng.set_controller(ControllerConfig::Static.build());
            }
            let mut rec = TraceRecorder::new(100_000);
            eng.run_until(Time::from_ticks(80_000), &mut rec);
            eng.drain(&mut rec);
            (
                eng.metrics.offered(),
                eng.metrics.loss_fraction().to_bits(),
                rec.text(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn aimd_state_is_reproducible_from_observed_feedback() {
        // The distributed-realizability argument for adaptive control:
        // every slot the controller consumed was reported to observers,
        // so replaying the observed outcome sequence through a fresh
        // controller must land in the identical state. (AIMD is
        // context-free, so the clean `on_probe` stream is exactly its
        // input; the estimator additionally needs the initial-probe
        // widths, which are the decision windows all stations computed.)
        use crate::controller::{AimdConfig, AimdController, SlotContext, WindowController};

        #[derive(Default)]
        struct OutcomeLog(Vec<SlotOutcome>);
        impl EngineObserver for OutcomeLog {
            // Replay needs every probe, so opt out of the fast path.
            fn slow_path(&self) -> bool {
                true
            }
            fn on_probe(
                &mut self,
                _start: Time,
                _segments: &[Interval],
                outcome: &SlotOutcome,
                _dur: Dur,
            ) {
                self.0.push(*outcome);
            }
        }

        let cfg = AimdConfig::around(12);
        let mut eng = poisson_engine(
            channel(),
            ControlPolicy::controlled(Dur::from_ticks(300), Dur::from_ticks(12)),
            measure(300),
            0.6,
            20,
            23,
        );
        eng.set_controller(Box::new(AimdController::new(cfg)));
        let mut log = OutcomeLog::default();
        eng.run_until(Time::from_ticks(60_000), &mut log);

        let mut shadow = AimdController::new(cfg);
        for o in &log.0 {
            shadow.on_slot(SlotContext::Resolution, o);
        }
        assert_eq!(shadow.window_ticks(), eng.controller().window_ticks());
        assert_eq!(shadow.shrinks(), eng.controller().shrinks());
        assert_eq!(shadow.grows(), eng.controller().grows());
        assert!(!log.0.is_empty());
    }

    #[test]
    fn random_policy_completes() {
        let mut eng = poisson_engine(
            channel(),
            ControlPolicy::random(Dur::from_ticks(16)),
            measure(1_000_000),
            0.5,
            10,
            23,
        );
        eng.run_until(Time::from_ticks(100_000), &mut NoopObserver);
        eng.drain(&mut NoopObserver);
        assert_eq!(eng.metrics.outstanding(), 0);
        assert!(eng.metrics.offered() > 100);
        assert_eq!(eng.metrics.loss_fraction(), 0.0); // no deadline in play
    }
}
