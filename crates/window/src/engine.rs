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
//! coincide). When the unexamined region has several gaps, a frozen
//! [`PseudoMap`] snapshot taken at the decision point materializes window
//! segments during the round; with one trailing gap a pseudo window is
//! that gap's start shifted by the window's pseudo bounds.
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
//! crash and restart, join late, or leave permanently ([`ChurnProcess`],
//! clocked in probe slots). A station draws its next crash slot from a
//! dedicated RNG fork when it comes up, so the process costs nothing
//! between transitions.
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
use crate::policy::{ControlPolicy, WindowPosition};
use crate::pseudo::{PseudoInterval, PseudoMap};
use crate::timeline::Timeline;
use crate::trace::{DropCause, EngineObserver};
use std::collections::{HashSet, VecDeque};
use tcw_mac::{
    Arrival, ArrivalSource, ChannelConfig, ChannelStats, ChurnEvent, ChurnPlan, ChurnProcess,
    FaultPlan, FaultyMedium, Feedback, Medium, Message, MessageId, ProbeReport, SlotOutcome,
    StationId,
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

/// Bounded retry behaviour after a detectably corrupted slot. Every
/// engine runs the [`Default`] budget; the invariant monitor takes the
/// same value to check it.
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
    /// Actual-time segments of the current window, written only for a
    /// per-slot decision point or from the pseudo map.
    segments: Vec<Interval>,
    /// Segments of a sibling window (observer callback only).
    sib_segments: Vec<Interval>,
    /// The initial window's pending messages, oldest first, copied once
    /// per round at the decision point from the stretch of the book the
    /// window's hull bounds (see [`Engine::decide`]).
    members: Vec<Message>,
    /// A probe's transmitters when they are not a plain slice of
    /// `members`; the active set during sub-tick cluster resolution.
    txs: Vec<Message>,
    /// Ids of the live transmitters handed to the medium.
    ids: Vec<MessageId>,
    /// "Older" half of a sub-tick cluster partition.
    older: Vec<Message>,
}

impl RoundScratch {
    /// Empty buffers, `segments` with the room its first push would
    /// give it. Batched rounds never write `segments`, so without this a
    /// run batched through its warm-up would allocate it mid-run.
    fn new() -> Self {
        RoundScratch {
            segments: Vec::with_capacity(4),
            ..Default::default()
        }
    }
}

/// What a decision point chose (see [`Engine::decide`]).
enum Decision {
    /// No unexamined time: the channel idles one probe slot.
    Idle,
    /// A windowing round from this initial window. The scratch holds its
    /// segments and members; the instant is the start of the unexamined
    /// region when that region is one trailing gap.
    Round(PseudoInterval, Option<Time>),
}

/// How a round's pseudo windows map to actual time: shifted by the start
/// of a single trailing gap (no pseudo map built), or through the pseudo
/// map frozen at the decision point.
#[derive(Clone, Copy)]
enum Axis<'a> {
    Shifted(Time),
    Mapped(&'a PseudoMap),
}

impl<'a> Axis<'a> {
    fn new(base: Option<Time>, pm: &'a PseudoMap) -> Self {
        base.map_or(Axis::Mapped(pm), Axis::Shifted)
    }

    /// Writes the actual-time segments of `p` into `out`, oldest first.
    fn segments_into(self, p: PseudoInterval, out: &mut Vec<Interval>) {
        match self {
            Axis::Shifted(base) => {
                out.clear();
                out.push(shifted(base, p));
            }
            Axis::Mapped(pm) => pm.preimage_into(p, out),
        }
    }
}

/// The actual-time span of the pseudo window `p` when the unexamined
/// region is one trailing gap starting at `base`.
fn shifted(base: Time, p: PseudoInterval) -> Interval {
    Interval::new(base + Dur::from_ticks(p.lo), base + Dur::from_ticks(p.hi))
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

/// Initial capacity of the pending book. The deque keeps its capacity
/// as it drains, so it allocates again only when the book outgrows its
/// high-water mark; sixteen messages (384 bytes) keep that growth out of
/// the steady state below heavy load.
const BOOK_CAPACITY: usize = 16;

/// First word of every engine snapshot ("tcw_snap" in ASCII).
const SNAP_MAGIC: u64 = 0x7463_775f_736e_6170;
/// Snapshot layout version; bumped whenever the word stream changes so
/// stale snapshots are rejected instead of misdecoded.
const SNAP_FORMAT: u64 = 5;

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
    /// Probe slots the batched kernel resolved outside `cycle`:
    /// one per empty or singleton round, and every probe of a collision
    /// round, sub-tick coin slots and erased re-probes included. With
    /// `slots_skipped` this is the fast path's share of all probe slots.
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
    /// Pending (arrived, untransmitted, undiscarded) messages, strictly
    /// increasing in `(arrival, id)`. FCFS service and the element (4)
    /// discard touch it at its two ends, so a sorted deque serves as the
    /// book: admission pushes at the back, FCFS deliveries and the discard
    /// sweep pop at the front, and other lookups are binary searches (see
    /// [`Engine::book`] and [`Engine::unbook`]).
    pending: VecDeque<Message>,
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
            pending: VecDeque::with_capacity(BOOK_CAPACITY),
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
            orphans: Vec::new(),
            fault_touched: HashSet::new(),
            churn: ChurnProcess::disabled(rng_churn),
            churn_events: Vec::new(),
            churn_touched: HashSet::new(),
            rejoining: Vec::new(),
            controller: Box::new(StaticController::new()),
            scratch: RoundScratch::new(),
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
    /// Disabling forces every decision cycle through `cycle`, one round at
    /// a time with every per-slot callback. The idle jump and the batched
    /// rounds run the same decision step and round resolver, so both
    /// settings are bit-identical in every protocol metric, RNG stream and
    /// controller state (pinned by the A-B property test); this knob only
    /// trades speed for per-event observability.
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
        for m in &self.pending {
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
            // The book's binary searches need its order; a snapshot that
            // breaks it is corrupt, not merely unsorted.
            if self
                .pending
                .back()
                .is_some_and(|b| (b.arrival, b.id) >= (arrival, id))
            {
                return Err(SnapError::new(
                    "pending book not strictly increasing in (arrival, id)",
                ));
            }
            self.pending.push_back(Message {
                id,
                station,
                arrival,
            });
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
            if !self.pending.iter().any(|m| m.station == s) {
                return Err(SnapError::new("busy station holds no pending message"));
            }
            self.mark_busy(s);
        }
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
        self.scratch = RoundScratch::new();
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
    /// rounds are executed by `Engine::fast_forward` — bit-identical in
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
        self.close_admission(obs);
        while !self.is_drained() {
            self.cycle(obs);
        }
    }

    /// The first half of [`Engine::drain`]: arrivals after the current
    /// instant are no longer admitted, and those up to it are admitted
    /// now.
    pub fn close_admission(&mut self, obs: &mut dyn EngineObserver) {
        self.arrival_cutoff = self.timeline.now();
        self.ingest(self.timeline.now(), obs);
    }

    /// Whether every admitted message is resolved. After
    /// [`Engine::close_admission`] the source has delivered every arrival
    /// up to the cutoff and later ones are dropped, so this is the
    /// condition that ends [`Engine::drain`].
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }

    /// Runs one decision cycle: a decision point and the windowing round
    /// or idle slot it selects, with every per-slot callback. The class
    /// scheduler ([`crate::multiclass`]) drives its class engines this
    /// way.
    pub fn step(&mut self, obs: &mut dyn EngineObserver) {
        self.cycle(obs);
    }

    /// Advances the clock to `to` without probing, while the channel
    /// carries another protocol's slots (another class of
    /// [`crate::multiclass`]). The stretch joins the unexamined region,
    /// as any elapsed time does, and is not this engine's channel time:
    /// `channel_stats`, the churn process, the fault stream and the
    /// controller do not step.
    pub fn yield_until(&mut self, to: Time) {
        self.timeline.advance(to);
    }

    /// The event-horizon fast path. Tries to execute a stretch of
    /// analytically known decision cycles in one pass and returns whether
    /// any progress was made; on `false` the caller must run one generic
    /// [`Engine::cycle`]. Two kernels:
    ///
    /// * **idle-run jump** — pending book empty: every cycle until the
    ///   next arrival (bounded by the horizon, the next membership
    ///   transition and, under feedback faults, the first faulted probe)
    ///   probes the whole one-`tau` trailing gap idle, so the clock,
    ///   examined prefix, idle counters and controller feedback are all
    ///   advanced in O(1) + the controller's own feedback cost + one fault
    ///   draw per slot under faults;
    /// * **batched resolution** — pending book nonempty, single trailing
    ///   gap, Oldest position: whole windowing rounds run through `cycle`'s
    ///   own decision step and round ([`Engine::round`]) with per-slot
    ///   callbacks off — collisions, feedback faults, mid-round churn and
    ///   `Random` splits included.
    ///
    /// Both kernels require no pending recovery work (orphans/rejoining)
    /// on entry and a non-RANDOM window position. No RNG stream is
    /// touched differently, so the runs are bit-identical (pinned by the
    /// A-B property tests). The per-slot callbacks (`on_beacon`,
    /// `on_decision`, `on_probe`, `on_immediate_split`) inside the stretch
    /// are suppressed; observers that need them force the slow path
    /// through [`EngineObserver::slow_path`].
    fn fast_forward(&mut self, limit: Time, obs: &mut dyn EngineObserver) -> bool {
        if !self.orphans.is_empty()
            || !self.rejoining.is_empty()
            || matches!(self.policy.position, WindowPosition::Random)
        {
            return false;
        }
        // `ingest` is idempotent at fixed `now`: bailing to `cycle()`
        // afterwards re-runs it as a no-op.
        self.ingest(self.timeline.now(), obs);
        if self.pending.is_empty() {
            self.idle_jump(limit, self.medium.config().tau(), obs)
        } else {
            self.batched_rounds(limit, obs)
        }
    }

    /// Idle-run jump: with nothing pending and the timeline in its
    /// steady idle shape (examined prefix + one trailing gap exactly one
    /// `tau` wide), every cycle up to the next external event is an
    /// idle probe of the whole gap. `n` such cycles leave the system in a
    /// closed-form state: clock `+n*tau`, examined prefix extended by
    /// `(n-1)*tau` (the final gap stays unexamined), `n` idle slots of
    /// channel time, `n` churn slots, and `n` identical `Initial`/`Idle`
    /// feedback events — which [`WindowController::on_idle_run`] applies
    /// (or replays) exactly, in one call.
    ///
    /// Under feedback faults each probe draws: the jump ends before the
    /// first probe that would be faulted, and takes the fault draws of
    /// the slots the controller consumed
    /// ([`FaultyMedium::clean_idle_run`]). A membership transition due
    /// within the jump becomes its last slot, stepped through
    /// [`Engine::churn_step`] with the clock at that slot's end, as the
    /// slot-stepped round steps it. With an empty book only a restart
    /// leaves work behind (`rejoining`), which the next `cycle` handles
    /// as on the slow path.
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
        let due = self
            .churn
            .next_scheduled_transition()
            .map(|s| s - self.churn.slot());
        if let Some(d) = due {
            n = n.min(d);
        }
        let (controller, policy) = (&mut self.controller, &self.policy);
        let consumed = self.medium.clean_idle_run(n, |clean| {
            controller.on_idle_run(now, tau_ticks, clean, policy)
        });
        if consumed == 0 {
            return false;
        }
        let to = now + Dur::from_ticks(consumed * tau_ticks);
        self.timeline.advance(to);
        if due == Some(consumed) {
            self.churn.skip_slots(consumed - 1);
            self.churn_step(obs);
        } else {
            self.churn.skip_slots(consumed);
        }
        self.timeline.mark_examined(Interval::new(
            gap.lo,
            now + Dur::from_ticks((consumed - 1) * tau_ticks),
        ));
        self.channel_stats.idle += Dur::from_ticks(consumed * tau_ticks);
        self.channel_stats.idle_slots += consumed;
        self.horizon_stats.jumps += 1;
        self.horizon_stats.slots_skipped += consumed;
        obs.on_idle_jump(now, to, consumed);
        true
    }

    /// Batched resolution kernel: under the Oldest (FCFS) position with a
    /// single trailing gap, whole windowing rounds run back to back
    /// through [`Engine::decide`] and [`Engine::round`] with per-slot
    /// callbacks off, each reading the window's members off the front of
    /// the book, with no pseudo-map rebuild.
    ///
    /// `round` handles faults, mid-round membership transitions and
    /// `Random` splits the same way with or without per-slot callbacks,
    /// so any round qualifies. The batch ends at the horizon, or when
    /// `decide` hands the decision point back to `cycle`: the book has
    /// drained into the idle jump's steady shape, the unexamined region
    /// is not one trailing gap, or nothing is left to examine. Re-entry
    /// is idempotent, since nothing beyond `ingest`, recovery, the
    /// discard sweep and an idempotent `next_length` has happened for the
    /// aborted round and no RNG was drawn.
    fn batched_rounds(&mut self, limit: Time, obs: &mut dyn EngineObserver) -> bool {
        if !matches!(self.policy.position, WindowPosition::Oldest) {
            return false;
        }
        let from = self.timeline.now();
        let probe_slots =
            |c: &ChannelStats| c.idle_slots + c.collision_slots + c.successes + c.erased_slots;
        let slots_before = probe_slots(&self.channel_stats);
        let mut bufs = std::mem::take(&mut self.scratch);
        while self.timeline.now() < limit {
            let now = self.timeline.now();
            let Some(Decision::Round(initial, Some(base))) =
                self.decide(now, false, &mut bufs, obs)
            else {
                break;
            };
            self.round(initial, Axis::Shifted(base), false, &mut bufs, obs);
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

    /// Admits arrivals with time `<= now` into the pending set. Each
    /// admission opens a lifecycle span via
    /// [`EngineObserver::on_arrival`]; blocked arrivals (churn-blocked or
    /// single-buffer) never enter the protocol and open no span.
    ///
    /// Most decision points come before the next arrival, which the
    /// inlined check answers from the lookahead; [`Engine::admit`] runs
    /// out of line.
    #[inline(always)]
    fn ingest(&mut self, now: Time, obs: &mut dyn EngineObserver) {
        if self.lookahead.is_some_and(|a| a.time > now) {
            return;
        }
        self.admit(now, obs);
    }

    /// The admission loop of [`Engine::ingest`].
    #[inline(never)]
    fn admit(&mut self, now: Time, obs: &mut dyn EngineObserver) {
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
                    self.book(msg);
                    obs.on_arrival(&msg, now);
                }
                _ => break,
            }
        }
    }

    /// One decision point plus the windowing round (or idle slot) it
    /// selects, with every per-slot callback.
    fn cycle(&mut self, obs: &mut dyn EngineObserver) {
        let now = self.timeline.now();
        let mut bufs = std::mem::take(&mut self.scratch);
        let decision = self.decide(now, true, &mut bufs, obs);
        match decision.expect("a per-slot decision point never hands off") {
            Decision::Idle => {
                obs.on_decision(now, None);
                // Nothing unexamined: the channel idles one probe slot
                // while fresh time accumulates.
                let report = self.medium.probe(&[]);
                if let Some(outcome) = self.observe(now, &report, 0, obs) {
                    // A phantom collision outside a round carries no
                    // protocol state to repair; all stations observe it
                    // identically and ignore it.
                    if report.fault.is_some() {
                        self.metrics.on_corrupted_slot();
                    }
                    self.channel_stats.record(&outcome, report.dur);
                    obs.on_probe(now, &[], &outcome, report.dur);
                    self.controller.on_slot(SlotContext::IdleDecision, &outcome);
                    self.timeline.advance(now + report.dur);
                    self.churn_step(obs);
                }
            }
            Decision::Round(initial, base) => {
                obs.on_decision(now, Some(&bufs.segments));
                let pm = std::mem::take(&mut self.pseudo);
                self.round(initial, Axis::new(base, &pm), true, &mut bufs, obs);
                self.pseudo = pm;
            }
        }
        self.scratch = bufs;
    }

    /// The decision point of `cycle` and the batched kernel: ingest,
    /// recovery, the element (4) discard and the window choice. For a
    /// round, `bufs` ends up holding the window's members: its pending
    /// messages, oldest first, copied from the stretch of the sorted book
    /// inside the window's hull (filtered by segment when the window has
    /// several). `bufs.segments` holds the window's segments when
    /// `per_slot` reports them or the pseudo map maps them. The pseudo
    /// map is rebuilt only when the unexamined region is not one trailing
    /// gap; with one, the window is that gap's start shifted by the
    /// window's pseudo bounds, and the stretch starts at the book's front
    /// unless messages wait in examined time.
    ///
    /// Without `per_slot` (the batched kernel) no beacon is reported, and
    /// the decision point goes back to `cycle` (`None`) — before any RNG
    /// draw, so `cycle` redoes it exactly — when the book has drained
    /// into the idle jump's steady shape or there is no trailing gap.
    /// Inlined, like [`Engine::round`], so the batched loop compiles into
    /// one function with the per-slot callbacks folded away.
    #[inline(always)]
    fn decide(
        &mut self,
        now: Time,
        per_slot: bool,
        bufs: &mut RoundScratch,
        obs: &mut dyn EngineObserver,
    ) -> Option<Decision> {
        self.ingest(now, obs);
        let tau = self.medium.config().tau();
        // Book drained and the timeline back in its steady idle shape:
        // the O(1) idle jump takes the stretch from here.
        if !per_slot
            && self.pending.is_empty()
            && self
                .timeline
                .trailing_gap()
                .is_some_and(|g| g.width() == tau)
        {
            return None;
        }
        if !self.rejoining.is_empty() || !self.orphans.is_empty() {
            self.recover(now, obs);
        }
        self.discard_expired(now, obs);
        let gap = self.timeline.trailing_gap();
        if per_slot {
            obs.on_beacon(now, &self.timeline, &self.rng_policy);
        } else if gap.is_none() {
            return None;
        }
        let backlog = match gap {
            Some(g) => g.width(),
            None => {
                self.pseudo.rebuild(&self.timeline);
                self.pseudo.backlog()
            }
        };
        let length = self.controller.next_length(now, backlog, &self.policy);
        let window = self
            .policy
            .choose_window_with_length(backlog, length, &mut self.rng_policy);
        let Some(initial) = window else {
            return Some(Decision::Idle);
        };
        bufs.members.clear();
        let (hull, lo, hi) = match gap {
            Some(g) => {
                // One span, so the book's stretch inside it is the
                // members. An FCFS window starts at `t_past`, so the
                // book's front lies inside it unless messages wait in
                // examined time; the forward scan for `hi` is no longer
                // than the copy that follows it.
                let span = shifted(g.lo, initial);
                if per_slot {
                    bufs.segments.clear();
                    bufs.segments.push(span);
                }
                let lo = if self.pending.front().is_some_and(|m| m.arrival >= span.lo) {
                    0
                } else {
                    self.pending.partition_point(|m| m.arrival < span.lo)
                };
                let hi = lo
                    + self
                        .pending
                        .range(lo..)
                        .take_while(|m| m.arrival < span.hi)
                        .count();
                bufs.members.extend(self.pending.range(lo..hi));
                (span, lo, hi)
            }
            None => {
                self.pseudo.preimage_into(initial, &mut bufs.segments);
                let (first, last) = (bufs.segments[0], bufs.segments[bufs.segments.len() - 1]);
                let hull = Interval::new(first.lo, last.hi);
                let lo = self.pending.partition_point(|m| m.arrival < hull.lo);
                let hi = self.pending.partition_point(|m| m.arrival < hull.hi);
                push_in_segments(
                    self.pending.range(lo..hi),
                    &bufs.segments,
                    &mut bufs.members,
                );
                (hull, lo, hi)
            }
        };
        // The searches' postconditions: the book's stretch `lo..hi` holds
        // exactly its messages inside the window's hull.
        debug_assert!(
            (lo == 0 || self.pending[lo - 1].arrival < hull.lo)
                && self.pending.range(lo..hi).all(|m| hull.contains(m.arrival))
                && !self.pending.get(hi).is_some_and(|m| m.arrival < hull.hi),
            "book stretch {lo}..{hi} is not the hull {hull:?}"
        );
        Some(Decision::Round(initial, gap.map(|g| g.lo)))
    }

    /// Decision-point recovery, ahead of the discard sweep. Restarted
    /// stations cold-start from this beacon: their backlog stranded in
    /// examined time is reopened if young enough to catch up, else dropped
    /// as churn loss. Then the arrival intervals of messages stranded by
    /// misread slots are reopened — before the window choice, so that
    /// Oldest-first policies serve them ahead of younger backlog.
    fn recover(&mut self, now: Time, obs: &mut dyn EngineObserver) {
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
                        .filter(|m| m.station == station)
                        .map(|m| (m.arrival, m.id)),
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

        if !self.orphans.is_empty() {
            let tick = Dur::from_ticks(1);
            std::mem::swap(&mut self.orphans, &mut self.orphans_swap);
            for i in 0..self.orphans_swap.len() {
                let (arrival, id) = self.orphans_swap[i];
                if self.book_position((arrival, id)).is_ok() {
                    let iv = Interval::new(arrival, arrival + tick);
                    self.timeline.reopen(iv);
                    self.metrics.on_reopen();
                    obs.on_reopen(iv);
                }
            }
            self.orphans_swap.clear();
        }
    }

    /// The windowing round from the pseudo window `initial`: probe, split
    /// on collision, split a sibling known to hold two or more arrivals
    /// without probing it, and resolve a one-tick collision by fair coins
    /// ([`Engine::resolve_cluster`]), until a delivery, an empty initial
    /// window, a phantom success or an abandoned re-probe.
    ///
    /// Arrivals are admitted only at decision points and a delivery ends
    /// the round, so mid-round pending messages can only leave (by a
    /// permanent leave): the members `bufs` holds on entry stay a superset
    /// of every probe's transmitters. A one-segment window transmits a
    /// `partition_point` slice of them, a fragmented one a segment filter;
    /// under a churn plan `retain_up` re-filters the set. Debug builds
    /// check each set against a brute-force scan of the book. `per_slot`
    /// reports `on_probe` and `on_immediate_split`; the batched kernel
    /// reports only span callbacks.
    #[inline(always)]
    fn round(
        &mut self,
        initial: PseudoInterval,
        axis: Axis<'_>,
        per_slot: bool,
        bufs: &mut RoundScratch,
        obs: &mut dyn EngineObserver,
    ) {
        let round_start = self.timeline.now();
        let churn = self.churn.is_active();
        let faulty = self.medium.is_faulty();
        let (tau, success) = {
            let channel = self.medium.config();
            (channel.tau(), channel.success_duration())
        };
        // Lifecycle spans report the initial window's membership once per
        // round (not re-reported on erased-feedback re-probes).
        for m in &bufs.members {
            if !churn || self.churn.is_up(m.station) {
                obs.on_window_member(m, round_start);
            }
        }
        let mut overhead: u64 = 0;
        // The round's first clean probe examines the blindly chosen
        // initial window — the rate-information slot for controllers.
        let mut ctx = SlotContext::Initial {
            width: initial.width(),
        };
        let mut current = initial;
        // `Some(s)` means: current ∪ s is known to contain >= 2 arrivals,
        // so if current is empty then s contains >= 2.
        let mut sibling: Option<PseudoInterval> = None;
        // Consecutive detectably-corrupted probes of the current window.
        let mut retries: u32 = 0;

        loop {
            let now = self.timeline.now();
            // One trailing gap needs no segment buffer: the window is one
            // shifted span.
            let span;
            let segments: &[Interval] = match axis {
                Axis::Shifted(base) => {
                    span = shifted(base, current);
                    std::slice::from_ref(&span)
                }
                Axis::Mapped(pm) => {
                    pm.preimage_into(current, &mut bufs.segments);
                    &bufs.segments
                }
            };
            let txs: &[Message] = match segments {
                [s] if !churn => {
                    let lo = bufs.members.partition_point(|m| m.arrival < s.lo);
                    let hi = bufs.members.partition_point(|m| m.arrival < s.hi);
                    &bufs.members[lo..hi]
                }
                _ => {
                    bufs.txs.clear();
                    push_in_segments(&bufs.members, segments, &mut bufs.txs);
                    if churn {
                        // Down, absent or departed stations cannot
                        // transmit; their stranded backlog stays pending
                        // for rejoin recovery or the age discard.
                        self.churn.retain_up(&mut bufs.txs);
                    }
                    &bufs.txs
                }
            };
            // The shortcut's assumption, checked against a brute-force
            // scan of the book over the segments' hull.
            debug_assert!(
                self.pending
                    .iter()
                    .skip_while(|m| m.arrival < segments[0].lo)
                    .take_while(|m| m.arrival < segments[segments.len() - 1].hi)
                    .filter(|m| self.churn.is_up(m.station)
                        && segments.iter().any(|s| s.contains(m.arrival)))
                    .eq(txs),
                "transmitters {txs:?} differ from the book inside {segments:?}"
            );
            // A fault-free probe reads the outcome straight off the
            // transmitter count, as `Medium::probe` does.
            let (outcome, dur, delivered) = if faulty {
                bufs.ids.clear();
                bufs.ids.extend(txs.iter().map(|m| m.id));
                let report = self.medium.probe(&bufs.ids);
                if report.fault.is_some() {
                    for m in txs {
                        self.fault_touched.insert(m.id);
                    }
                }
                let Some(outcome) = self.observe(now, &report, txs.len(), obs) else {
                    // Back off and re-probe the same window.
                    overhead += 1;
                    if self.backoff_or_abandon(&mut retries, obs) {
                        continue;
                    }
                    return;
                };
                if report.fault.is_some() {
                    self.metrics.on_corrupted_slot();
                }
                retries = 0;
                (outcome, report.dur, report.delivered().is_some())
            } else {
                match txs {
                    [] => (SlotOutcome::Idle, tau, false),
                    [m] => (SlotOutcome::Success(m.id), success, true),
                    _ => (SlotOutcome::Collision(txs.len() as u32), tau, false),
                }
            };
            self.channel_stats.record(&outcome, dur);
            if per_slot {
                obs.on_probe(now, segments, &outcome, dur);
            }
            if matches!(outcome, SlotOutcome::Collision(_)) {
                // A collision episode: every current transmitter stays
                // pending and re-contends as the window is split.
                for m in txs {
                    obs.on_collision_member(m, now);
                }
            }
            self.controller.on_slot(ctx, &outcome);
            ctx = SlotContext::Resolution;
            self.timeline.advance(now + dur);
            // A delivered success happened *during* this slot, so it
            // completes before the end-of-slot churn transitions: a
            // station leaving at this exact boundary has already
            // transmitted, and dropping its backlog first would strand
            // a message the channel carried.
            if delivered {
                debug_assert_eq!(txs.len(), 1);
                self.complete_transmission(txs[0], now, round_start, overhead, obs);
            }
            // Without a churn plan a slot only moves the slot counter.
            if churn {
                self.churn_step(obs);
            } else {
                self.churn.skip_slots(1);
            }

            match outcome {
                SlotOutcome::Idle => {
                    overhead += 1;
                    for s in segments {
                        self.timeline.mark_examined(*s);
                    }
                    // Empty initial window: round over.
                    let Some(sib) = sibling.take() else {
                        return;
                    };
                    // sib is known to hold >= 2 arrivals.
                    match self.policy.split_window(sib, &mut self.rng_policy) {
                        Some((first, second)) => {
                            if per_slot {
                                axis.segments_into(sib, &mut bufs.sib_segments);
                                obs.on_immediate_split(self.timeline.now(), &bufs.sib_segments);
                            }
                            current = first;
                            sibling = Some(second);
                        }
                        // One tick wide: cannot split, probe it (it will
                        // collide and enter sub-tick resolution).
                        None => current = sib,
                    }
                }
                SlotOutcome::Success(_) => {
                    for s in segments {
                        self.timeline.mark_examined(*s);
                    }
                    if !delivered {
                        // Phantom success (collision misread): all
                        // stations believe the window resolved, nothing
                        // was delivered. The colliding messages are
                        // stranded in examined time; the next decision
                        // point reopens their arrival intervals.
                        for m in txs {
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
                            bufs.older.clear();
                            bufs.older.extend_from_slice(txs);
                            std::mem::swap(&mut bufs.txs, &mut bufs.older);
                            match self.resolve_cluster(
                                bufs,
                                &mut overhead,
                                round_start,
                                per_slot,
                                obs,
                            ) {
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

    /// The stations' view of a probe by `live` transmitters. A slot whose
    /// feedback every station knows is bad — erased, or a collision
    /// misread as idle, which the transmitters flag — is consumed here
    /// (accounted, reported, clock and churn stepped) and yields `None`:
    /// the caller retries instead of acting on it.
    fn observe(
        &mut self,
        now: Time,
        report: &ProbeReport,
        live: usize,
        obs: &mut dyn EngineObserver,
    ) -> Option<SlotOutcome> {
        match report.observed {
            Feedback::Erased => {
                self.metrics.on_erased_slot();
                self.channel_stats.record_erased(report.dur);
            }
            Feedback::Observed(SlotOutcome::Idle) if live >= 2 => {
                self.metrics.on_corrupted_slot();
                self.channel_stats.record(&SlotOutcome::Idle, report.dur);
            }
            Feedback::Observed(o) => return Some(o),
        }
        obs.on_corrupted_slot(now, report.dur);
        self.timeline.advance(now + report.dur);
        self.churn_step(obs);
        None
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
        self.churn.step(&mut self.churn_events);
        if self.churn_events.is_empty() {
            return;
        }
        let mut events = std::mem::take(&mut self.churn_events);
        let now = self.timeline.now();
        for ev in events.drain(..) {
            obs.on_churn_event(now, &ev);
            match ev {
                ChurnEvent::Crash(s) => {
                    // Disjoint field borrows: `pending` is read while
                    // `churn_touched` absorbs the ids.
                    self.churn_touched
                        .extend(self.pending.iter().filter(|m| m.station == s).map(|m| m.id));
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
                            .filter(|m| m.station == s)
                            .map(|m| (m.arrival, m.id)),
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
        self.churn_events = events;
    }

    /// Holds a capped-exponential quiet backoff before re-probing a window
    /// whose feedback was detectably corrupted. Returns `true` to retry;
    /// `false` when the retry budget is exhausted and the round must be
    /// abandoned (the abandonment itself is recorded here).
    fn backoff_or_abandon(&mut self, retries: &mut u32, obs: &mut dyn EngineObserver) -> bool {
        let resync = ResyncPolicy::default();
        *retries += 1;
        if *retries > resync.max_retries {
            self.metrics.on_round_abandoned();
            obs.on_round_abandoned(self.timeline.now());
            return false;
        }
        self.metrics.on_resync();
        let slots = 1u64
            .checked_shl(*retries - 1)
            .unwrap_or(u64::MAX)
            .min(resync.backoff_cap_slots);
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
    #[inline(never)]
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
            if self.churn.is_active() {
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
            let Some(outcome) = self.observe(now, &report, live_in_older, obs) else {
                *overhead += 1;
                futile += 1;
                continue;
            };
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
        while let Some(m) = self.pending.front().filter(|m| m.arrival < cutoff) {
            let msg = self.unbook((m.arrival, m.id));
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

    /// Admits `msg` to the pending book. Sources deliver non-decreasing
    /// times and ids only grow, so this is a `push_back`; a key that
    /// sorts before the back is inserted at its binary-searched place.
    fn book(&mut self, msg: Message) {
        match self.pending.back() {
            Some(b) if (b.arrival, b.id) > (msg.arrival, msg.id) => {
                let i = self
                    .book_position((msg.arrival, msg.id))
                    .expect_err("message ids are unique");
                self.pending.insert(i, msg);
            }
            _ => self.pending.push_back(msg),
        }
    }

    /// Where the message keyed `key` sits in the book (`Ok`), or where it
    /// would go (`Err`).
    fn book_position(&self, key: (Time, MessageId)) -> Result<usize, usize> {
        self.pending
            .binary_search_by(|m| (m.arrival, m.id).cmp(&key))
    }

    /// Removes a resolved message from the pending book and clears its
    /// station's busy flag. FCFS delivers and the discard sweep drops at
    /// the book's front, which is a `pop_front`; any other key is found
    /// by binary search.
    fn unbook(&mut self, key: (Time, MessageId)) -> Message {
        let msg = if self
            .pending
            .front()
            .is_some_and(|m| (m.arrival, m.id) == key)
        {
            self.pending.pop_front()
        } else {
            self.book_position(key)
                .ok()
                .and_then(|i| self.pending.remove(i))
        }
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
        // (`timeline.now()` — already advanced).
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

/// Appends to `out`, in order, the messages of `msgs` (ordered by
/// arrival) that arrived inside one of `segments` (sorted, disjoint): one
/// pass over the messages with a cursor over the segments.
fn push_in_segments<'a>(
    msgs: impl IntoIterator<Item = &'a Message>,
    segments: &[Interval],
    out: &mut Vec<Message>,
) {
    let mut seg = 0;
    for m in msgs {
        while seg < segments.len() && m.arrival >= segments[seg].hi {
            seg += 1;
        }
        let Some(s) = segments.get(seg) else {
            break;
        };
        if m.arrival >= s.lo {
            out.push(*m);
        }
    }
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
    fn yield_close_admission_and_drain_split() {
        /// The first segment of every round's initial window.
        #[derive(Default)]
        struct Windows(Vec<Interval>);
        impl EngineObserver for Windows {
            fn on_decision(&mut self, _now: Time, segments: Option<&[Interval]>) {
                self.0.extend(segments.map(|s| s[0]));
            }
        }
        let arrivals = [
            (2, 0),
            (9, 1),
            (11, 2),
            (13, 3),
            (60, 4),
            (61, 5),
            (100, 6),
            (101, 7),
        ];
        // Admission closes at tick 100: the arrival at 100 is admitted,
        // the one at 101 never is.
        let cutoff = Time::from_ticks(100);
        let run_to_cutoff = || {
            let mut eng = Engine::new(
                EngineConfig {
                    channel: channel(),
                    policy: ControlPolicy::controlled(Dur::from_ticks(1_000), Dur::from_ticks(8)),
                    measure: measure(1_000),
                    seed: 3,
                },
                TraceArrivals::from_ticks(&arrivals),
            );
            eng.run_until(Time::from_ticks(20), &mut NoopObserver);
            // Another protocol holds the channel for 40 ticks: the stretch
            // joins the unexamined region and is not this engine's
            // channel time.
            let (from, stats) = (eng.now(), eng.channel_stats);
            let t_past = eng
                .timeline()
                .t_past()
                .expect("backlog left at the horizon");
            eng.yield_until(from + Dur::from_ticks(40));
            assert_eq!(eng.channel_stats, stats);
            assert_eq!(
                eng.timeline().unexamined(),
                [Interval::new(t_past, eng.now())]
            );
            // The next round starts where the yield found the backlog.
            let mut windows = Windows::default();
            eng.step(&mut windows);
            assert_eq!(windows.0[0].lo, t_past);
            assert!(eng.now() <= cutoff);
            eng.yield_until(cutoff);
            eng
        };

        let mut eng = run_to_cutoff();
        eng.close_admission(&mut NoopObserver);
        // Everything up to the cutoff is admitted at once.
        let admitted = arrivals.iter().filter(|a| a.0 <= cutoff.ticks()).count() as u64;
        assert_eq!(admitted, 7);
        assert_eq!(eng.metrics.offered() + eng.metrics.outstanding(), admitted);
        assert!(eng.pending_count() > 0 && !eng.is_drained());
        while !eng.is_drained() {
            eng.step(&mut NoopObserver);
        }
        assert_eq!(eng.metrics.offered(), admitted);
        assert_eq!(eng.metrics.outstanding(), 0);
        // `drain` stops at the same instant with the same accounting.
        let mut drained = run_to_cutoff();
        drained.drain(&mut NoopObserver);
        assert_eq!(drained.now(), eng.now());
        assert_eq!(drained.channel_stats, eng.channel_stats);
        assert_eq!(drained.metrics.offered(), eng.metrics.offered());
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
    fn restore_rejects_unsorted_book() {
        let arrivals = [(2, 0), (3, 1)];
        let mut eng = fcfs_engine(&arrivals, 16);
        eng.run_until(Time::from_ticks(4), &mut NoopObserver);
        eng.ingest(eng.now(), &mut NoopObserver);
        assert_eq!(eng.pending_count(), 2);
        let words = eng.snapshot().expect("trace source checkpoints");
        assert!(fcfs_engine(&arrivals, 16).restore(&words).is_ok());
        // Out of order, then a duplicate entry: the book's binary
        // searches would go wrong on either.
        eng.pending.swap(0, 1);
        let unsorted = eng.snapshot().expect("trace source checkpoints");
        eng.pending[0] = eng.pending[1];
        let duplicate = eng.snapshot().expect("trace source checkpoints");
        for words in [unsorted, duplicate] {
            let err = fcfs_engine(&arrivals, 16).restore(&words).unwrap_err();
            assert!(err.to_string().contains("strictly increasing"), "{err}");
        }
    }

    #[test]
    fn book_keeps_out_of_order_keys_sorted() {
        // Message `id` comes from station `id`, which admission marks busy.
        let booked = || {
            let mut eng = fcfs_engine(&[], 16);
            for (t, id) in [(5, 0), (9, 1), (7, 2), (5, 3), (1, 4)] {
                let station = StationId(id as u32);
                eng.mark_busy(station);
                eng.book(Message::new(MessageId(id), station, Time::from_ticks(t)));
            }
            eng
        };
        let keys = |eng: &Engine<TraceArrivals>| -> Vec<(u64, u64)> {
            eng.pending
                .iter()
                .map(|m| (m.arrival.ticks(), m.id.0))
                .collect()
        };
        let sorted = [(1, 4), (5, 0), (5, 3), (7, 2), (9, 1)];
        assert_eq!(keys(&booked()), sorted);
        // The front's pop and the other keys' binary search remove just
        // that message and clear just its station's flag, down to an
        // FCFS drain that pops the front every time.
        for (t, id) in sorted {
            let mut eng = booked();
            let msg = eng.unbook((Time::from_ticks(t), MessageId(id)));
            assert_eq!(msg.id, MessageId(id));
            let rest: Vec<_> = sorted.into_iter().filter(|&k| k != (t, id)).collect();
            assert_eq!(keys(&eng), rest);
            assert_eq!(eng.busy, (0..5).map(|s| s != id).collect::<Vec<_>>());
        }
        let mut eng = booked();
        for (t, id) in sorted {
            eng.unbook((Time::from_ticks(t), MessageId(id)));
        }
        assert!(eng.pending.is_empty() && eng.busy.iter().all(|&b| !b));
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

    /// Under feedback faults and random crashes an idle jump calls the
    /// controller once, not once per slot. Counted, not timed: each jump
    /// is one `on_idle_run` call that consumed its slots, any other call
    /// is an attempt that fell back to a decision cycle (`on_decision`),
    /// and the calls see runs of many slots.
    #[test]
    fn faulty_idle_jumps_call_the_controller_once() {
        use crate::controller::{AimdConfig, AimdController, WindowController};
        use std::cell::RefCell;
        use std::rc::Rc;

        /// AIMD that logs the `n` and the result of each idle-run call.
        struct Counting {
            aimd: AimdController,
            calls: Rc<RefCell<Vec<(u64, u64)>>>,
        }
        impl WindowController for Counting {
            fn next_length(&mut self, now: Time, backlog: Dur, policy: &ControlPolicy) -> u64 {
                self.aimd.next_length(now, backlog, policy)
            }
            fn on_slot(&mut self, ctx: SlotContext, outcome: &SlotOutcome) {
                self.aimd.on_slot(ctx, outcome);
            }
            fn on_idle_run(
                &mut self,
                now: Time,
                width: u64,
                n: u64,
                policy: &ControlPolicy,
            ) -> u64 {
                let consumed = self.aimd.on_idle_run(now, width, n, policy);
                self.calls.borrow_mut().push((n, consumed));
                consumed
            }
            fn window_ticks(&self) -> u64 {
                self.aimd.window_ticks()
            }
        }

        #[derive(Default)]
        struct Decisions(u64);
        impl EngineObserver for Decisions {
            fn on_decision(&mut self, _now: Time, _segments: Option<&[Interval]>) {
                self.0 += 1;
            }
        }

        let calls = Rc::new(RefCell::new(Vec::new()));
        let mut eng = poisson_engine(
            channel(),
            ControlPolicy::controlled(Dur::from_ticks(300), Dur::from_ticks(12)),
            measure(300),
            0.05,
            20,
            5,
        );
        eng.set_fault_plan(FaultPlan::uniform(0.01));
        eng.set_churn_plan(ChurnPlan::crash_restart(0.0005, 40, 50), 20);
        eng.set_controller(Box::new(Counting {
            aimd: AimdController::new(AimdConfig::around(12)),
            calls: Rc::clone(&calls),
        }));
        let mut decisions = Decisions::default();
        eng.run_until(Time::from_ticks(400_000), &mut decisions);
        let (calls, h) = (calls.borrow(), eng.horizon_stats);
        assert!(eng.metrics.corrupted_slots() > 0 && eng.churn().crashes() > 0);
        assert_eq!(calls.iter().filter(|c| c.1 > 0).count() as u64, h.jumps);
        assert_eq!(calls.iter().map(|c| c.1).sum::<u64>(), h.slots_skipped);
        assert!(
            calls.len() as u64 <= h.jumps + decisions.0,
            "{} calls for {} jumps and {} decision cycles",
            calls.len(),
            h.jumps,
            decisions.0
        );
        let mean = calls.iter().map(|c| c.0).sum::<u64>() as f64 / calls.len() as f64;
        assert!(mean >= 8.0, "{mean} slots per call");
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
