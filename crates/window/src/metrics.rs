//! Per-message loss and delay accounting.
//!
//! The paper distinguishes (§4.2):
//!
//! * **sender loss** — messages discarded by policy element (4) because
//!   their waiting time exceeded `K` before they could be scheduled;
//! * **receiver loss** — messages that were transmitted but whose *true*
//!   waiting time (arrival → start of own successful transmission)
//!   exceeded `K`, so the receiver drops them;
//! * the headline metric, **total loss** — the fraction of offered
//!   messages not delivered within the constraint.
//!
//! Uncontrolled protocols (FCFS/LCFS/RANDOM of [Kurose 83]) have only
//! receiver losses; the controlled protocol has mostly sender losses plus a
//! small receiver-loss component caused by the paper's waiting-time
//! approximation (a message's own scheduling time is not counted in the
//! waiting time used for the discard decision, but it is counted by the
//! receiver — the simulation measures the truth, exactly as the paper's
//! simulation points do).

use tcw_mac::StationId;
use tcw_sim::stats::{Histogram, MetricSink, RatioCounter, Tally, TickHistogram};
use tcw_sim::time::{Dur, Time};

/// Measurement window and deadline configuration for a run.
#[derive(Clone, Copy, Debug)]
pub struct MeasureConfig {
    /// Messages arriving before this instant are warm-up and not counted.
    pub start: Time,
    /// Messages arriving at/after this instant are cool-down and not
    /// counted.
    pub end: Time,
    /// The delivery deadline `K` used for receiver-loss classification.
    pub deadline: Dur,
}

impl MeasureConfig {
    /// Whether a message arriving at `t` is inside the measured window.
    pub fn counts(&self, t: Time) -> bool {
        t >= self.start && t < self.end
    }
}

/// Per-station age-process state.
///
/// Accounting is *lazy*: between deliveries the instantaneous age is the
/// deterministic ramp `t − u` (with `u` the latest delivered arrival), so
/// the integral, the peak samples and the violation time are all updated
/// only at delivery instants plus one closed-form tail at read-out. No
/// per-slot work means the event-horizon fast path needs no special
/// handling — a jumped idle run contains no deliveries by construction,
/// and every delivery, batched or not, comes from the engine's one round
/// resolver through [`Metrics::on_delivery`], so the age process is
/// bit-identical on either path.
#[derive(Clone, Copy, Debug)]
struct StationAge {
    /// Latest arrival instant among this station's delivered messages.
    u: Time,
    /// Start of this station's observed interval: its first delivery,
    /// clamped into the measurement window.
    obs_start: Time,
    /// The age integral and violation time cover `[obs_start, flushed_to)`.
    flushed_to: Time,
    /// Twice the age integral over the flushed interval, in ticks²
    /// (doubling keeps the trapezoid areas integral, so the accounting is
    /// exact integer arithmetic — no floating-point path dependence).
    twice_area: u128,
    /// Ticks of the flushed interval with age strictly above the
    /// threshold.
    violation: u64,
    /// Deliveries recorded for this station.
    deliveries: u64,
}

impl StationAge {
    /// Extends the flushed interval to `min(to, end)`. `self.u` is the
    /// anchor: the age at `t` is `t − u` throughout the extension.
    fn flush(&mut self, to: Time, end: Time, threshold: Dur) {
        let hi = to.min(end);
        if hi <= self.flushed_to {
            return;
        }
        // Whenever the guard passes, `flushed_to < end`, which (see
        // `on_delivery`) implies `u <= flushed_to`: ages are well formed.
        let u = self.u.ticks();
        let a0 = self.flushed_to.ticks() - u;
        let a1 = hi.ticks() - u;
        self.twice_area += (a1 as u128) * (a1 as u128) - (a0 as u128) * (a0 as u128);
        let viol_from = (u + threshold.ticks()).max(self.flushed_to.ticks());
        self.violation += hi.ticks().saturating_sub(viol_from);
        self.flushed_to = hi;
    }
}

/// Per-station Age-of-Information tracker over the measurement window.
///
/// The age of station *i* at time *t* is `t − u_i(t)` where `u_i(t)` is
/// the latest arrival instant among station *i*'s messages delivered by
/// *t* — the standard AoI saw-tooth. The tracker observes each station
/// from its first delivery (clamped into `[start, end)`) to the end of
/// the measurement window and reports time-averaged age, per-delivery
/// peak age, and the fraction of observed time the age exceeded a
/// threshold (the deadline `K` by default).
#[derive(Clone, Debug)]
pub struct AgeTracker {
    start: Time,
    end: Time,
    threshold: Dur,
    /// Indexed by station id; `None` until the station's first delivery.
    stations: Vec<Option<StationAge>>,
    /// Age immediately before each delivery after a station's first
    /// (the saw-tooth peaks), for deliveries inside `[start, end)`.
    peak: Tally,
    /// Peak-age samples over `[0, 4K)` ticks.
    peak_hist: Histogram,
    /// All deliveries reported to the tracker (including warm-up
    /// deliveries, which seed the age process so it is not censored at
    /// the window start).
    deliveries: u64,
}

impl AgeTracker {
    fn new(cfg: &MeasureConfig) -> Self {
        AgeTracker {
            start: cfg.start,
            end: cfg.end,
            threshold: cfg.deadline,
            stations: Vec::new(),
            peak: Tally::new(),
            peak_hist: Histogram::new(0.0, (4 * cfg.deadline.ticks()).max(2) as f64, 128),
            deliveries: 0,
        }
    }

    /// Records the delivery at instant `delivered` of a message that
    /// arrived at `arrival` at `station`. Called by the engine from
    /// `complete_transmission`, whether or not the round ran in the
    /// batched kernel (with identical instants, pinned by the A-B
    /// property suite).
    pub fn on_delivery(&mut self, station: StationId, arrival: Time, delivered: Time) {
        self.deliveries += 1;
        let idx = station.0 as usize;
        if idx >= self.stations.len() {
            self.stations.resize(idx + 1, None);
        }
        match &mut self.stations[idx] {
            slot @ None => {
                // Observation starts here; no peak sample for the first
                // delivery (the pre-delivery age is undefined).
                *slot = Some(StationAge {
                    u: arrival,
                    obs_start: self.start.max(delivered),
                    flushed_to: self.start.max(delivered),
                    twice_area: 0,
                    violation: 0,
                    deliveries: 1,
                });
            }
            Some(s) => {
                s.flush(delivered, self.end, self.threshold);
                if delivered >= self.start && delivered < self.end {
                    // Saw-tooth peak: the age immediately before this
                    // delivery resets it. `u <= flushed_to <= delivered`.
                    let peak = (delivered - s.u).as_f64();
                    self.peak.record(peak);
                    self.peak_hist.record(peak);
                }
                // After `flush`, `flushed_to = min(delivered, end)`, so a
                // new anchor `u = arrival <= delivered` keeps
                // `u <= flushed_to` whenever `flushed_to < end`. When
                // `arrival > end` the interval is already fully flushed
                // and no further flush can pass its guard, but the anchor
                // is clamped to `end` so the final-age snapshot at the
                // window end (`end - u`) stays non-negative.
                s.u = s.u.max(arrival.min(self.end));
                s.deliveries += 1;
            }
        }
    }

    /// Ends the run at `now`: from here on every read-out ends the
    /// stations' age tails at `min(end, now)`. A window that closes
    /// before the run keeps its tails to the window end. An unbounded one
    /// (`end = Time::MAX`) stops them at the run's last instant instead
    /// of squaring ages near `Time::MAX` into the integral. Call it once,
    /// after the last delivery.
    pub fn end_run(&mut self, now: Time) {
        self.end = self.end.min(now);
    }

    /// Station state with the closed-form tail `[flushed_to, end)` folded
    /// in, without mutating the tracker.
    fn with_tail(&self, s: &StationAge) -> StationAge {
        let mut t = *s;
        t.flush(self.end, self.end, self.threshold);
        t
    }

    /// Stations observed (at least one delivery, and a non-empty observed
    /// interval inside the measurement window).
    pub fn stations_observed(&self) -> u64 {
        self.stations
            .iter()
            .flatten()
            .filter(|s| s.obs_start < self.end)
            .count() as u64
    }

    /// Deliveries reported to the tracker.
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// The violation threshold (the deadline `K` of the run).
    pub fn threshold(&self) -> Dur {
        self.threshold
    }

    /// Total observed station-time in ticks, and the summed doubled age
    /// integral and violation time over it.
    fn totals(&self) -> (u128, u128, u64) {
        let mut obs: u128 = 0;
        let mut twice_area: u128 = 0;
        let mut violation: u64 = 0;
        for s in self.stations.iter().flatten() {
            if s.obs_start >= self.end {
                continue;
            }
            let t = self.with_tail(s);
            obs += (self.end - t.obs_start).ticks() as u128;
            twice_area += t.twice_area;
            violation += t.violation;
        }
        (obs, twice_area, violation)
    }

    /// Time-averaged age across all observed stations (ticks), weighted
    /// by each station's observed time. `None` until a station has been
    /// observed for a positive interval.
    pub fn mean_age(&self) -> Option<f64> {
        let (obs, twice_area, _) = self.totals();
        (obs > 0).then(|| (twice_area as f64 / 2.0) / obs as f64)
    }

    /// Fraction of observed station-time with age above the threshold.
    pub fn violation_fraction(&self) -> Option<f64> {
        let (obs, _, violation) = self.totals();
        (obs > 0).then(|| violation as f64 / obs as f64)
    }

    /// Tally of saw-tooth peak ages (ticks) at deliveries inside the
    /// measurement window.
    pub fn peak_age(&self) -> &Tally {
        &self.peak
    }

    /// Histogram of per-station instantaneous age at the end of the
    /// measurement window (ticks, over `[0, 4K)`).
    pub fn final_age_histogram(&self) -> Histogram {
        let mut h = Histogram::new(0.0, (4 * self.threshold.ticks()).max(2) as f64, 128);
        for s in self.stations.iter().flatten() {
            if s.obs_start < self.end {
                h.record((self.end - s.u).as_f64());
            }
        }
        h
    }

    /// Pushes the AoI instruments into `sink` under stable `tcw_aoi_*`
    /// names. Families whose value needs a positive observed interval
    /// (mean age, violation ratio) follow the p95/p99 convention and are
    /// emitted only when defined.
    pub fn emit(&self, sink: &mut dyn MetricSink) {
        sink.gauge(
            "tcw_aoi_stations",
            "stations observed by the age tracker (>=1 delivery in-window)",
            self.stations_observed() as f64,
        );
        sink.counter(
            "tcw_aoi_deliveries_total",
            "deliveries folded into the age processes (incl. warm-up seeding)",
            self.deliveries,
        );
        sink.gauge(
            "tcw_aoi_threshold_ticks",
            "age-violation threshold (the run's deadline K, ticks)",
            self.threshold.as_f64(),
        );
        if let Some(mean) = self.mean_age() {
            sink.gauge(
                "tcw_aoi_mean_age_ticks",
                "time-averaged age of information across observed stations (ticks)",
                mean,
            );
        }
        if let Some(v) = self.violation_fraction() {
            sink.gauge(
                "tcw_aoi_violation_ratio",
                "fraction of observed station-time with age above the threshold",
                v,
            );
        }
        sink.tally(
            "tcw_aoi_peak_age_ticks",
            "saw-tooth peak age at in-window deliveries (ticks)",
            &self.peak,
        );
        sink.histogram(
            "tcw_aoi_peak_age_hist_ticks",
            "peak-age samples over [0, 4K) (ticks)",
            &self.peak_hist,
        );
        let final_hist = self.final_age_histogram();
        sink.histogram(
            "tcw_aoi_final_age_hist_ticks",
            "per-station instantaneous age at the window end over [0, 4K) (ticks)",
            &final_hist,
        );
    }

    /// Serializes the tracker for an engine checkpoint (configuration
    /// excluded, as everywhere in the snapshot format).
    pub fn save_state(&self, w: &mut tcw_sim::snap::SnapWriter) {
        w.push(self.deliveries);
        self.peak.save_state(w);
        self.peak_hist.save_state(w);
        w.push_usize(self.stations.len());
        for s in &self.stations {
            match s {
                None => w.push_bool(false),
                Some(st) => {
                    w.push_bool(true);
                    w.push(st.u.ticks());
                    w.push(st.obs_start.ticks());
                    w.push(st.flushed_to.ticks());
                    w.push((st.twice_area >> 64) as u64);
                    w.push(st.twice_area as u64);
                    w.push(st.violation);
                    w.push(st.deliveries);
                }
            }
        }
    }

    /// Rebuilds the tracker from checkpoint state written by
    /// [`AgeTracker::save_state`], under the restore target's own `cfg`.
    pub fn load_state(
        cfg: &MeasureConfig,
        r: &mut tcw_sim::snap::SnapReader<'_>,
    ) -> Result<Self, tcw_sim::snap::SnapError> {
        let deliveries = r.take()?;
        let peak = Tally::load_state(r)?;
        let peak_hist = Histogram::load_state(r)?;
        let n = r.take_len()?;
        let mut stations = Vec::with_capacity(n);
        for _ in 0..n {
            stations.push(if r.take_bool()? {
                let u = Time::from_ticks(r.take()?);
                let obs_start = Time::from_ticks(r.take()?);
                let flushed_to = Time::from_ticks(r.take()?);
                let hi = r.take()? as u128;
                let lo = r.take()? as u128;
                Some(StationAge {
                    u,
                    obs_start,
                    flushed_to,
                    twice_area: (hi << 64) | lo,
                    violation: r.take()?,
                    deliveries: r.take()?,
                })
            } else {
                None
            });
        }
        Ok(AgeTracker {
            start: cfg.start,
            end: cfg.end,
            threshold: cfg.deadline,
            stations,
            peak,
            peak_hist,
            deliveries,
        })
    }
}

/// Aggregated results of a simulation run.
#[derive(Clone, Debug)]
pub struct Metrics {
    cfg: MeasureConfig,
    /// Per-message loss indicator (1 = lost), in arrival order.
    loss: RatioCounter,
    sender_lost: u64,
    receiver_lost: u64,
    blocked: u64,
    /// True waiting time (arrival → start of successful transmission) of
    /// transmitted, counted messages.
    true_delay: Tally,
    /// The paper's waiting-time definition (arrival → start of the
    /// windowing process producing the transmission).
    paper_delay: Tally,
    /// Overhead (idle + collision) slots per message-scheduling round.
    sched_slots: Tally,
    /// Scheduling time per transmitted message: from max(end of previous
    /// transmission, own arrival) to start of own transmission — the
    /// scheduling component of the queueing model's service time (§4).
    sched_time: Tally,
    /// Histogram of paper-definition waiting times of transmitted
    /// messages, over `[0, 2K)` — the empirical counterpart of the
    /// workload distribution of eq. 4.4.
    paper_delay_hist: Histogram,
    /// Count per tick of the true waiting times of transmitted, counted
    /// messages, for their exact p95/p99. Room for `[0, 2K]` is reserved
    /// up front (`delay_reserve`); a later delay grows it.
    true_delay_ticks: TickHistogram,
    outstanding: u64,
    /// Degradation counters under fault injection (all zero on clean runs).
    corrupted_slots: u64,
    erased_slots: u64,
    resyncs: u64,
    rounds_abandoned: u64,
    reopened: u64,
    fault_losses: u64,
    /// Recovery counters under station churn (all zero with a static
    /// population).
    churn_blocked: u64,
    churn_losses: u64,
    churn_reopened: u64,
    /// Rejoin latency of restarted stations, in probe slots from restart
    /// to the decision point that re-admits them.
    rejoin_slots: Tally,
    /// Per-station Age-of-Information processes.
    aoi: AgeTracker,
}

impl Metrics {
    /// Creates empty metrics for a measurement window.
    pub fn new(cfg: MeasureConfig) -> Self {
        Metrics {
            cfg,
            loss: RatioCounter::new(),
            sender_lost: 0,
            receiver_lost: 0,
            blocked: 0,
            true_delay: Tally::new(),
            paper_delay: Tally::new(),
            sched_slots: Tally::new(),
            sched_time: Tally::new(),
            paper_delay_hist: Histogram::new(0.0, (2 * cfg.deadline.ticks()).max(2) as f64, 256),
            true_delay_ticks: TickHistogram::with_capacity(Self::delay_reserve(&cfg)),
            outstanding: 0,
            corrupted_slots: 0,
            erased_slots: 0,
            resyncs: 0,
            rounds_abandoned: 0,
            reopened: 0,
            fault_losses: 0,
            churn_blocked: 0,
            churn_losses: 0,
            churn_reopened: 0,
            rejoin_slots: Tally::new(),
            aoi: AgeTracker::new(&cfg),
        }
    }

    /// Bins reserved for the true-delay histogram: `[0, 2K]`, capped at
    /// 2^20 ticks (8 MiB) so a huge deadline reserves no more.
    fn delay_reserve(cfg: &MeasureConfig) -> usize {
        cfg.deadline
            .ticks()
            .saturating_mul(2)
            .saturating_add(1)
            .min(1 << 20) as usize
    }

    /// The measurement configuration.
    pub fn config(&self) -> &MeasureConfig {
        &self.cfg
    }

    /// Records the arrival of a counted message.
    pub fn on_offered(&mut self, arrival: Time) {
        if self.cfg.counts(arrival) {
            self.outstanding += 1;
        }
    }

    /// Records an arrival blocked at a full single-buffer station (the
    /// finite-population sensitivity model; see
    /// `Engine::set_single_buffer_stations`). Blocked messages never enter
    /// the protocol and count as lost.
    pub fn on_blocked(&mut self, arrival: Time) {
        if self.cfg.counts(arrival) {
            self.blocked += 1;
            self.loss.hit();
        }
    }

    /// Records a sender-side discard (policy element 4).
    pub fn on_sender_discard(&mut self, arrival: Time) {
        if self.cfg.counts(arrival) {
            self.outstanding -= 1;
            self.sender_lost += 1;
            self.loss.hit();
        }
    }

    /// Records a successful transmission.
    pub fn on_transmit(&mut self, arrival: Time, paper_delay: Dur, true_delay: Dur) {
        if !self.cfg.counts(arrival) {
            return;
        }
        self.outstanding -= 1;
        self.true_delay.record(true_delay.as_f64());
        self.true_delay_ticks.record(true_delay.ticks());
        self.paper_delay.record(paper_delay.as_f64());
        self.paper_delay_hist.record(paper_delay.as_f64());
        if true_delay > self.cfg.deadline {
            self.receiver_lost += 1;
            self.loss.hit();
        } else {
            self.loss.miss();
        }
    }

    /// Records a delivery in the per-station age process. Unlike
    /// [`Metrics::on_transmit`], this is called for *every* delivery —
    /// warm-up deliveries seed the age saw-tooth so the process is not
    /// censored at the measurement-window start.
    pub fn on_delivery(&mut self, station: StationId, arrival: Time, delivered: Time) {
        self.aoi.on_delivery(station, arrival, delivered);
    }

    /// Ends the run at `now` for the age read-outs
    /// ([`AgeTracker::end_run`]).
    pub fn end_run(&mut self, now: Time) {
        self.aoi.end_run(now);
    }

    /// The per-station Age-of-Information tracker.
    pub fn aoi(&self) -> &AgeTracker {
        &self.aoi
    }

    /// Records the overhead slot count of a scheduling round that produced
    /// a transmission.
    pub fn on_round(&mut self, overhead_slots: u64) {
        self.sched_slots.record(overhead_slots as f64);
    }

    /// Records the scheduling-time component of a transmitted message's
    /// service time (in ticks).
    pub fn on_sched_time(&mut self, t: Dur) {
        self.sched_time.record(t.as_f64());
    }

    /// Records a slot whose feedback was corrupted by an injected
    /// misdetection fault.
    pub fn on_corrupted_slot(&mut self) {
        self.corrupted_slots += 1;
    }

    /// Records a slot whose feedback was erased by an injected fault.
    pub fn on_erased_slot(&mut self) {
        self.erased_slots += 1;
    }

    /// Records one resynchronization attempt (backoff + re-probe of a
    /// window whose feedback was detectably corrupted).
    pub fn on_resync(&mut self) {
        self.resyncs += 1;
    }

    /// Records a windowing round abandoned after the retry budget was
    /// exhausted.
    pub fn on_round_abandoned(&mut self) {
        self.rounds_abandoned += 1;
    }

    /// Records an examined interval reopened to recover arrivals stranded
    /// by a feedback fault.
    pub fn on_reopen(&mut self) {
        self.reopened += 1;
    }

    /// Records a counted message lost after its trajectory was touched by
    /// an injected fault (the fault-attributed component of the loss).
    pub fn on_fault_loss(&mut self) {
        self.fault_losses += 1;
    }

    /// Records an arrival at a station that is currently down, absent or
    /// departed: the message never enters the protocol and counts as
    /// lost to churn.
    pub fn on_churn_blocked(&mut self, arrival: Time) {
        if self.cfg.counts(arrival) {
            self.churn_blocked += 1;
            self.loss.hit();
        }
    }

    /// Records a pending message dropped because its station left
    /// permanently or its backlog fell outside the rejoin catch-up
    /// window.
    pub fn on_churn_drop(&mut self, arrival: Time) {
        if self.cfg.counts(arrival) {
            self.outstanding -= 1;
            self.churn_losses += 1;
            self.loss.hit();
        }
    }

    /// Records a counted message lost after its station crashed (the
    /// churn-attributed component of the age-discard/late-delivery loss).
    pub fn on_churn_loss(&mut self) {
        self.churn_losses += 1;
    }

    /// Records an examined interval reopened to recover the surviving
    /// backlog of a restarted station.
    pub fn on_churn_reopen(&mut self) {
        self.churn_reopened += 1;
    }

    /// Records the rejoin latency of one restarted station (probe slots
    /// from restart to the decision point re-admitting its backlog).
    pub fn on_rejoin(&mut self, slots: u64) {
        self.rejoin_slots.record(slots as f64);
    }

    /// Slots with misdetected feedback observed by the protocol.
    pub fn corrupted_slots(&self) -> u64 {
        self.corrupted_slots
    }

    /// Slots with erased feedback observed by the protocol.
    pub fn erased_slots(&self) -> u64 {
        self.erased_slots
    }

    /// Resynchronization attempts (backoff + re-probe) performed.
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Windowing rounds abandoned after exhausting the retry budget.
    pub fn rounds_abandoned(&self) -> u64 {
        self.rounds_abandoned
    }

    /// Examined intervals reopened to recover fault-stranded arrivals.
    pub fn reopened(&self) -> u64 {
        self.reopened
    }

    /// Counted messages lost whose trajectory was touched by a fault.
    pub fn fault_losses(&self) -> u64 {
        self.fault_losses
    }

    /// Arrivals blocked because their station was down, absent or gone.
    pub fn churn_blocked(&self) -> u64 {
        self.churn_blocked
    }

    /// Counted messages lost to churn: dropped with a departed station,
    /// aged out past the catch-up window, or discarded/late after their
    /// station crashed.
    pub fn churn_losses(&self) -> u64 {
        self.churn_losses
    }

    /// Examined intervals reopened to recover restarted stations' backlog.
    pub fn churn_reopened(&self) -> u64 {
        self.churn_reopened
    }

    /// Tally of rejoin latencies of restarted stations (probe slots).
    pub fn rejoin_latency(&self) -> &Tally {
        &self.rejoin_slots
    }

    /// Counted messages that have not yet been resolved (must be zero after
    /// a drained run).
    pub fn outstanding(&self) -> u64 {
        self.outstanding
    }

    /// Offered (counted) messages resolved so far.
    pub fn offered(&self) -> u64 {
        self.loss.total()
    }

    /// Messages discarded at the sender.
    pub fn sender_lost(&self) -> u64 {
        self.sender_lost
    }

    /// Messages transmitted but late at the receiver.
    pub fn receiver_lost(&self) -> u64 {
        self.receiver_lost
    }

    /// Arrivals blocked at full single-buffer stations.
    pub fn blocked(&self) -> u64 {
        self.blocked
    }

    /// Total loss fraction — the paper's headline metric.
    pub fn loss_fraction(&self) -> f64 {
        self.loss.ratio()
    }

    /// 95% confidence half-width for the loss fraction (binomial
    /// approximation; successive messages are weakly dependent, so this is
    /// indicative — batch-level replication in the harness provides the
    /// rigorous interval).
    pub fn loss_ci95(&self) -> f64 {
        self.loss.ci95_half_width()
    }

    /// Tally of true waiting times of transmitted messages (ticks).
    pub fn true_delay(&self) -> &Tally {
        &self.true_delay
    }

    /// Tally of paper-definition waiting times (ticks).
    pub fn paper_delay(&self) -> &Tally {
        &self.paper_delay
    }

    /// Tally of overhead slots per successful scheduling round.
    pub fn sched_slots(&self) -> &Tally {
        &self.sched_slots
    }

    /// Tally of scheduling times of transmitted messages (ticks).
    pub fn sched_time(&self) -> &Tally {
        &self.sched_time
    }

    /// Histogram of paper-definition waiting times of transmitted,
    /// counted messages (ticks, 256 bins over `[0, 2K)`).
    pub fn paper_delay_histogram(&self) -> &Histogram {
        &self.paper_delay_hist
    }

    /// Exact nearest-rank p95 of the true waiting times of transmitted,
    /// counted messages (whole ticks); `None` before the first.
    pub fn true_delay_p95(&self) -> Option<f64> {
        self.true_delay_ticks.percentile(95).map(|t| t as f64)
    }

    /// Exact nearest-rank p99 of the true waiting times of transmitted,
    /// counted messages (whole ticks); `None` before the first.
    pub fn true_delay_p99(&self) -> Option<f64> {
        self.true_delay_ticks.percentile(99).map(|t| t as f64)
    }

    /// Pushes every accumulated metric into `sink` under stable
    /// `tcw_engine_*` names. Called once per run by the observability
    /// registry; the accounting hot path is untouched.
    pub fn emit(&self, sink: &mut dyn MetricSink) {
        sink.counter(
            "tcw_engine_messages_offered_total",
            "counted messages resolved in the measurement window",
            self.offered(),
        );
        sink.counter(
            "tcw_engine_messages_sender_lost_total",
            "messages discarded at the sender (policy element 4)",
            self.sender_lost,
        );
        sink.counter(
            "tcw_engine_messages_receiver_lost_total",
            "messages transmitted but late at the receiver",
            self.receiver_lost,
        );
        sink.counter(
            "tcw_engine_messages_blocked_total",
            "arrivals blocked at full single-buffer stations",
            self.blocked,
        );
        sink.gauge(
            "tcw_engine_loss_fraction",
            "total loss fraction (the paper's headline metric)",
            self.loss_fraction(),
        );
        sink.tally(
            "tcw_engine_true_delay_ticks",
            "true waiting time of transmitted counted messages (ticks)",
            &self.true_delay,
        );
        sink.tally(
            "tcw_engine_paper_delay_ticks",
            "paper-definition waiting time of transmitted counted messages (ticks)",
            &self.paper_delay,
        );
        sink.tally(
            "tcw_engine_sched_overhead_slots",
            "overhead slots per successful scheduling round",
            &self.sched_slots,
        );
        sink.tally(
            "tcw_engine_sched_time_ticks",
            "scheduling-time component of transmitted messages' service time (ticks)",
            &self.sched_time,
        );
        sink.histogram(
            "tcw_engine_paper_delay_hist_ticks",
            "paper-definition waiting times over [0, 2K) (ticks)",
            &self.paper_delay_hist,
        );
        if let Some([p95, p99]) = self.true_delay_ticks.percentiles([95, 99]) {
            sink.gauge(
                "tcw_engine_true_delay_p95_ticks",
                "nearest-rank p95 of true waiting times (ticks)",
                p95 as f64,
            );
            sink.gauge(
                "tcw_engine_true_delay_p99_ticks",
                "nearest-rank p99 of true waiting times (ticks)",
                p99 as f64,
            );
        }
        sink.counter(
            "tcw_engine_corrupted_slots_total",
            "slots with misdetected feedback",
            self.corrupted_slots,
        );
        sink.counter(
            "tcw_engine_erased_slots_total",
            "slots with erased feedback",
            self.erased_slots,
        );
        sink.counter(
            "tcw_engine_resyncs_total",
            "backoff/re-probe resynchronizations after detected corruption",
            self.resyncs,
        );
        sink.counter(
            "tcw_engine_rounds_abandoned_total",
            "windowing rounds abandoned after exhausting the retry budget",
            self.rounds_abandoned,
        );
        sink.counter(
            "tcw_engine_reopened_total",
            "examined intervals reopened for fault-stranded arrivals",
            self.reopened,
        );
        sink.counter(
            "tcw_engine_fault_losses_total",
            "counted losses attributable to an injected fault",
            self.fault_losses,
        );
        sink.counter(
            "tcw_engine_churn_blocked_total",
            "arrivals blocked because the station was down, absent or gone",
            self.churn_blocked,
        );
        sink.counter(
            "tcw_engine_churn_losses_total",
            "counted messages lost to churn",
            self.churn_losses,
        );
        sink.counter(
            "tcw_engine_churn_reopened_total",
            "examined intervals reopened to recover restarted stations' backlog",
            self.churn_reopened,
        );
        sink.tally(
            "tcw_engine_rejoin_latency_slots",
            "rejoin latency of restarted stations (probe slots)",
            &self.rejoin_slots,
        );
        self.aoi.emit(sink);
    }
}

impl Metrics {
    /// Serializes all accumulated measurements for an engine checkpoint.
    /// The [`MeasureConfig`] is *not* captured — a restore target must be
    /// built from the same configuration.
    pub fn save_state(&self, w: &mut tcw_sim::snap::SnapWriter) {
        self.loss.save_state(w);
        w.push(self.sender_lost);
        w.push(self.receiver_lost);
        w.push(self.blocked);
        self.true_delay.save_state(w);
        self.paper_delay.save_state(w);
        self.sched_slots.save_state(w);
        self.sched_time.save_state(w);
        self.paper_delay_hist.save_state(w);
        self.true_delay_ticks.save_state(w);
        w.push(self.outstanding);
        w.push(self.corrupted_slots);
        w.push(self.erased_slots);
        w.push(self.resyncs);
        w.push(self.rounds_abandoned);
        w.push(self.reopened);
        w.push(self.fault_losses);
        w.push(self.churn_blocked);
        w.push(self.churn_losses);
        w.push(self.churn_reopened);
        self.rejoin_slots.save_state(w);
        self.aoi.save_state(w);
    }

    /// Rebuilds metrics from checkpoint state written by
    /// [`Metrics::save_state`], under the restore target's own `cfg`.
    pub fn load_state(
        cfg: MeasureConfig,
        r: &mut tcw_sim::snap::SnapReader<'_>,
    ) -> Result<Self, tcw_sim::snap::SnapError> {
        Ok(Metrics {
            cfg,
            loss: RatioCounter::load_state(r)?,
            sender_lost: r.take()?,
            receiver_lost: r.take()?,
            blocked: r.take()?,
            true_delay: Tally::load_state(r)?,
            paper_delay: Tally::load_state(r)?,
            sched_slots: Tally::load_state(r)?,
            sched_time: Tally::load_state(r)?,
            paper_delay_hist: Histogram::load_state(r)?,
            true_delay_ticks: TickHistogram::load_state(Self::delay_reserve(&cfg), r)?,
            outstanding: r.take()?,
            corrupted_slots: r.take()?,
            erased_slots: r.take()?,
            resyncs: r.take()?,
            rounds_abandoned: r.take()?,
            reopened: r.take()?,
            fault_losses: r.take()?,
            churn_blocked: r.take()?,
            churn_losses: r.take()?,
            churn_reopened: r.take()?,
            rejoin_slots: Tally::load_state(r)?,
            aoi: AgeTracker::load_state(&cfg, r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MeasureConfig {
        MeasureConfig {
            start: Time::from_ticks(100),
            end: Time::from_ticks(1000),
            deadline: Dur::from_ticks(50),
        }
    }

    #[test]
    fn warmup_and_cooldown_not_counted() {
        let mut m = Metrics::new(cfg());
        m.on_offered(Time::from_ticks(10)); // warm-up
        m.on_offered(Time::from_ticks(1000)); // cool-down boundary
        m.on_offered(Time::from_ticks(500)); // counted
        assert_eq!(m.outstanding(), 1);
        m.on_transmit(Time::from_ticks(10), Dur::ZERO, Dur::ZERO);
        m.on_transmit(Time::from_ticks(500), Dur::ZERO, Dur::from_ticks(10));
        assert_eq!(m.offered(), 1);
        assert_eq!(m.outstanding(), 0);
        assert_eq!(m.loss_fraction(), 0.0);
    }

    #[test]
    fn late_delivery_is_receiver_loss() {
        let mut m = Metrics::new(cfg());
        m.on_offered(Time::from_ticks(200));
        m.on_transmit(
            Time::from_ticks(200),
            Dur::from_ticks(40),
            Dur::from_ticks(51),
        );
        assert_eq!(m.receiver_lost(), 1);
        assert_eq!(m.loss_fraction(), 1.0);
    }

    #[test]
    fn deadline_is_inclusive() {
        let mut m = Metrics::new(cfg());
        m.on_offered(Time::from_ticks(200));
        m.on_transmit(
            Time::from_ticks(200),
            Dur::from_ticks(50),
            Dur::from_ticks(50),
        );
        assert_eq!(m.receiver_lost(), 0);
        assert_eq!(m.loss_fraction(), 0.0);
    }

    #[test]
    fn sender_discard_counts_as_loss() {
        let mut m = Metrics::new(cfg());
        m.on_offered(Time::from_ticks(200));
        m.on_offered(Time::from_ticks(300));
        m.on_sender_discard(Time::from_ticks(200));
        m.on_transmit(Time::from_ticks(300), Dur::ZERO, Dur::from_ticks(5));
        assert_eq!(m.sender_lost(), 1);
        assert!((m.loss_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(m.outstanding(), 0);
    }

    fn aoi_cfg() -> MeasureConfig {
        MeasureConfig {
            start: Time::from_ticks(0),
            end: Time::from_ticks(100),
            deadline: Dur::from_ticks(10),
        }
    }

    #[test]
    fn aoi_sawtooth_integral_is_exact() {
        let mut a = AgeTracker::new(&aoi_cfg());
        assert!(a.mean_age().is_none());
        assert_eq!(a.stations_observed(), 0);
        // First delivery at t=10 of an arrival at t=0: observation starts,
        // age ramps from 10 upward anchored at u=0.
        a.on_delivery(StationId(0), Time::from_ticks(0), Time::from_ticks(10));
        // Second delivery at t=30 of an arrival at t=20: peak 30, then the
        // age drops to 10 and ramps to 80 at the window end.
        a.on_delivery(StationId(0), Time::from_ticks(20), Time::from_ticks(30));
        assert_eq!(a.deliveries(), 2);
        assert_eq!(a.stations_observed(), 1);
        // ∫age over [10,30) = (30²-10²)/2 = 400; over [30,100) anchored at
        // u=20: (80²-10²)/2 = 3150. Observed time = 90.
        let mean = a.mean_age().unwrap();
        assert!((mean - 3550.0 / 90.0).abs() < 1e-12, "{mean}");
        assert_eq!(a.peak_age().count(), 1);
        assert_eq!(a.peak_age().mean(), 30.0);
        // Age exceeds θ=10 on (10,30) and (30,100): 20 + 70 ticks of 90.
        let v = a.violation_fraction().unwrap();
        assert!((v - 1.0).abs() < 1e-12, "{v}");
    }

    #[test]
    fn aoi_warmup_delivery_seeds_the_process() {
        let cfg = MeasureConfig {
            start: Time::from_ticks(50),
            end: Time::from_ticks(100),
            deadline: Dur::from_ticks(10),
        };
        let mut a = AgeTracker::new(&cfg);
        // Delivered before the window: observation is clamped to start=50
        // with the age already ramping (u=20), not censored.
        a.on_delivery(StationId(3), Time::from_ticks(20), Time::from_ticks(40));
        assert_eq!(a.stations_observed(), 1);
        // Age over [50,100) anchored at u=20: from 30 to 80.
        let mean = a.mean_age().unwrap();
        assert!((mean - 55.0).abs() < 1e-12, "{mean}");
        // No peak samples: the only delivery predates the window.
        assert_eq!(a.peak_age().count(), 0);
    }

    #[test]
    fn aoi_post_window_delivery_changes_nothing() {
        let mut a = AgeTracker::new(&aoi_cfg());
        a.on_delivery(StationId(0), Time::from_ticks(0), Time::from_ticks(10));
        let before = a.mean_age().unwrap();
        // A cool-down delivery (at/after end) must not perturb the
        // observed interval, even with an arrival beyond the window.
        a.on_delivery(StationId(0), Time::from_ticks(105), Time::from_ticks(120));
        let after = a.mean_age().unwrap();
        assert_eq!(before.to_bits(), after.to_bits());
        assert_eq!(a.peak_age().count(), 0);
        // The anchor is clamped to `end`, so the final-age snapshot
        // stays well-defined (it would underflow with u=105 > end=100).
        let h = a.final_age_histogram();
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn aoi_violation_zero_when_always_fresh() {
        let cfg = MeasureConfig {
            start: Time::from_ticks(0),
            end: Time::from_ticks(20),
            deadline: Dur::from_ticks(100),
        };
        let mut a = AgeTracker::new(&cfg);
        a.on_delivery(StationId(1), Time::from_ticks(0), Time::from_ticks(5));
        assert_eq!(a.violation_fraction().unwrap(), 0.0);
        let h = a.final_age_histogram();
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn aoi_unbounded_window_ends_at_the_run() {
        let cfg = MeasureConfig {
            start: Time::ZERO,
            end: Time::MAX,
            deadline: Dur::from_ticks(50),
        };
        let mut a = AgeTracker::new(&cfg);
        a.on_delivery(StationId(0), Time::from_ticks(0), Time::from_ticks(10));
        a.on_delivery(StationId(1), Time::from_ticks(5), Time::from_ticks(20));
        a.on_delivery(StationId(0), Time::from_ticks(20), Time::from_ticks(30));
        a.end_run(Time::from_ticks(100));
        assert_eq!(a.stations_observed(), 2);
        // Station 0 over [10,30) anchored at 0 and [30,100) at 20:
        // (30²-10²)/2 + (80²-10²)/2 = 3550 over 90 ticks. Station 1 over
        // [20,100) anchored at 5: (95²-15²)/2 = 4400 over 80 ticks.
        let mean = a.mean_age().unwrap();
        assert!((mean - 7950.0 / 170.0).abs() < 1e-12, "{mean}");
        // Age above 50 on (70,100) at station 0 and (55,100) at station 1.
        let v = a.violation_fraction().unwrap();
        assert!((0.0..=1.0).contains(&v));
        assert!((v - 75.0 / 170.0).abs() < 1e-12, "{v}");
        assert_eq!(a.final_age_histogram().count(), 2);

        // A window that closes before the run keeps its tails.
        let mut bounded = AgeTracker::new(&aoi_cfg());
        bounded.on_delivery(StationId(0), Time::from_ticks(0), Time::from_ticks(10));
        let before = bounded.mean_age().unwrap();
        bounded.end_run(Time::from_ticks(500));
        assert_eq!(before.to_bits(), bounded.mean_age().unwrap().to_bits());
    }

    #[test]
    fn aoi_state_roundtrips_through_snapshot() {
        let mut a = AgeTracker::new(&aoi_cfg());
        a.on_delivery(StationId(0), Time::from_ticks(0), Time::from_ticks(10));
        a.on_delivery(StationId(2), Time::from_ticks(5), Time::from_ticks(12));
        a.on_delivery(StationId(0), Time::from_ticks(20), Time::from_ticks(30));
        let mut w = tcw_sim::snap::SnapWriter::new();
        a.save_state(&mut w);
        let words = w.into_words();
        let mut r = tcw_sim::snap::SnapReader::new(&words);
        let b = AgeTracker::load_state(&aoi_cfg(), &mut r).unwrap();
        assert_eq!(a.deliveries(), b.deliveries());
        assert_eq!(a.stations_observed(), b.stations_observed());
        assert_eq!(
            a.mean_age().unwrap().to_bits(),
            b.mean_age().unwrap().to_bits()
        );
        assert_eq!(
            a.violation_fraction().unwrap().to_bits(),
            b.violation_fraction().unwrap().to_bits()
        );
    }

    /// The exported p95/p99 of a small FCFS run, whose late deliveries
    /// pass the reserved `[0, 2K]`, equal the nearest rank over the true
    /// delays of its counted `on_transmit` calls.
    #[test]
    fn exported_quantiles_are_nearest_rank_over_counted_deliveries() {
        use crate::trace::EngineObserver;
        /// Counted true delays as an observer; exported gauges as a sink.
        struct Log(MeasureConfig, Vec<u64>, Vec<(String, f64)>);
        impl EngineObserver for Log {
            fn on_transmit(&mut self, msg: &tcw_mac::Message, _: Time, _: Dur, true_d: Dur) {
                if self.0.counts(msg.arrival) {
                    self.1.push(true_d.ticks());
                }
            }
        }
        impl MetricSink for Log {
            fn counter(&mut self, _: &str, _: &str, _: u64) {}
            fn gauge(&mut self, name: &str, _: &str, value: f64) {
                self.2.push((name.to_string(), value));
            }
        }

        let channel = tcw_mac::ChannelConfig {
            ticks_per_tau: 4,
            message_slots: 5,
            guard: false,
        };
        let measure = MeasureConfig {
            end: Time::from_ticks(30_000),
            ..cfg()
        };
        let fcfs = crate::policy::ControlPolicy::fcfs(Dur::from_ticks(12));
        let mut eng = crate::engine::poisson_engine(channel, fcfs, measure, 0.7, 20, 3);
        let mut log = Log(measure, Vec::new(), Vec::new());
        eng.run_until(Time::from_ticks(32_000), &mut log);
        eng.drain(&mut log);
        eng.metrics.emit(&mut log);
        let mut delays = log.1;
        delays.sort_unstable();
        assert!(delays.len() > 900 && delays[delays.len() - 1] > 2 * measure.deadline.ticks());
        for (p, name) in [(95, "p95"), (99, "p99")] {
            let exact = delays[(p * delays.len()).div_ceil(100) - 1] as f64;
            let name = format!("tcw_engine_true_delay_{name}_ticks");
            assert!(
                log.2.contains(&(name, exact)),
                "{p}: {exact} not in {:?}",
                log.2
            );
        }
    }

    #[test]
    fn delays_recorded_only_for_counted() {
        let mut m = Metrics::new(cfg());
        m.on_offered(Time::from_ticks(50));
        m.on_transmit(Time::from_ticks(50), Dur::from_ticks(1), Dur::from_ticks(2));
        assert_eq!(m.true_delay().count(), 0);
        m.on_offered(Time::from_ticks(150));
        m.on_transmit(
            Time::from_ticks(150),
            Dur::from_ticks(3),
            Dur::from_ticks(4),
        );
        assert_eq!(m.true_delay().count(), 1);
        assert_eq!(m.true_delay().mean(), 4.0);
        assert_eq!(m.paper_delay().mean(), 3.0);
    }
}
