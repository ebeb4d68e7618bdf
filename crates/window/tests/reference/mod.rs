//! A naive reference implementation of the time-window protocol, the
//! independent oracle of `differential.rs`.
//!
//! It follows paper §2 as directly as possible and shares none of
//! `Engine`'s state machinery. Pending messages are an explicit list,
//! window members are found by scanning that list, and the unexamined
//! part of the time axis is a sorted `Vec` of `[lo, hi)` tick intervals.
//! A pseudo-time window is mapped to actual time by walking those
//! intervals as they stood at the decision point. What it does share are
//! the protocol's inputs: the `Rng` streams (forked in the engine's
//! documented order), the arrival source, the channel geometry, the
//! policy's window choice and split, and the window-length controller,
//! which it feeds one slot at a time.
//!
//! Scope: a fault-free medium, a static population, unbounded station
//! buffers.

use tcw_mac::{Arrival, ArrivalSource, ChannelConfig, Message, MessageId, SlotOutcome};
use tcw_sim::rng::Rng;
use tcw_sim::time::{Dur, Time};
use tcw_window::policy::ControlPolicy;
use tcw_window::pseudo::PseudoInterval;
use tcw_window::{SlotContext, WindowController};

/// A half-open tick interval `[lo, hi)`.
pub type Span = (u64, u64);

/// One protocol event, in the form both engines report it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A decision point at `t`: the policy stream's state before the
    /// window choice, and the initial window's segments (`None` when no
    /// unexamined time exists).
    Decision {
        t: u64,
        rng: [u64; 4],
        window: Option<Vec<Span>>,
    },
    /// A probe slot starting at `t` over `window` (empty for the
    /// zero-backlog idle slot and for coin rounds).
    Probe {
        t: u64,
        window: Vec<Span>,
        outcome: SlotOutcome,
        dur: u64,
    },
    /// A delivered message: its transmission start, paper delay (from the
    /// start of its windowing round) and true delay.
    Delivery {
        id: u64,
        start: u64,
        paper: u64,
        true_delay: u64,
    },
    /// A sender discard (policy element 4) at decision point `t`.
    Discard { id: u64, t: u64 },
}

/// The reference protocol state.
pub struct RefEngine<S> {
    channel: ChannelConfig,
    policy: ControlPolicy,
    controller: Box<dyn WindowController>,
    source: S,
    rng_policy: Rng,
    rng_coins: Rng,
    rng_source: Rng,
    /// The next arrival the source produced that is not yet admitted.
    next: Option<Arrival>,
    /// Arrivals after this tick are dropped (set by `drain`).
    cutoff: u64,
    now: u64,
    /// Unexamined time within `[0, now)`: sorted, disjoint, coalesced.
    unexamined: Vec<Span>,
    /// Admitted, unresolved messages, ordered by (arrival, id).
    pending: Vec<Message>,
    next_id: u64,
    /// Everything that happened, in order.
    pub events: Vec<Event>,
}

impl<S: ArrivalSource> RefEngine<S> {
    pub fn new(
        channel: ChannelConfig,
        policy: ControlPolicy,
        controller: Box<dyn WindowController>,
        seed: u64,
        mut source: S,
    ) -> Self {
        let mut master = Rng::new(seed);
        let rng_policy = master.fork("policy");
        let rng_coins = master.fork("coins");
        let mut rng_source = master.fork("source");
        let next = source.next_arrival(&mut rng_source);
        RefEngine {
            channel,
            policy,
            controller,
            source,
            rng_policy,
            rng_coins,
            rng_source,
            next,
            cutoff: u64::MAX,
            now: 0,
            unexamined: Vec::new(),
            pending: Vec::new(),
            next_id: 0,
            events: Vec::new(),
        }
    }

    /// Runs decision cycles until the clock reaches `horizon`.
    pub fn run_until(&mut self, horizon: u64) {
        while self.now < horizon {
            self.cycle();
        }
    }

    /// Admits nothing that arrives after now, then runs until every
    /// admitted message is delivered or discarded.
    pub fn drain(&mut self) {
        self.cutoff = self.now;
        self.admit();
        while !self.pending.is_empty() {
            self.cycle();
        }
    }

    /// Admits every arrival up to now (arrivals past the cutoff are
    /// consumed and dropped).
    fn admit(&mut self) {
        while let Some(a) = self.next.filter(|a| a.time.ticks() <= self.now) {
            if a.time.ticks() <= self.cutoff {
                let m = Message::new(MessageId(self.next_id), a.station, a.time);
                self.next_id += 1;
                let at = self
                    .pending
                    .iter()
                    .position(|p| (p.arrival, p.id) > (m.arrival, m.id))
                    .unwrap_or(self.pending.len());
                self.pending.insert(at, m);
            }
            self.next = self.source.next_arrival(&mut self.rng_source);
        }
    }

    /// One decision point and the round (or idle slot) it starts.
    fn cycle(&mut self) {
        self.admit();
        self.discard();
        let rng = self.rng_policy.state();
        let backlog = Dur::from_ticks(self.unexamined.iter().map(|(lo, hi)| hi - lo).sum());
        let length = self
            .controller
            .next_length(Time::from_ticks(self.now), backlog, &self.policy);
        let choice = self
            .policy
            .choose_window_with_length(backlog, length, &mut self.rng_policy);
        let t = self.now;
        match choice {
            None => {
                self.events.push(Event::Decision {
                    t,
                    rng,
                    window: None,
                });
                self.slot(Vec::new(), &[], SlotContext::IdleDecision);
            }
            Some(initial) => {
                // The pseudo axis stays as it was at the decision point
                // for the whole round.
                let frozen = self.unexamined.clone();
                self.events.push(Event::Decision {
                    t,
                    rng,
                    window: Some(segments(&frozen, initial)),
                });
                self.round(initial, &frozen);
            }
        }
    }

    /// Policy element (4): drops every message older than `K` and
    /// examines everything before the cutoff.
    fn discard(&mut self) {
        let Some(k) = self.policy.discard_after else {
            return;
        };
        let cutoff = self.now.saturating_sub(k.ticks());
        let t = self.now;
        let events = &mut self.events;
        self.pending.retain(|m| {
            let keep = m.arrival.ticks() >= cutoff;
            if !keep {
                events.push(Event::Discard { id: m.id.0, t });
            }
            keep
        });
        self.examine((0, cutoff));
    }

    /// One windowing round (paper §2): probe, split on collision, split a
    /// sibling known to hold two or more arrivals without probing it, and
    /// resolve a one-tick collision by fair coins.
    fn round(&mut self, initial: PseudoInterval, frozen: &[Span]) {
        let round_start = self.now;
        let mut ctx = SlotContext::Initial {
            width: initial.width(),
        };
        let mut current = initial;
        // `Some(s)`: current ∪ s holds two or more arrivals.
        let mut sibling = None;
        loop {
            let window = segments(frozen, current);
            let txs: Vec<Message> = self
                .pending
                .iter()
                .filter(|m| {
                    let t = m.arrival.ticks();
                    window.iter().any(|&(lo, hi)| lo <= t && t < hi)
                })
                .copied()
                .collect();
            let start = self.now;
            let outcome = self.slot(window.clone(), &txs, ctx);
            ctx = SlotContext::Resolution;
            match outcome {
                SlotOutcome::Success(_) => {
                    self.deliver(txs[0], start, round_start);
                    window.into_iter().for_each(|s| self.examine(s));
                    return;
                }
                SlotOutcome::Idle => {
                    window.into_iter().for_each(|s| self.examine(s));
                    let Some(sib) = sibling.take() else {
                        return;
                    };
                    match self.policy.split_window(sib, &mut self.rng_policy) {
                        Some((first, second)) => {
                            current = first;
                            sibling = Some(second);
                        }
                        None => current = sib,
                    }
                }
                SlotOutcome::Collision(_) => {
                    match self.policy.split_window(current, &mut self.rng_policy) {
                        Some((first, second)) => {
                            current = first;
                            sibling = Some(second);
                        }
                        None => return self.coin_rounds(txs, round_start),
                    }
                }
            }
        }
    }

    /// Sub-tick resolution of a one-tick collision: each member of the
    /// active set flips a fair coin, in arrival order; the heads probe.
    /// An idle probe keeps the set, a collision narrows it to the heads.
    /// The tick stays unexamined.
    fn coin_rounds(&mut self, mut active: Vec<Message>, round_start: u64) {
        loop {
            let heads: Vec<Message> = active
                .iter()
                .copied()
                .filter(|_| self.rng_coins.chance(0.5))
                .collect();
            let start = self.now;
            match self.slot(Vec::new(), &heads, SlotContext::Resolution) {
                SlotOutcome::Success(_) => return self.deliver(heads[0], start, round_start),
                SlotOutcome::Idle => {}
                SlotOutcome::Collision(_) => active = heads,
            }
        }
    }

    /// One probe slot by `txs`: logs it, feeds the controller and moves
    /// the clock.
    fn slot(&mut self, window: Vec<Span>, txs: &[Message], ctx: SlotContext) -> SlotOutcome {
        let (outcome, dur) = match txs {
            [] => (SlotOutcome::Idle, self.channel.tau()),
            [m] => (SlotOutcome::Success(m.id), self.channel.success_duration()),
            _ => (SlotOutcome::Collision(txs.len() as u32), self.channel.tau()),
        };
        self.events.push(Event::Probe {
            t: self.now,
            window,
            outcome,
            dur: dur.ticks(),
        });
        self.controller.on_slot(ctx, &outcome);
        let from = self.now;
        self.now += dur.ticks();
        // The elapsed slot is fresh, unexamined time.
        match self.unexamined.last_mut() {
            Some(last) if last.1 == from => last.1 = self.now,
            _ => self.unexamined.push((from, self.now)),
        }
        outcome
    }

    fn deliver(&mut self, m: Message, start: u64, round_start: u64) {
        self.pending.retain(|p| p.id != m.id);
        let arrival = m.arrival.ticks();
        self.events.push(Event::Delivery {
            id: m.id.0,
            start,
            paper: round_start - arrival,
            true_delay: start - arrival,
        });
    }

    /// Removes `[lo, hi)` from the unexamined set.
    fn examine(&mut self, (lo, hi): Span) {
        if lo >= hi {
            return;
        }
        let mut rest = Vec::new();
        for &(a, b) in &self.unexamined {
            if a < lo.min(b) {
                rest.push((a, lo.min(b)));
            }
            if hi.max(a) < b {
                rest.push((hi.max(a), b));
            }
        }
        self.unexamined = rest;
    }
}

/// The actual-time segments of pseudo window `w` over the unexamined
/// intervals `gaps`: pseudo time counts unexamined ticks from the oldest.
pub fn segments(gaps: &[Span], w: PseudoInterval) -> Vec<Span> {
    let mut out = Vec::new();
    let mut offset = 0;
    for &(a, b) in gaps {
        let end = offset + (b - a);
        let (lo, hi) = (w.lo.max(offset), w.hi.min(end));
        if lo < hi {
            out.push((a + lo - offset, a + hi - offset));
        }
        offset = end;
    }
    out
}
