//! Per-layer attribution of engine time from outside the engine.
//!
//! [`LayerProbe`] wraps an observer and reads the clock at every engine
//! callback. The engine time since the previous callback is charged to the
//! layer whose work ends in this callback; the time spent inside the
//! wrapped observer is charged to observer dispatch. Attribution is by
//! boundary, so it is approximate: work that produces no callback is
//! charged to the next layer that does.

use std::time::Instant;
use tcw_mac::{ChurnEvent, Message, SlotOutcome};
use tcw_sim::rng::Rng;
use tcw_sim::time::{Dur, Time};
use tcw_window::interval::Interval;
use tcw_window::timeline::Timeline;
use tcw_window::trace::{DropCause, EngineObserver};

/// Engine layers, named after the callback that closes their work.
#[derive(Clone, Copy, Debug)]
pub enum Layer {
    /// Arrival admission into the pending book (`on_arrival`).
    Ingest,
    /// Decision point: timeline and pseudo-time map, window controller,
    /// window membership, reopen and churn membership passes.
    Decision,
    /// Medium probe and feedback handling, including fault recovery.
    Probe,
    /// Delivery and discard bookkeeping: loss, delay and age metrics.
    Delivery,
    /// Event-horizon fast path: idle-run jumps and batched resolution.
    FastPath,
}

pub const LAYERS: usize = 5;
/// Metric names of the layers, in [`Layer`] order.
pub const LAYER_METRICS: [&str; LAYERS] = [
    "ingest_ns",
    "decision_ns",
    "probe_ns",
    "delivery_ns",
    "fastpath_ns",
];

pub struct LayerProbe<O: EngineObserver> {
    inner: O,
    last: Instant,
    entered: Instant,
    /// Engine nanoseconds charged to each [`Layer`].
    layer_ns: [u64; LAYERS],
    /// Nanoseconds spent inside the wrapped observer.
    observer_ns: u64,
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

impl<O: EngineObserver> LayerProbe<O> {
    /// Starts the clock: create the probe right before the engine runs.
    pub fn new(inner: O) -> Self {
        let now = Instant::now();
        LayerProbe {
            inner,
            last: now,
            entered: now,
            layer_ns: [0; LAYERS],
            observer_ns: 0,
        }
    }

    /// Charges the time since the last callback (the end of the final
    /// drain) to the decision layer and returns the wrapped observer.
    pub fn stop(mut self) -> (O, [u64; LAYERS], u64) {
        self.layer_ns[Layer::Decision as usize] += nanos(self.last, Instant::now());
        (self.inner, self.layer_ns, self.observer_ns)
    }

    fn enter(&mut self, layer: Layer) {
        let now = Instant::now();
        self.layer_ns[layer as usize] += nanos(self.last, now);
        self.entered = now;
    }

    fn exit(&mut self) {
        let now = Instant::now();
        self.observer_ns += nanos(self.entered, now);
        self.last = now;
    }
}

macro_rules! charge {
    ($($name:ident($($arg:ident: $ty:ty),*) => $layer:ident;)*) => {
        $(
            fn $name(&mut self, $($arg: $ty),*) {
                self.enter(Layer::$layer);
                self.inner.$name($($arg),*);
                self.exit();
            }
        )*
    };
}

impl<O: EngineObserver> EngineObserver for LayerProbe<O> {
    fn slow_path(&self) -> bool {
        self.inner.slow_path()
    }

    charge! {
        on_arrival(msg: &Message, now: Time) => Ingest;
        on_beacon(now: Time, timeline: &Timeline, rng: &Rng) => Decision;
        on_decision(now: Time, segments: Option<&[Interval]>) => Decision;
        on_window_member(msg: &Message, now: Time) => Decision;
        on_reopen(iv: Interval) => Decision;
        on_churn_event(now: Time, ev: &ChurnEvent) => Decision;
        on_probe(start: Time, segments: &[Interval], outcome: &SlotOutcome, dur: Dur) => Probe;
        on_immediate_split(now: Time, segments: &[Interval]) => Probe;
        on_collision_member(msg: &Message, now: Time) => Probe;
        on_corrupted_slot(now: Time, dur: Dur) => Probe;
        on_backoff(now: Time, dur: Dur) => Probe;
        on_round_abandoned(now: Time) => Probe;
        on_transmit(msg: &Message, start: Time, paper_delay: Dur, true_delay: Dur) => Delivery;
        on_sender_discard(msg: &Message, now: Time) => Delivery;
        on_message_drop(msg: &Message, now: Time, cause: DropCause) => Delivery;
        on_idle_jump(from: Time, to: Time, slots: u64) => FastPath;
        on_batched_run(from: Time, to: Time, slots: u64) => FastPath;
    }
}
