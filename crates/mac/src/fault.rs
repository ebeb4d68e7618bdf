//! Deterministic fault injection for the broadcast channel.
//!
//! The paper assumes perfect ternary feedback: one propagation delay after
//! a protocol step, every station correctly learns whether the slot was
//! idle, a success, or a collision. [`FaultyMedium`] wraps [`Medium`] and
//! breaks that assumption in controlled, reproducible ways:
//!
//! * **misdetection** — the slot outcome all stations observe differs from
//!   what physically happened (`success→collision`, `collision→success`,
//!   `collision→idle`, `idle→collision`);
//! * **erasure** — the feedback for a slot is lost entirely; every station
//!   knows it learned nothing (a detectable fault);
//! * **deafness** — one station misses feedback the others receive
//!   (modelled by the per-station divergence detector in `tcw-window`,
//!   not by the shared medium, since deafness is private to a station).
//!
//! All injection is driven by a dedicated tagged RNG stream passed in by
//! the caller, so fault sequences are reproducible from the run seed and
//! independent of every other random stream in the simulation. With
//! [`FaultPlan::none`] the wrapper draws **nothing** from that stream and
//! behaves bit-identically to the bare [`Medium`].
//!
//! ## Semantics
//!
//! The *observed* outcome — not the physical one — drives both the channel
//! time a slot consumes and whether a message is delivered:
//!
//! * a success misread as a collision aborts the transmission after `tau`
//!   (the transmitter reacts to the collision signal); the message stays
//!   pending;
//! * a collision misread as a success makes every station wait out a full
//!   message time while nothing is delivered — the colliding messages are
//!   stranded in examined time until the protocol reopens their intervals;
//! * a collision misread as idle is detectable (the transmitters know they
//!   transmitted) and triggers the engine's re-probe/backoff path;
//! * an erased slot costs `tau` and destroys any transmission in it.

use crate::channel::{Medium, SlotOutcome};
use crate::message::MessageId;
use tcw_sim::rng::Rng;
use tcw_sim::time::Dur;

/// Per-slot fault probabilities. All values are clamped to `[0, 1]` at
/// injection time; the classes applicable to one physical outcome must sum
/// to at most 1 (checked by [`FaultPlan::validate`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// P(a physical success is observed as a collision).
    pub success_to_collision: f64,
    /// P(a physical collision is observed as a success).
    pub collision_to_success: f64,
    /// P(a physical collision is observed as idle).
    pub collision_to_idle: f64,
    /// P(a physical idle slot is observed as a collision).
    pub idle_to_collision: f64,
    /// P(the feedback for a slot is erased for every station).
    pub erasure: f64,
    /// P(per probe slot) that an individual listening station goes deaf.
    /// Consumed by the per-station divergence detector, not the medium.
    pub deafness: f64,
    /// How many consecutive probe slots a deafness episode lasts.
    pub deaf_slots: u64,
}

impl FaultPlan {
    /// The fault-free plan: the wrapper is a transparent pass-through and
    /// draws nothing from its RNG stream.
    pub fn none() -> Self {
        FaultPlan {
            success_to_collision: 0.0,
            collision_to_success: 0.0,
            collision_to_idle: 0.0,
            idle_to_collision: 0.0,
            erasure: 0.0,
            deafness: 0.0,
            deaf_slots: 0,
        }
    }

    /// A plan with every shared-feedback fault class at probability `p`
    /// and no station deafness.
    pub fn uniform(p: f64) -> Self {
        FaultPlan {
            success_to_collision: p,
            collision_to_success: p,
            collision_to_idle: p,
            idle_to_collision: p,
            erasure: p,
            deafness: 0.0,
            deaf_slots: 0,
        }
    }

    /// Whether this plan injects no shared-feedback faults at all
    /// (deafness is per-station and does not touch the shared medium).
    pub fn is_none(&self) -> bool {
        self.success_to_collision == 0.0
            && self.collision_to_success == 0.0
            && self.collision_to_idle == 0.0
            && self.idle_to_collision == 0.0
            && self.erasure == 0.0
    }

    /// Non-panicking validation: each probability must lie in `[0, 1]` and
    /// each physical outcome's fault classes must sum to at most 1. Used
    /// when parsing replay artifacts so a corrupted file degrades to an
    /// error instead of aborting.
    pub fn check(&self) -> Result<(), String> {
        let probs = [
            ("success_to_collision", self.success_to_collision),
            ("collision_to_success", self.collision_to_success),
            ("collision_to_idle", self.collision_to_idle),
            ("idle_to_collision", self.idle_to_collision),
            ("erasure", self.erasure),
            ("deafness", self.deafness),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} outside [0, 1]"));
            }
        }
        if self.erasure + self.collision_to_success + self.collision_to_idle > 1.0 {
            return Err("collision fault classes sum past 1".to_string());
        }
        if self.erasure + self.success_to_collision > 1.0 {
            return Err("success fault classes sum past 1".to_string());
        }
        if self.erasure + self.idle_to_collision > 1.0 {
            return Err("idle fault classes sum past 1".to_string());
        }
        Ok(())
    }

    /// Checks that each physical outcome's fault classes sum to at most 1.
    ///
    /// # Panics
    /// Panics with a description of the offending class on violation.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid fault plan: {e}");
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Which fault was injected into a slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A physical success was observed as a collision.
    SuccessToCollision,
    /// A physical collision was observed as a success.
    CollisionToSuccess,
    /// A physical collision was observed as idle.
    CollisionToIdle,
    /// A physical idle slot was observed as a collision.
    IdleToCollision,
    /// The slot's feedback was erased for every station.
    Erasure,
}

/// What the stations learn about a slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Feedback {
    /// All stations observe this outcome (possibly a misdetection).
    Observed(SlotOutcome),
    /// All stations know the slot's feedback was lost.
    Erased,
}

/// The full result of one probe through a (possibly faulty) medium.
#[derive(Clone, Copy, Debug)]
pub struct ProbeReport {
    /// What physically happened on the channel.
    pub actual: SlotOutcome,
    /// What the stations observe (drives protocol behaviour and slot
    /// duration).
    pub observed: Feedback,
    /// Channel time the slot consumes, derived from the observed outcome.
    pub dur: Dur,
    /// The injected fault, if any.
    pub fault: Option<FaultKind>,
}

impl ProbeReport {
    /// The delivered message: `Some` only when the slot was physically a
    /// success *and* observed as one.
    pub fn delivered(&self) -> Option<MessageId> {
        match (self.actual, self.observed) {
            (SlotOutcome::Success(id), Feedback::Observed(SlotOutcome::Success(_))) => Some(id),
            _ => None,
        }
    }
}

/// A [`Medium`] wrapper that injects feedback faults per [`FaultPlan`].
#[derive(Clone, Debug)]
pub struct FaultyMedium {
    inner: Medium,
    plan: FaultPlan,
    rng: Rng,
}

impl FaultyMedium {
    /// Wraps `inner` with the given plan. `rng` must be a dedicated
    /// substream (the engine forks it as `"faults"` from the master seed)
    /// so injection is reproducible and independent of all other streams.
    pub fn new(inner: Medium, plan: FaultPlan, rng: Rng) -> Self {
        plan.validate();
        FaultyMedium { inner, plan, rng }
    }

    /// The underlying channel configuration.
    pub fn config(&self) -> &crate::channel::ChannelConfig {
        self.inner.config()
    }

    /// The active fault plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Replaces the fault plan (validated).
    pub fn set_plan(&mut self, plan: FaultPlan) {
        plan.validate();
        self.plan = plan;
    }

    /// Channel time a slot consumes given what the stations observe.
    fn dur_of(&self, observed: &Feedback) -> Dur {
        let cfg = self.inner.config();
        match observed {
            Feedback::Observed(SlotOutcome::Success(_)) => cfg.success_duration(),
            // Idle, collision and erased slots all cost one tau: an erased
            // or collided transmission is aborted at collision-detect time.
            _ => cfg.tau(),
        }
    }

    /// Resolves one protocol step, possibly corrupting the feedback.
    ///
    /// With [`FaultPlan::none`] this is a transparent pass-through that
    /// draws nothing from the RNG stream.
    pub fn probe(&mut self, transmitters: &[MessageId]) -> ProbeReport {
        let (actual, clean_dur) = self.inner.probe(transmitters);
        if self.plan.is_none() {
            return ProbeReport {
                actual,
                observed: Feedback::Observed(actual),
                dur: clean_dur,
                fault: None,
            };
        }
        // One uniform draw per probe decides the fault class via cumulative
        // thresholds over the classes applicable to the physical outcome.
        let u = self.rng.f64();
        let (observed, fault) = match actual {
            SlotOutcome::Idle => {
                if u < self.plan.erasure {
                    (Feedback::Erased, Some(FaultKind::Erasure))
                } else if u < self.plan.erasure + self.plan.idle_to_collision {
                    // Phantom collision: stations only learn "collision";
                    // the count 0 marks the phantom for diagnostics.
                    (
                        Feedback::Observed(SlotOutcome::Collision(0)),
                        Some(FaultKind::IdleToCollision),
                    )
                } else {
                    (Feedback::Observed(actual), None)
                }
            }
            SlotOutcome::Success(_) => {
                if u < self.plan.erasure {
                    (Feedback::Erased, Some(FaultKind::Erasure))
                } else if u < self.plan.erasure + self.plan.success_to_collision {
                    (
                        Feedback::Observed(SlotOutcome::Collision(1)),
                        Some(FaultKind::SuccessToCollision),
                    )
                } else {
                    (Feedback::Observed(actual), None)
                }
            }
            SlotOutcome::Collision(n) => {
                if u < self.plan.erasure {
                    (Feedback::Erased, Some(FaultKind::Erasure))
                } else if u < self.plan.erasure + self.plan.collision_to_idle {
                    (
                        Feedback::Observed(SlotOutcome::Idle),
                        Some(FaultKind::CollisionToIdle),
                    )
                } else if u < self.plan.erasure
                    + self.plan.collision_to_idle
                    + self.plan.collision_to_success
                {
                    (
                        Feedback::Observed(SlotOutcome::Success(transmitters[0])),
                        Some(FaultKind::CollisionToSuccess),
                    )
                } else {
                    (Feedback::Observed(SlotOutcome::Collision(n)), None)
                }
            }
        };
        let dur = self.dur_of(&observed);
        ProbeReport {
            actual,
            observed,
            dur,
            fault,
        }
    }
}

impl FaultyMedium {
    /// Serializes the medium's mutable state (plan + injection RNG) for an
    /// engine checkpoint. The wrapped channel config is *not* captured: a
    /// restore target must be built over the same configuration.
    pub fn save_state(&self, w: &mut tcw_sim::snap::SnapWriter) {
        w.push_f64(self.plan.success_to_collision);
        w.push_f64(self.plan.collision_to_success);
        w.push_f64(self.plan.collision_to_idle);
        w.push_f64(self.plan.idle_to_collision);
        w.push_f64(self.plan.erasure);
        w.push_f64(self.plan.deafness);
        w.push(self.plan.deaf_slots);
        for s in self.rng.state() {
            w.push(s);
        }
    }

    /// Restores plan + RNG state written by [`FaultyMedium::save_state`].
    pub fn load_state(
        &mut self,
        r: &mut tcw_sim::snap::SnapReader<'_>,
    ) -> Result<(), tcw_sim::snap::SnapError> {
        let plan = FaultPlan {
            success_to_collision: r.take_f64()?,
            collision_to_success: r.take_f64()?,
            collision_to_idle: r.take_f64()?,
            idle_to_collision: r.take_f64()?,
            erasure: r.take_f64()?,
            deafness: r.take_f64()?,
            deaf_slots: r.take()?,
        };
        plan.check().map_err(tcw_sim::snap::SnapError::new)?;
        let mut s = [0u64; 4];
        for x in s.iter_mut() {
            *x = r.take()?;
        }
        self.plan = plan;
        self.rng = Rng::from_state(s);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelConfig;

    fn cfg() -> ChannelConfig {
        ChannelConfig {
            ticks_per_tau: 10,
            message_slots: 25,
            guard: false,
        }
    }

    #[test]
    fn none_plan_matches_bare_medium_and_draws_nothing() {
        let medium = Medium::new(cfg());
        let mut faulty = FaultyMedium::new(medium, FaultPlan::none(), Rng::new(7));
        let mut witness = Rng::new(7);
        let cases: [&[MessageId]; 3] = [
            &[],
            &[MessageId(1)],
            &[MessageId(1), MessageId(2), MessageId(3)],
        ];
        for ids in cases {
            let (actual, dur) = medium.probe(ids);
            let report = faulty.probe(ids);
            assert_eq!(report.actual, actual);
            assert_eq!(report.observed, Feedback::Observed(actual));
            assert_eq!(report.dur, dur);
            assert_eq!(report.fault, None);
        }
        // The RNG stream was never touched.
        assert_eq!(faulty.rng.next_u64(), witness.next_u64());
    }

    #[test]
    fn injection_is_deterministic() {
        let mk = || FaultyMedium::new(Medium::new(cfg()), FaultPlan::uniform(0.3), Rng::new(11));
        let mut a = mk();
        let mut b = mk();
        for i in 0..500u64 {
            let ids: Vec<MessageId> = (0..(i % 4)).map(MessageId).collect();
            let ra = a.probe(&ids);
            let rb = b.probe(&ids);
            assert_eq!(ra.observed, rb.observed);
            assert_eq!(ra.fault, rb.fault);
            assert_eq!(ra.dur, rb.dur);
        }
    }

    #[test]
    fn all_fault_classes_occur() {
        let mut m = FaultyMedium::new(Medium::new(cfg()), FaultPlan::uniform(0.2), Rng::new(3));
        let mut seen = std::collections::HashSet::new();
        for i in 0..2_000u64 {
            let ids: Vec<MessageId> = (0..(i % 3)).map(MessageId).collect();
            if let Some(f) = m.probe(&ids).fault {
                seen.insert(format!("{f:?}"));
            }
        }
        for kind in [
            "SuccessToCollision",
            "CollisionToIdle",
            "CollisionToSuccess",
            "IdleToCollision",
            "Erasure",
        ] {
            assert!(seen.contains(kind), "never saw {kind}: {seen:?}");
        }
    }

    #[test]
    fn observed_outcome_drives_duration_and_delivery() {
        // collision_to_success = 1: every collision is observed as a full
        // message slot but delivers nothing.
        let plan = FaultPlan {
            collision_to_success: 1.0,
            ..FaultPlan::none()
        };
        let mut m = FaultyMedium::new(Medium::new(cfg()), plan, Rng::new(5));
        let r = m.probe(&[MessageId(1), MessageId(2)]);
        assert_eq!(r.fault, Some(FaultKind::CollisionToSuccess));
        assert_eq!(r.dur, Dur::from_ticks(250));
        assert_eq!(r.delivered(), None);

        // success_to_collision = 1: the transmission aborts after tau.
        let plan = FaultPlan {
            success_to_collision: 1.0,
            ..FaultPlan::none()
        };
        let mut m = FaultyMedium::new(Medium::new(cfg()), plan, Rng::new(5));
        let r = m.probe(&[MessageId(1)]);
        assert_eq!(r.fault, Some(FaultKind::SuccessToCollision));
        assert_eq!(r.dur, Dur::from_ticks(10));
        assert_eq!(r.delivered(), None);

        // erasure = 1: every slot costs tau and delivers nothing.
        let plan = FaultPlan {
            erasure: 1.0,
            ..FaultPlan::none()
        };
        let mut m = FaultyMedium::new(Medium::new(cfg()), plan, Rng::new(5));
        let r = m.probe(&[MessageId(1)]);
        assert_eq!(r.observed, Feedback::Erased);
        assert_eq!(r.dur, Dur::from_ticks(10));
        assert_eq!(r.delivered(), None);
    }

    #[test]
    fn clean_success_delivers() {
        let mut m = FaultyMedium::new(Medium::new(cfg()), FaultPlan::none(), Rng::new(1));
        assert_eq!(m.probe(&[MessageId(9)]).delivered(), Some(MessageId(9)));
    }

    #[test]
    #[should_panic]
    fn oversubscribed_plan_is_rejected() {
        let plan = FaultPlan {
            erasure: 0.7,
            collision_to_idle: 0.4,
            ..FaultPlan::none()
        };
        FaultyMedium::new(Medium::new(cfg()), plan, Rng::new(1));
    }
}
