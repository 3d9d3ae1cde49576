//! Fault plans: the declarative description of how a network misbehaves.
//!
//! A [`FaultPlan`] is a seeded, deterministic recipe layered between a
//! node's [`Outbox`](crate::Outbox) and delivery by the
//! [`EventSim`](crate::EventSim). It models the
//! failure regimes the paper motivates but the reliable
//! [`Simulator`](crate::Simulator) cannot express:
//!
//! * **per-link packet loss** — a global loss probability plus per-link
//!   overrides (e.g. one flaky robot pair);
//! * **per-link delay** — messages arrive `k` rounds late, so messages
//!   from different senders (or successive messages on one link) are
//!   reordered relative to the synchronous schedule;
//! * **duplication** — a delivery is occasionally cloned, as retransmit
//!   layers in real radios produce;
//! * **churn** — scheduled robot crashes and recoveries that mute a
//!   robot entirely, mutating the effective topology.
//!
//! Determinism guarantee: the same plan (including `seed`) over the same
//! protocol and topology produces a bit-identical trace — same drops,
//! same delays, same duplicates, same final node states. All
//! randomness is drawn from one splitmix64 stream in a fixed order.

use crate::SimError;

/// How much extra in-flight time a delivery suffers, in rounds.
///
/// `None` keeps the synchronous schedule (arrive next round);
/// `Fixed(k)` adds `k` rounds to every delivery; `Uniform { min, max }`
/// adds an independent uniform draw from `[min, max]` per delivery,
/// which also *reorders* messages (a later send can overtake an earlier
/// one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelayModel {
    /// No extra delay: synchronous next-round delivery.
    #[default]
    None,
    /// Every delivery is late by exactly this many rounds.
    Fixed(usize),
    /// Each delivery is late by an independent uniform draw from
    /// `[min, max]` rounds.
    Uniform {
        /// Minimum extra rounds (inclusive).
        min: usize,
        /// Maximum extra rounds (inclusive).
        max: usize,
    },
}

impl DelayModel {
    /// Is this the zero-delay model (for any draw)?
    pub fn is_none(&self) -> bool {
        matches!(
            self,
            DelayModel::None | DelayModel::Fixed(0) | DelayModel::Uniform { min: 0, max: 0 }
        )
    }

    /// Largest delay this model can produce.
    pub fn max_delay(&self) -> usize {
        match *self {
            DelayModel::None => 0,
            DelayModel::Fixed(k) => k,
            DelayModel::Uniform { max, .. } => max,
        }
    }
}

/// What happens to a robot at a scheduled churn instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// The robot stops: it no longer receives, computes, or sends, and
    /// deliveries addressed to it are dropped.
    Crash,
    /// The robot resumes with the protocol state it crashed with.
    Recover,
}

/// One scheduled crash or recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Round at whose *beginning* the event takes effect. Round 0 means
    /// "before the protocol starts" — a robot crashed at round 0 never
    /// runs `on_start`.
    pub round: usize,
    /// The affected robot (simulator index).
    pub robot: usize,
    /// Crash or recovery.
    pub kind: ChurnKind,
}

/// Seeded, deterministic description of network misbehavior.
///
/// Build one with [`FaultPlan::reliable`] and layer knobs on with the
/// `with_*` methods:
///
/// ```
/// use anr_distsim::{DelayModel, FaultPlan};
///
/// let plan = FaultPlan::reliable(42)
///     .with_loss(0.2)
///     .with_link_loss(3, 4, 0.8)
///     .with_delay(DelayModel::Uniform { min: 0, max: 2 })
///     .with_duplication(0.05)
///     .with_crash(10, 7)
///     .with_recovery(25, 7);
/// assert!(!plan.is_reliable());
/// assert_eq!(FaultPlan::reliable(42).is_reliable(), true);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault stream (splitmix64).
    pub seed: u64,
    /// Global per-delivery loss probability in `[0, 1)`.
    pub loss: f64,
    /// Per-link loss overrides: `((u, v), p)` with `u < v`; the override
    /// replaces the global probability on that link (both directions).
    pub link_loss: Vec<((usize, usize), f64)>,
    /// Extra in-flight delay per delivery.
    pub delay: DelayModel,
    /// Probability in `[0, 1)` that a delivery is duplicated (the clone
    /// arrives independently, with its own delay draw).
    pub duplication: f64,
    /// Scheduled crashes and recoveries, in any order (the engine sorts
    /// by round, ties broken by list order).
    pub churn: Vec<ChurnEvent>,
}

impl FaultPlan {
    /// A plan with every fault knob at zero: the [`EventSim`](crate::EventSim)
    /// under this plan is bit-identical to the reliable
    /// [`Simulator`](crate::Simulator).
    pub fn reliable(seed: u64) -> Self {
        FaultPlan {
            seed,
            loss: 0.0,
            link_loss: Vec::new(),
            delay: DelayModel::None,
            duplication: 0.0,
            churn: Vec::new(),
        }
    }

    /// Sets the global per-delivery loss probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not in `[0, 1)`.
    #[must_use]
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "loss probability must be in [0, 1)"
        );
        self.loss = p;
        self
    }

    /// Overrides the loss probability on the link `{u, v}` (applies to
    /// both directions).
    ///
    /// # Panics
    ///
    /// Panics when `p` is not in `[0, 1)` or `u == v`.
    #[must_use]
    pub fn with_link_loss(mut self, u: usize, v: usize, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "loss probability must be in [0, 1)"
        );
        assert_ne!(u, v, "a link needs two distinct endpoints");
        let key = (u.min(v), u.max(v));
        if let Some(entry) = self.link_loss.iter_mut().find(|(k, _)| *k == key) {
            entry.1 = p;
        } else {
            self.link_loss.push((key, p));
        }
        self
    }

    /// Sets the delay model.
    #[must_use]
    pub fn with_delay(mut self, delay: DelayModel) -> Self {
        if let DelayModel::Uniform { min, max } = delay {
            assert!(min <= max, "delay range must satisfy min <= max");
        }
        self.delay = delay;
        self
    }

    /// Sets the per-delivery duplication probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not in `[0, 1)`.
    #[must_use]
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "duplication probability must be in [0, 1)"
        );
        self.duplication = p;
        self
    }

    /// Schedules `robot` to crash at the beginning of `round`.
    #[must_use]
    pub fn with_crash(mut self, round: usize, robot: usize) -> Self {
        self.churn.push(ChurnEvent {
            round,
            robot,
            kind: ChurnKind::Crash,
        });
        self
    }

    /// Schedules `robot` to recover at the beginning of `round`.
    #[must_use]
    pub fn with_recovery(mut self, round: usize, robot: usize) -> Self {
        self.churn.push(ChurnEvent {
            round,
            robot,
            kind: ChurnKind::Recover,
        });
        self
    }

    /// True when every fault knob is at zero — the plan that must
    /// reproduce the reliable simulator exactly.
    pub fn is_reliable(&self) -> bool {
        self.loss == 0.0
            && self.link_loss.iter().all(|&(_, p)| p == 0.0)
            && self.delay.is_none()
            && self.duplication == 0.0
            && self.churn.is_empty()
    }

    /// Loss probability on the (directed) delivery `from → to`.
    pub fn loss_on(&self, from: usize, to: usize) -> f64 {
        let key = (from.min(to), from.max(to));
        self.link_loss
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(self.loss, |&(_, p)| p)
    }

    /// Checks the plan against a simulation of `n` nodes.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFaultPlan`] when a churn event or link
    /// override references a robot index `>= n`.
    pub fn validate(&self, n: usize) -> Result<(), SimError> {
        for ev in &self.churn {
            if ev.robot >= n {
                return Err(SimError::InvalidFaultPlan {
                    reason: format!(
                        "churn event at round {} references robot {} (only {n} robots)",
                        ev.round, ev.robot
                    ),
                });
            }
        }
        for &((u, v), _) in &self.link_loss {
            if u >= n || v >= n {
                return Err(SimError::InvalidFaultPlan {
                    reason: format!("link-loss override ({u}, {v}) out of range (only {n} robots)"),
                });
            }
        }
        Ok(())
    }
}

/// The deterministic splitmix64 stream feeding all fault decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates the stream from the plan's seed.
    pub fn new(seed: u64) -> Self {
        FaultRng {
            state: seed ^ 0x5DEECE66D,
        }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[min, max]`.
    pub fn uniform_usize(&mut self, min: usize, max: usize) -> usize {
        debug_assert!(min <= max);
        min + (self.next_u64() % (max - min + 1) as u64) as usize
    }

    /// Current internal state word (for checkpointing).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuilds the stream from a previously captured [`state`].
    ///
    /// [`state`]: FaultRng::state
    pub fn from_state(state: u64) -> Self {
        FaultRng { state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_plan_is_reliable() {
        assert!(FaultPlan::reliable(0).is_reliable());
        assert!(!FaultPlan::reliable(0).with_loss(0.1).is_reliable());
        assert!(!FaultPlan::reliable(0)
            .with_delay(DelayModel::Fixed(1))
            .is_reliable());
        assert!(!FaultPlan::reliable(0).with_duplication(0.1).is_reliable());
        assert!(!FaultPlan::reliable(0).with_crash(3, 0).is_reliable());
        // Zero-valued knobs still count as reliable.
        assert!(FaultPlan::reliable(0)
            .with_loss(0.0)
            .with_delay(DelayModel::Fixed(0))
            .with_link_loss(0, 1, 0.0)
            .is_reliable());
    }

    #[test]
    fn link_override_replaces_global_loss() {
        let plan = FaultPlan::reliable(0)
            .with_loss(0.2)
            .with_link_loss(4, 2, 0.9);
        assert_eq!(plan.loss_on(2, 4), 0.9);
        assert_eq!(plan.loss_on(4, 2), 0.9);
        assert_eq!(plan.loss_on(0, 1), 0.2);
        // Re-overriding the same (normalized) link updates in place.
        let plan = plan.with_link_loss(2, 4, 0.5);
        assert_eq!(plan.loss_on(4, 2), 0.5);
        assert_eq!(plan.link_loss.len(), 1);
    }

    #[test]
    fn validation_catches_bad_indices() {
        assert!(FaultPlan::reliable(0).with_crash(1, 9).validate(5).is_err());
        assert!(FaultPlan::reliable(0)
            .with_link_loss(0, 9, 0.5)
            .validate(5)
            .is_err());
        assert!(FaultPlan::reliable(0).with_crash(1, 4).validate(5).is_ok());
    }

    #[test]
    fn delay_model_classification() {
        assert!(DelayModel::None.is_none());
        assert!(DelayModel::Fixed(0).is_none());
        assert!(!DelayModel::Fixed(2).is_none());
        assert_eq!(DelayModel::Uniform { min: 1, max: 3 }.max_delay(), 3);
    }

    #[test]
    fn fault_rng_is_deterministic() {
        let mut a = FaultRng::new(99);
        let mut b = FaultRng::new(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = FaultRng::new(100);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn uniform_usize_hits_bounds() {
        let mut rng = FaultRng::new(5);
        let draws: Vec<usize> = (0..200).map(|_| rng.uniform_usize(1, 3)).collect();
        assert!(draws.contains(&1));
        assert!(draws.contains(&3));
        assert!(draws.iter().all(|&d| (1..=3).contains(&d)));
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn rejects_full_loss() {
        let _ = FaultPlan::reliable(0).with_loss(1.0);
    }
}
