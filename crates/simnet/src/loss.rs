//! Packet loss models applied by links.
//!
//! The paper's experiments use dummynet's uniform random loss (0.5%, 1%, 2%,
//! up to 5%) as well as loss induced purely by drop-tail queue overflow under
//! contention. We provide both a Bernoulli (independent) model and a
//! Gilbert–Elliott (bursty) model, plus a deterministic periodic model and an
//! explicit drop-list that unit tests and the Figure 4 scenarios use to drop
//! exactly chosen packets.

use crate::rng::SimRng;

/// Configuration for a link's random loss process.
#[derive(Clone, Debug)]
pub enum LossConfig {
    /// No random loss (queue overflow may still drop packets).
    None,
    /// Independent (Bernoulli) loss with the given probability per packet.
    Bernoulli {
        /// Per-packet drop probability in `[0, 1]`.
        probability: f64,
    },
    /// Two-state Gilbert–Elliott bursty loss model.
    GilbertElliott {
        /// Probability of moving from the good state to the bad state.
        p_good_to_bad: f64,
        /// Probability of moving from the bad state back to the good state.
        p_bad_to_good: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
    /// Drop every `n`-th packet deterministically (1-indexed).
    Periodic {
        /// Drop every `every`-th packet.
        every: u64,
    },
    /// Drop exactly the packets whose (1-indexed) transmission index appears
    /// in the list.
    Explicit {
        /// 1-indexed transmission indices to drop.
        indices: Vec<u64>,
    },
}

impl LossConfig {
    /// A convenience constructor for a simple loss-rate percentage.
    pub fn from_rate(rate: f64) -> LossConfig {
        if rate <= 0.0 {
            LossConfig::None
        } else {
            LossConfig::Bernoulli { probability: rate }
        }
    }

    /// The canonical bursty-loss profile used across the harnesses (the
    /// paper's "real networks lose packets in bursts" condition): rare
    /// transitions into a bad state that drops most packets.
    ///
    /// This is the single definition of the burst parameters; scenario axes
    /// (`minion-testkit`) and load scenarios (`minion-engine`) reference it
    /// rather than re-implementing the model.
    pub fn bursty() -> LossConfig {
        LossConfig::GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.4,
            loss_good: 0.0,
            loss_bad: 0.8,
        }
    }
}

/// Runtime state of a loss model instance.
#[derive(Clone, Debug)]
pub struct LossModel {
    config: LossConfig,
    rng: SimRng,
    /// Count of packets offered to this model so far (1-indexed on decide()).
    offered: u64,
    /// Gilbert–Elliott state: true when in the "bad" (lossy) state.
    in_bad_state: bool,
}

impl LossModel {
    /// Instantiate a loss model with its own deterministic random stream.
    pub fn new(config: LossConfig, rng: SimRng) -> Self {
        LossModel {
            config,
            rng,
            offered: 0,
            in_bad_state: false,
        }
    }

    /// A model that never drops.
    pub fn none() -> Self {
        LossModel::new(LossConfig::None, SimRng::new(0))
    }

    /// Decide whether the next offered packet should be dropped.
    pub(crate) fn should_drop(&mut self) -> bool {
        self.offered += 1;
        match &self.config {
            LossConfig::None => false,
            LossConfig::Bernoulli { probability } => {
                let p = *probability;
                self.rng.chance(p)
            }
            LossConfig::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                // Transition first, then sample loss in the resulting state.
                let (p_transition, loss_here) = if self.in_bad_state {
                    (*p_bad_to_good, *loss_bad)
                } else {
                    (*p_good_to_bad, *loss_good)
                };
                if self.rng.chance(p_transition) {
                    self.in_bad_state = !self.in_bad_state;
                }
                let loss_p = if self.in_bad_state {
                    *loss_bad
                } else {
                    loss_here.min(*loss_good)
                };
                self.rng.chance(loss_p)
            }
            LossConfig::Periodic { every } => *every != 0 && self.offered.is_multiple_of(*every),
            LossConfig::Explicit { indices } => indices.contains(&self.offered),
        }
    }

    /// Number of packets offered to this model so far.
    pub fn offered(&self) -> u64 {
        self.offered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(1234)
    }

    #[test]
    fn none_never_drops() {
        let mut m = LossModel::none();
        assert!((0..1000).all(|_| !m.should_drop()));
    }

    #[test]
    fn bernoulli_rate_is_respected() {
        let mut m = LossModel::new(LossConfig::Bernoulli { probability: 0.02 }, rng());
        let drops = (0..100_000).filter(|_| m.should_drop()).count();
        let rate = drops as f64 / 100_000.0;
        assert!((rate - 0.02).abs() < 0.005, "rate={rate}");
    }

    #[test]
    fn bursty_profile_is_gilbert_elliott() {
        match LossConfig::bursty() {
            LossConfig::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                assert!(p_good_to_bad > 0.0 && p_good_to_bad < p_bad_to_good);
                assert_eq!(loss_good, 0.0);
                assert!(loss_bad > 0.5);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn from_rate_zero_is_none() {
        assert!(matches!(LossConfig::from_rate(0.0), LossConfig::None));
        assert!(matches!(
            LossConfig::from_rate(0.01),
            LossConfig::Bernoulli { .. }
        ));
    }

    #[test]
    fn periodic_drops_every_nth() {
        let mut m = LossModel::new(LossConfig::Periodic { every: 3 }, rng());
        let pattern: Vec<bool> = (0..9).map(|_| m.should_drop()).collect();
        assert_eq!(
            pattern,
            vec![false, false, true, false, false, true, false, false, true]
        );
    }

    #[test]
    fn explicit_drops_exact_indices() {
        let mut m = LossModel::new(
            LossConfig::Explicit {
                indices: vec![2, 5],
            },
            rng(),
        );
        let pattern: Vec<bool> = (0..6).map(|_| m.should_drop()).collect();
        assert_eq!(pattern, vec![false, true, false, false, true, false]);
        assert_eq!(m.offered(), 6);
    }

    #[test]
    fn gilbert_elliott_is_burstier_than_bernoulli() {
        // Compare mean burst length at the same average loss rate; the bursty
        // model should produce longer consecutive-drop runs.
        fn mean_burst(drops: &[bool]) -> f64 {
            let mut bursts = vec![];
            let mut run = 0usize;
            for &d in drops {
                if d {
                    run += 1;
                } else if run > 0 {
                    bursts.push(run);
                    run = 0;
                }
            }
            if run > 0 {
                bursts.push(run);
            }
            if bursts.is_empty() {
                return 0.0;
            }
            bursts.iter().sum::<usize>() as f64 / bursts.len() as f64
        }

        let mut bern = LossModel::new(LossConfig::Bernoulli { probability: 0.05 }, rng());
        let mut ge = LossModel::new(
            LossConfig::GilbertElliott {
                p_good_to_bad: 0.01,
                p_bad_to_good: 0.2,
                loss_good: 0.0,
                loss_bad: 0.9,
            },
            rng().fork("ge"),
        );
        let n = 200_000;
        let bern_drops: Vec<bool> = (0..n).map(|_| bern.should_drop()).collect();
        let ge_drops: Vec<bool> = (0..n).map(|_| ge.should_drop()).collect();
        assert!(mean_burst(&ge_drops) > mean_burst(&bern_drops) * 1.5);
    }
}
