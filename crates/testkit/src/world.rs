//! Topology construction: one cell spec → one simulated world.

use crate::axes::{CellSpec, MiddleboxAxis};
use minion_simnet::{LinkConfig, NodeId, SimDuration};
use minion_stack::{MiddleboxBehavior, Sim};

/// A constructed cell world: sender, receiver, and (optionally) the
/// middlebox between them.
pub struct CellWorld {
    /// The simulation object.
    pub sim: Sim,
    /// Sender host (active opener).
    pub sender: NodeId,
    /// Receiver host (passive opener).
    pub receiver: NodeId,
    /// The middlebox node, when the cell has one.
    pub middlebox: Option<NodeId>,
}

/// Build the two-host(-plus-middlebox) world for one cell.
///
/// The cell's loss process applies only to the last-hop link *toward the
/// receiver*, so explicit drop indices count data segments deterministically
/// regardless of the reverse ACK stream.
pub(crate) fn build_world(spec: &CellSpec) -> CellWorld {
    let mut sim = Sim::new(spec.seed);
    let sender = sim.add_host("sender");
    let receiver = sim.add_host("receiver");
    let delay = spec.one_way_delay();
    let loss = spec.loss.to_loss_config();
    // Generous queue: the matrix stresses loss/reordering, not queue drops.
    let queue = 256 * 1024;

    match spec.middlebox {
        MiddleboxAxis::PassThrough => {
            let toward = LinkConfig::new(spec.rate_bps, delay)
                .with_queue_bytes(queue)
                .with_loss(loss);
            let back = LinkConfig::new(spec.rate_bps, delay).with_queue_bytes(queue);
            sim.link_asymmetric(sender, receiver, toward, back);
            CellWorld {
                sim,
                sender,
                receiver,
                middlebox: None,
            }
        }
        MiddleboxAxis::Split(max_payload) | MiddleboxAxis::Coalesce(max_payload) => {
            let behavior = match spec.middlebox {
                MiddleboxAxis::Split(_) => MiddleboxBehavior::Split { max_payload },
                MiddleboxAxis::Coalesce(_) => MiddleboxBehavior::Coalesce {
                    max_payload,
                    max_hold: SimDuration::from_millis(5),
                },
                MiddleboxAxis::PassThrough => unreachable!(),
            };
            let mb = sim.add_middlebox("middlebox", behavior);
            // Split the propagation delay across the two hops so the cell's
            // end-to-end RTT matches the spec.
            let hop = SimDuration::from_micros(delay.as_micros() / 2);
            sim.link(
                sender,
                mb,
                LinkConfig::new(spec.rate_bps, hop).with_queue_bytes(queue),
            );
            let toward = LinkConfig::new(spec.rate_bps, hop)
                .with_queue_bytes(queue)
                .with_loss(loss);
            let back = LinkConfig::new(spec.rate_bps, hop).with_queue_bytes(queue);
            sim.link_asymmetric(mb, receiver, toward, back);
            sim.add_route(sender, receiver, mb);
            sim.add_route(receiver, sender, mb);
            CellWorld {
                sim,
                sender,
                receiver,
                middlebox: Some(mb),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axes::MatrixSpec;

    #[test]
    fn passthrough_world_has_two_nodes_and_no_middlebox() {
        let mut spec = MatrixSpec::default().cells().remove(0);
        spec.middlebox = MiddleboxAxis::PassThrough;
        let world = build_world(&spec);
        assert!(world.middlebox.is_none());
        assert!(world.sim.link_stats(world.sender, world.receiver).is_some());
        assert!(world.sim.link_stats(world.receiver, world.sender).is_some());
    }

    #[test]
    fn middlebox_world_routes_through_the_middlebox() {
        let mut spec = MatrixSpec::default().cells().remove(0);
        spec.middlebox = MiddleboxAxis::Split(700);
        let world = build_world(&spec);
        let mb = world.middlebox.expect("middlebox present");
        assert!(world.sim.link_stats(world.sender, mb).is_some());
        assert!(world.sim.link_stats(mb, world.receiver).is_some());
        assert!(
            world.sim.link_stats(world.sender, world.receiver).is_none(),
            "no direct link bypassing the middlebox"
        );
    }
}
