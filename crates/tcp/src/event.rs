//! Readiness events for poll-driven connection multiplexing.
//!
//! A conventional event loop (epoll/kqueue style) does not rescan every
//! connection on every tick; it reacts to *edges*: a connection became
//! readable, writable, established, or closed. [`crate::TcpConnection`] can
//! record these edges into a small queue that the event loop (`stack::Sim`)
//! drains after each poll.
//!
//! The same queue carries the connection's window telemetry: each
//! cwnd/ssthresh transition, each finished fast-recovery episode and each
//! RTO cut leaves as a sample stamped with its virtual time. The connection
//! keeps no history of them; whoever drains the queue records what it wants.
//!
//! Event recording is **off by default** so that a connection nobody drains
//! pays nothing and grows no queue; a driver opts in with
//! [`crate::TcpConnection::enable_events`], and nothing turns it off again.

use std::collections::VecDeque;

/// An edge-triggered connection event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnEvent {
    /// The three-way handshake completed.
    Established,
    /// The connection transitioned from "nothing to read" to "readable".
    Readable,
    /// The send buffer transitioned from full to having free space.
    Writable,
    /// The connection reached a closed state (orderly close or reset).
    Closed,
    /// A retransmission timeout fired.
    RtoFired {
        /// How long the fired timer instance had been armed, arm→fire in
        /// virtual microseconds (per-timer, not SYN→fire: re-arming on ACK
        /// progress re-stamps the base). Deterministic, so it rides the
        /// event safely. Note two back-to-back fires with different waits
        /// do not collapse in the queue (they compare unequal).
        wait_us: u64,
    },
    /// A data segment was retransmitted (RTO or fast retransmit). Note the
    /// queue collapses *consecutive* duplicates, so a burst of back-to-back
    /// retransmissions may surface as a single edge — observers treat this
    /// as "at least one retransmission since the last drain".
    Retransmit,
    /// The congestion window or slow-start threshold moved (a sample, never
    /// collapsed). The first is taken as the first SYN or SYN-ACK goes out.
    Window {
        /// When, on the virtual clock.
        at: minion_simnet::SimTime,
        /// Congestion window in bytes.
        cwnd: u64,
        /// Slow-start threshold in bytes.
        ssthresh: u64,
    },
    /// A window cut (a sample, never collapsed): a fast-recovery episode
    /// that ended, on its full ACK or truncated by an RTO, or an RTO's own
    /// cut.
    Cut {
        /// cwnd before − ssthresh after, in bytes (an episode's is taken at
        /// its entry).
        depth: u64,
        /// How long the fast-recovery episode lasted, entry to exit, on the
        /// virtual clock; `None` for an RTO's cut.
        recovery: Option<minion_simnet::SimDuration>,
    },
}

/// A level-triggered snapshot of what a connection can currently do.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Readiness {
    /// A `read()` would return data.
    pub readable: bool,
    /// A `write()` of at least one byte would be accepted.
    pub writable: bool,
    /// The handshake has completed (data may flow).
    pub established: bool,
    /// The connection has fully closed.
    pub closed: bool,
}

/// The gated event queue a connection records edges into.
#[derive(Clone, Debug, Default)]
pub(crate) struct EventQueue {
    enabled: bool,
    events: VecDeque<ConnEvent>,
}

impl EventQueue {
    /// Turn recording on.
    pub(crate) fn enable(&mut self) {
        self.enabled = true;
    }

    /// Whether recording is enabled.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event (no-op while disabled). An edge equal to the last
    /// edge queued is collapsed: an edge that has already been queued and
    /// not yet consumed carries no extra information, and samples queued
    /// between the two do not change that. Samples are never collapsed: two
    /// equal recovery episodes are two episodes.
    pub(crate) fn push(&mut self, ev: ConnEvent) {
        let edge = |e: &ConnEvent| !matches!(e, ConnEvent::Window { .. } | ConnEvent::Cut { .. });
        if self.enabled && !(edge(&ev) && self.events.iter().rev().find(|e| edge(e)) == Some(&ev)) {
            self.events.push_back(ev);
        }
    }

    /// Drain all queued events in arrival order (the queue keeps its
    /// storage; events not iterated are dropped with the iterator).
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = ConnEvent> + '_ {
        self.events.drain(..)
    }

    /// Whether any events are queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_simnet::SimDuration;

    #[test]
    fn disabled_queue_records_nothing() {
        let mut q = EventQueue::default();
        q.push(ConnEvent::Readable);
        assert!(q.is_empty());
        q.enable();
        q.push(ConnEvent::Readable);
        assert_eq!(q.drain().collect::<Vec<_>>(), vec![ConnEvent::Readable]);
    }

    #[test]
    fn consecutive_duplicates_collapse() {
        let mut q = EventQueue::default();
        q.enable();
        q.push(ConnEvent::Readable);
        q.push(ConnEvent::Readable);
        q.push(ConnEvent::Writable);
        q.push(ConnEvent::Readable);
        assert_eq!(
            q.drain().collect::<Vec<_>>(),
            vec![
                ConnEvent::Readable,
                ConnEvent::Writable,
                ConnEvent::Readable
            ]
        );
    }

    #[test]
    fn samples_are_never_collapsed_and_do_not_separate_edges() {
        let mut q = EventQueue::default();
        q.enable();
        let episode = ConnEvent::Cut {
            depth: 2_896,
            recovery: Some(SimDuration::from_millis(40)),
        };
        q.push(ConnEvent::Retransmit);
        q.push(episode);
        q.push(episode);
        q.push(ConnEvent::Retransmit);
        assert_eq!(
            q.drain().collect::<Vec<_>>(),
            vec![ConnEvent::Retransmit, episode, episode],
            "two equal episodes are two samples; the second retransmit edge still collapses"
        );
    }
}
