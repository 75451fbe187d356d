//! Readiness events for poll-driven connection multiplexing.
//!
//! A conventional event loop (epoll/kqueue style) does not rescan every
//! connection on every tick; it reacts to *edges*: a connection became
//! readable, writable, established, or closed. [`crate::TcpConnection`] can
//! record these edges into a small queue that the event loop (`stack::Sim`)
//! drains after each poll.
//!
//! Event recording is **off by default** so that existing lockstep callers
//! pay nothing and no queue grows unbounded; a driver opts in with
//! [`crate::TcpConnection::set_event_interest`].

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
    /// Enable or disable recording. Disabling clears any queued events.
    pub(crate) fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.events.clear();
        }
    }

    /// Whether recording is enabled.
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event (no-op while disabled). Consecutive duplicates are
    /// collapsed: an edge that has already been queued and not yet consumed
    /// carries no extra information.
    pub(crate) fn push(&mut self, ev: ConnEvent) {
        if self.enabled && self.events.back() != Some(&ev) {
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

    #[test]
    fn disabled_queue_records_nothing() {
        let mut q = EventQueue::default();
        q.push(ConnEvent::Readable);
        assert!(q.is_empty());
        q.set_enabled(true);
        q.push(ConnEvent::Readable);
        assert_eq!(q.drain().collect::<Vec<_>>(), vec![ConnEvent::Readable]);
    }

    #[test]
    fn consecutive_duplicates_collapse() {
        let mut q = EventQueue::default();
        q.set_enabled(true);
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
    fn disabling_clears_backlog() {
        let mut q = EventQueue::default();
        q.set_enabled(true);
        q.push(ConnEvent::Established);
        q.set_enabled(false);
        assert!(q.is_empty());
        assert!(!q.enabled());
    }
}
