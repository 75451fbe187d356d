//! Configuration for TCP connections and the uTCP socket options.

/// Which congestion-control algorithm a connection uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum CcAlgorithm {
    /// NewReno (RFC 6582): slow start, congestion avoidance, fast
    /// retransmit/recovery with partial-ACK handling.
    #[default]
    NewReno,
    /// CUBIC (RFC 8312): cubic window growth anchored at the last congestion
    /// event, with a Reno-friendly floor. Implemented in deterministic
    /// integer arithmetic over virtual time, so the window trajectory is
    /// byte-identical at any thread count.
    Cubic,
    /// Congestion control disabled (design alternative discussed in §4.3 of
    /// the paper); the window is limited only by the receive window.
    None,
}

impl CcAlgorithm {
    /// Every algorithm, in sweep order (the `--cc` axis).
    pub const ALL: [CcAlgorithm; 3] = [CcAlgorithm::NewReno, CcAlgorithm::Cubic, CcAlgorithm::None];

    /// The tag used in labels, flags, and JSON (`"newreno"` / `"cubic"` /
    /// `"none"`).
    pub fn label(self) -> &'static str {
        match self {
            CcAlgorithm::NewReno => "newreno",
            CcAlgorithm::Cubic => "cubic",
            CcAlgorithm::None => "none",
        }
    }

    /// Parse a `--cc` flag value.
    pub fn parse(raw: &str) -> Option<CcAlgorithm> {
        match raw.trim() {
            "newreno" => Some(CcAlgorithm::NewReno),
            "cubic" => Some(CcAlgorithm::Cubic),
            "none" => Some(CcAlgorithm::None),
            _ => None,
        }
    }
}

/// Static configuration of one TCP connection.
#[derive(Clone, Debug)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment). The paper's testbed
    /// uses Ethernet, giving an MSS of 1448 with timestamps or 1460 without;
    /// we default to 1448 to match the figures.
    pub mss: usize,
    /// Send buffer capacity in bytes.
    pub send_buffer: usize,
    /// Receive buffer capacity in bytes (advertised window ceiling).
    pub recv_buffer: usize,
    /// Whether delayed ACKs are enabled.
    pub delayed_ack: bool,
    /// Congestion control algorithm.
    pub cc: CcAlgorithm,
    /// Fixed initial sequence number for deterministic tests; `None` draws a
    /// pseudo-random ISN from the connection seed.
    pub fixed_isn: Option<u32>,
}

/// The paper's testbed defaults (low-latency path, 1448-byte MSS). The
/// paper disables Nagle for every experiment, so this stack has no such
/// algorithm to switch: a short segment is sent as soon as the window
/// allows.
impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1448,
            send_buffer: 256 * 1024,
            recv_buffer: 256 * 1024,
            delayed_ack: true,
            cc: CcAlgorithm::NewReno,
            fixed_isn: None,
        }
    }
}

impl TcpConfig {
    /// Set the MSS.
    pub fn with_mss(mut self, mss: usize) -> Self {
        assert!(mss > 0);
        self.mss = mss;
        self
    }

    /// Set send and receive buffer sizes.
    pub fn with_buffers(mut self, send: usize, recv: usize) -> Self {
        self.send_buffer = send;
        self.recv_buffer = recv;
        self
    }

    /// Enable or disable delayed ACKs.
    pub fn with_delayed_ack(mut self, enabled: bool) -> Self {
        self.delayed_ack = enabled;
        self
    }

    /// Select the congestion-control algorithm.
    pub fn with_cc(mut self, cc: CcAlgorithm) -> Self {
        self.cc = cc;
        self
    }

    /// Use a fixed initial sequence number (deterministic tests).
    pub fn with_fixed_isn(mut self, isn: u32) -> Self {
        self.fixed_isn = Some(isn);
        self
    }
}

/// Runtime socket options, the uTCP API surface of the paper (§4).
///
/// Both options default to off, giving standard TCP behaviour; they can be
/// enabled independently, and enabling them changes nothing on the wire.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SocketOptions {
    /// `SO_UNORDERED`: deliver segments to the application as they arrive,
    /// including out-of-order ones, each tagged with its stream offset.
    pub unordered_receive: bool,
    /// `SO_UNORDEREDSEND`: writes carry a priority tag and are inserted into
    /// the send queue ahead of lower-priority data that has not yet been
    /// transmitted.
    pub unordered_send: bool,
}

impl SocketOptions {
    /// Standard TCP behaviour (both options off).
    pub fn standard() -> Self {
        SocketOptions::default()
    }

    /// Full uTCP behaviour (both options on).
    pub fn utcp() -> Self {
        SocketOptions {
            unordered_receive: true,
            unordered_send: true,
        }
    }

    /// Only the receive-side extension.
    pub fn unordered_receive_only() -> Self {
        SocketOptions {
            unordered_receive: true,
            unordered_send: false,
        }
    }
}

/// Per-write metadata, the paper's 5-byte `write()` header (§4.2): a priority
/// tag plus flags. Higher tags pass lower tags in the send queue; the optional
/// squash flag discards untransmitted data with the same tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct WriteMeta {
    /// Priority tag. Larger values are higher priority.
    pub priority: u32,
    /// If set, remove any untransmitted data previously written with exactly
    /// the same tag before enqueueing this write.
    pub squash: bool,
}

impl WriteMeta {
    /// Ordinary-priority write.
    pub fn normal() -> Self {
        WriteMeta::default()
    }

    /// A write with the given priority tag.
    pub fn with_priority(priority: u32) -> Self {
        WriteMeta {
            priority,
            squash: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_testbed() {
        let c = TcpConfig::default();
        assert_eq!(c.mss, 1448);
        assert_eq!(c.cc, CcAlgorithm::NewReno);
    }

    #[test]
    fn builder_methods() {
        let c = TcpConfig::default()
            .with_mss(536)
            .with_buffers(1024, 2048)
            .with_delayed_ack(false)
            .with_cc(CcAlgorithm::None)
            .with_fixed_isn(7);
        assert_eq!(c.mss, 536);
        assert_eq!(c.send_buffer, 1024);
        assert_eq!(c.recv_buffer, 2048);
        assert!(!c.delayed_ack);
        assert_eq!(c.cc, CcAlgorithm::None);
        assert_eq!(c.fixed_isn, Some(7));
    }

    #[test]
    fn cc_algorithm_labels_round_trip() {
        for algo in CcAlgorithm::ALL {
            assert_eq!(CcAlgorithm::parse(algo.label()), Some(algo));
        }
        assert_eq!(CcAlgorithm::parse(" cubic "), Some(CcAlgorithm::Cubic));
        assert_eq!(CcAlgorithm::parse("bbr"), None);
        assert_eq!(CcAlgorithm::default(), CcAlgorithm::NewReno);
    }

    #[test]
    fn socket_option_presets() {
        assert_eq!(SocketOptions::standard(), SocketOptions::default());
        assert!(SocketOptions::utcp().unordered_receive);
        assert!(SocketOptions::utcp().unordered_send);
        assert!(SocketOptions::unordered_receive_only().unordered_receive);
        assert!(!SocketOptions::unordered_receive_only().unordered_send);
    }

    #[test]
    fn write_meta_constructors() {
        assert_eq!(WriteMeta::normal().priority, 0);
        assert_eq!(WriteMeta::with_priority(9).priority, 9);
    }
}
