//! Configuration for Minion endpoints.

use minion_tcp::{SocketOptions, TcpConfig};
use minion_tls::{CipherSuite, TlsConfig};

/// Which delivery protocol a Minion connection uses (paper §3.2): the
/// application picks one (or lets [`crate::negotiate`] pick) and gets the
/// same datagram API regardless.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// uCOBS datagrams over TCP/uTCP (unsecured).
    Ucobs,
    /// uTLS secure datagrams over TCP/uTCP.
    Utls,
    /// Plain UDP (the shim; requires UDP to work on the path).
    Udp,
    /// Length-prefixed datagrams over standard TCP: the in-order baseline the
    /// paper compares against ("TLV over TCP").
    TcpTlv,
}

/// Configuration for a Minion endpoint.
#[derive(Clone, Debug)]
pub struct MinionConfig {
    /// TCP configuration for the underlying connection (ignored for UDP).
    pub tcp: TcpConfig,
    /// uTCP socket options. `SocketOptions::utcp()` when both ends run an
    /// upgraded stack; `SocketOptions::standard()` reproduces the unmodified-
    /// TCP fallback the paper's deployability story depends on.
    pub socket_options: SocketOptions,
    /// TLS configuration (uTLS endpoints only).
    pub tls: TlsConfig,
    /// Pre-shared key for the uTLS handshake.
    pub psk: Vec<u8>,
    /// Seed for per-connection randomness (TLS nonces).
    pub seed: u64,
}

impl Default for MinionConfig {
    fn default() -> Self {
        MinionConfig {
            tcp: TcpConfig::default(),
            socket_options: SocketOptions::utcp(),
            tls: TlsConfig::default(),
            psk: b"minion-default-psk".to_vec(),
            seed: 1,
        }
    }
}

impl MinionConfig {
    /// Full uTCP support at this endpoint (default).
    pub fn with_utcp() -> Self {
        MinionConfig::default()
    }

    /// Endpoint running on an unmodified TCP stack (no uTCP socket options):
    /// uCOBS/uTLS still interoperate, they just lose the latency benefit.
    pub fn without_utcp() -> Self {
        MinionConfig {
            socket_options: SocketOptions::standard(),
            ..MinionConfig::default()
        }
    }

    /// Use the given ciphersuite for uTLS.
    pub fn with_suite(mut self, suite: CipherSuite) -> Self {
        self.tls.suite = suite;
        self
    }

    /// Use the given pre-shared key.
    pub fn with_psk(mut self, psk: &[u8]) -> Self {
        self.psk = psk.to_vec();
        self
    }

    /// Use the given seed for per-connection randomness.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_presets() {
        let with = MinionConfig::with_utcp();
        assert!(with.socket_options.unordered_receive);
        let without = MinionConfig::without_utcp();
        assert!(!without.socket_options.unordered_receive);
        assert!(!without.socket_options.unordered_send);
        let keyed = MinionConfig::default().with_psk(b"k").with_seed(9);
        assert_eq!(keyed.psk, b"k");
        assert_eq!(keyed.seed, 9);
    }
}
