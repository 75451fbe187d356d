//! A TLS-style session: simplified PSK handshake, key schedule, and in-order
//! record protection — the baseline "stream TLS" that uTLS is compared
//! against, and the component that produces the wire bytes uTLS later
//! recovers out of order.
//!
//! The handshake replaces TLS's public-key exchange with a pre-shared-key
//! exchange (two `ClientHello`/`ServerHello`-style messages carrying random
//! nonces); see DESIGN.md for why this substitution preserves the behaviour
//! the paper evaluates. Everything downstream of the handshake — record
//! framing, MAC pseudo-header with an implicit record number, explicit IVs,
//! MAC-then-encrypt — follows the TLS 1.1 structure.

use crate::record::{
    CipherSuite, RecordHeader, RecordProtection, CONTENT_APPLICATION_DATA, CONTENT_HANDSHAKE,
    RECORD_HEADER_LEN, VERSION_TLS11,
};
use minion_crypto::prf::{master_secret, KeyBlock};
use minion_simnet::SimRng;

/// Configuration of a TLS session.
#[derive(Clone, Debug)]
pub struct TlsConfig {
    /// Ciphersuite negotiated for application data.
    pub suite: CipherSuite,
}

impl Default for TlsConfig {
    fn default() -> Self {
        TlsConfig {
            suite: CipherSuite::Aes128CbcExplicitIv,
        }
    }
}

/// Which side of the connection this session is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The connection initiator.
    Client,
    /// The connection acceptor.
    Server,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HandshakeState {
    /// Client: hello not yet sent. Server: waiting for the client hello.
    Start,
    /// Client: hello sent, waiting for the server hello.
    WaitServerHello,
    /// Keys derived; application data may flow.
    Established,
}

/// Errors from the TLS session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlsError {
    /// Handshake data was malformed.
    BadHandshake,
    /// An application record failed authentication.
    BadRecord,
    /// Operation requires an established session.
    NotEstablished,
}

impl std::fmt::Display for TlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlsError::BadHandshake => write!(f, "malformed handshake message"),
            TlsError::BadRecord => write!(f, "record failed authentication"),
            TlsError::NotEstablished => write!(f, "session not established"),
        }
    }
}

impl std::error::Error for TlsError {}

const HELLO_MAGIC: &[u8; 4] = b"MHLO";
const RANDOM_LEN: usize = 32;
/// Maximum plaintext bytes per application record.
const MAX_RECORD_PAYLOAD: usize = 16 * 1024;

/// A TLS session endpoint.
pub struct TlsSession {
    role: Role,
    config: TlsConfig,
    psk: Vec<u8>,
    state: HandshakeState,
    local_random: [u8; RANDOM_LEN],
    peer_random: Option<[u8; RANDOM_LEN]>,
    /// Handshake-phase (null) protection used before keys are derived.
    handshake_tx: RecordProtection,
    handshake_rx: RecordProtection,
    tx: Option<RecordProtection>,
    rx: Option<RecordProtection>,
    tx_record_number: u64,
    rx_record_number: u64,
    /// Reassembly buffer for in-order record parsing.
    inbuf: Vec<u8>,
    /// Bytes queued for transmission (handshake responses).
    outbuf: Vec<u8>,
    /// Number of incoming stream bytes consumed by the handshake; application
    /// records start at this stream offset (needed by the uTLS receiver).
    rx_handshake_bytes: u64,
}

impl TlsSession {
    fn new(role: Role, psk: &[u8], config: TlsConfig, seed: u64) -> Self {
        let mut rng = SimRng::new(seed).fork(match role {
            Role::Client => "tls-client",
            Role::Server => "tls-server",
        });
        let mut local_random = [0u8; RANDOM_LEN];
        rng.fill_bytes(&mut local_random);
        let null_tx = RecordProtection::new(CipherSuite::Null, [0; 16], [0; 32], VERSION_TLS11);
        let null_rx = RecordProtection::new(CipherSuite::Null, [0; 16], [0; 32], VERSION_TLS11);
        TlsSession {
            role,
            config,
            psk: psk.to_vec(),
            state: HandshakeState::Start,
            local_random,
            peer_random: None,
            handshake_tx: null_tx,
            handshake_rx: null_rx,
            tx: None,
            rx: None,
            tx_record_number: 0,
            rx_record_number: 0,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            rx_handshake_bytes: 0,
        }
    }

    /// Create a client session. The client hello is queued immediately and
    /// available from [`take_outgoing`](Self::take_outgoing).
    pub fn client(psk: &[u8], config: TlsConfig, seed: u64) -> Self {
        let mut s = TlsSession::new(Role::Client, psk, config, seed);
        let hello = s.make_hello();
        s.outbuf.extend_from_slice(&hello);
        s.state = HandshakeState::WaitServerHello;
        s
    }

    /// Create a server session, which waits for the client hello.
    pub fn server(psk: &[u8], config: TlsConfig, seed: u64) -> Self {
        TlsSession::new(Role::Server, psk, config, seed)
    }

    /// The session's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The negotiated ciphersuite.
    pub fn suite(&self) -> CipherSuite {
        self.config.suite
    }

    /// Whether the handshake has completed.
    pub fn is_established(&self) -> bool {
        self.state == HandshakeState::Established
    }

    /// Incoming stream offset at which application records begin.
    pub fn rx_app_start_offset(&self) -> u64 {
        self.rx_handshake_bytes
    }

    fn make_hello(&mut self) -> Vec<u8> {
        let mut body = Vec::with_capacity(4 + RANDOM_LEN + 1);
        body.extend_from_slice(HELLO_MAGIC);
        body.extend_from_slice(&self.local_random);
        body.push(match self.config.suite {
            CipherSuite::Null => 0,
            CipherSuite::Aes128CbcExplicitIv => 1,
            CipherSuite::Aes128CbcChainedIv => 2,
        });
        self.handshake_tx.seal(0, CONTENT_HANDSHAKE, &body)
    }

    fn derive_keys(&mut self) {
        let (client_random, server_random) = match self.role {
            Role::Client => (self.local_random, self.peer_random.expect("peer random")),
            Role::Server => (self.peer_random.expect("peer random"), self.local_random),
        };
        let ms = master_secret(&self.psk, &client_random, &server_random);
        let kb = KeyBlock::derive(&ms, &client_random, &server_random);
        let (tx_enc, tx_mac, rx_enc, rx_mac) = match self.role {
            Role::Client => (
                kb.client_enc_key,
                kb.client_mac_key,
                kb.server_enc_key,
                kb.server_mac_key,
            ),
            Role::Server => (
                kb.server_enc_key,
                kb.server_mac_key,
                kb.client_enc_key,
                kb.client_mac_key,
            ),
        };
        self.tx = Some(RecordProtection::new(
            self.config.suite,
            tx_enc,
            tx_mac,
            VERSION_TLS11,
        ));
        self.rx = Some(RecordProtection::new(
            self.config.suite,
            rx_enc,
            rx_mac,
            VERSION_TLS11,
        ));
        self.state = HandshakeState::Established;
    }

    /// Clone of the receive-direction record protection, for handing to a
    /// [`crate::utls::UtlsReceiver`].
    pub fn rx_protection(&self) -> Option<RecordProtection> {
        self.rx.clone()
    }

    /// Feed bytes received in order from the transport.
    ///
    /// During the handshake this may queue response bytes (fetch them with
    /// [`take_outgoing`](Self::take_outgoing)). After establishment, complete
    /// application records are decrypted and returned by
    /// [`read_datagrams`](Self::read_datagrams).
    pub fn push_incoming(&mut self, data: &[u8]) -> Result<(), TlsError> {
        self.inbuf.extend_from_slice(data);
        self.process_handshake()
    }

    /// Take the next whole record off the front of the in-order buffer, or
    /// `None` while its header or body is still incomplete.
    fn take_record(&mut self) -> Option<(RecordHeader, Vec<u8>)> {
        let header = RecordHeader::decode(&self.inbuf)?;
        if self.inbuf.len() < RECORD_HEADER_LEN + header.length {
            return None;
        }
        let body = self
            .inbuf
            .drain(..RECORD_HEADER_LEN + header.length)
            .skip(RECORD_HEADER_LEN)
            .collect();
        Some((header, body))
    }

    fn process_handshake(&mut self) -> Result<(), TlsError> {
        while self.state != HandshakeState::Established {
            let Some((header, body)) = self.take_record() else {
                return Ok(());
            };
            if header.content_type != CONTENT_HANDSHAKE {
                return Err(TlsError::BadHandshake);
            }
            self.rx_handshake_bytes += (RECORD_HEADER_LEN + header.length) as u64;
            let plain = self
                .handshake_rx
                .open(0, &header, &body)
                .map_err(|_| TlsError::BadHandshake)?;
            if plain.len() < 4 + RANDOM_LEN + 1 || &plain[..4] != HELLO_MAGIC {
                return Err(TlsError::BadHandshake);
            }
            let mut random = [0u8; RANDOM_LEN];
            random.copy_from_slice(&plain[4..4 + RANDOM_LEN]);
            self.peer_random = Some(random);

            match (self.role, self.state) {
                (Role::Server, HandshakeState::Start) => {
                    let hello = self.make_hello();
                    self.outbuf.extend_from_slice(&hello);
                    self.derive_keys();
                }
                (Role::Client, HandshakeState::WaitServerHello) => {
                    self.derive_keys();
                }
                _ => return Err(TlsError::BadHandshake),
            }
        }
        Ok(())
    }

    /// Take bytes queued for transmission (handshake messages).
    pub fn take_outgoing(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.outbuf)
    }

    /// Protect one application datagram as a single record, returning the
    /// wire bytes to write to the transport.
    pub fn seal_datagram(&mut self, data: &[u8]) -> Result<Vec<u8>, TlsError> {
        if self.state != HandshakeState::Established {
            return Err(TlsError::NotEstablished);
        }
        assert!(
            data.len() <= MAX_RECORD_PAYLOAD,
            "datagram exceeds the maximum record payload"
        );
        let tx = self.tx.as_mut().expect("established");
        let wire = tx.seal(self.tx_record_number, CONTENT_APPLICATION_DATA, data);
        self.tx_record_number += 1;
        Ok(wire)
    }

    /// Decrypt and return all complete application records available in the
    /// in-order receive buffer (standard TLS delivery).
    pub fn read_datagrams(&mut self) -> Result<Vec<Vec<u8>>, TlsError> {
        if self.state != HandshakeState::Established {
            return Ok(vec![]);
        }
        let mut out = Vec::new();
        while let Some((header, body)) = self.take_record() {
            let rx = self.rx.as_mut().expect("established");
            // The MAC covers the negotiated version, not the header's two
            // bytes: compare them here, where TLS sends `protocol_version`.
            if header.version != rx.version() {
                return Err(TlsError::BadRecord);
            }
            let plain = rx
                .open(self.rx_record_number, &header, &body)
                .map_err(|_| TlsError::BadRecord)?;
            self.rx_record_number += 1;
            out.push(plain);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handshake(suite: CipherSuite) -> (TlsSession, TlsSession) {
        let config = TlsConfig { suite };
        let mut client = TlsSession::client(b"shared secret", config.clone(), 1);
        let mut server = TlsSession::server(b"shared secret", config, 2);
        let c_hello = client.take_outgoing();
        server.push_incoming(&c_hello).unwrap();
        let s_hello = server.take_outgoing();
        client.push_incoming(&s_hello).unwrap();
        assert!(client.is_established());
        assert!(server.is_established());
        (client, server)
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let (client, server) = handshake(CipherSuite::Aes128CbcExplicitIv);
        assert_eq!(client.role(), Role::Client);
        assert_eq!(server.role(), Role::Server);
        assert!(client.rx_app_start_offset() > 0);
    }

    #[test]
    fn datagrams_roundtrip_in_order() {
        let (mut client, mut server) = handshake(CipherSuite::Aes128CbcExplicitIv);
        let mut wire = Vec::new();
        for i in 0..20u32 {
            let msg = format!("application datagram {i}");
            wire.extend_from_slice(&client.seal_datagram(msg.as_bytes()).unwrap());
        }
        // Deliver in odd-sized pieces to exercise record reassembly.
        for chunk in wire.chunks(313) {
            server.push_incoming(chunk).unwrap();
        }
        let got = server.read_datagrams().unwrap();
        assert_eq!(got.len(), 20);
        assert_eq!(got[7], b"application datagram 7");
    }

    #[test]
    fn a_byte_at_a_time_feed_yields_the_one_shot_datagrams() {
        // Every cut, including the ones inside a 5-byte record header, in the
        // hello and in the application records after it.
        let config = TlsConfig::default();
        let mut client = TlsSession::client(b"shared secret", config.clone(), 1);
        let mut whole = TlsSession::server(b"shared secret", config.clone(), 2);
        let mut bytewise = TlsSession::server(b"shared secret", config, 2);
        let hello = client.take_outgoing();
        whole.push_incoming(&hello).unwrap();
        client.push_incoming(&whole.take_outgoing()).unwrap();
        let mut wire = hello.clone();
        for msg in [&b"first"[..], &[7u8; 1200], b""] {
            wire.extend_from_slice(&client.seal_datagram(msg).unwrap());
        }
        whole.push_incoming(&wire[hello.len()..]).unwrap();
        let expected = whole.read_datagrams().unwrap();
        assert_eq!(expected, [b"first".to_vec(), vec![7u8; 1200], vec![]]);

        let mut got = Vec::new();
        for byte in &wire {
            bytewise.push_incoming(std::slice::from_ref(byte)).unwrap();
            got.extend(bytewise.read_datagrams().unwrap());
        }
        assert_eq!(got, expected);
        assert_eq!(bytewise.rx_app_start_offset(), hello.len() as u64);
        assert_eq!(
            bytewise.take_outgoing().len(),
            hello.len(),
            "one hello back"
        );
    }

    #[test]
    fn both_directions_are_independent() {
        let (mut client, mut server) = handshake(CipherSuite::Aes128CbcExplicitIv);
        let c2s = client.seal_datagram(b"from client").unwrap();
        let s2c = server.seal_datagram(b"from server").unwrap();
        assert_ne!(c2s, s2c);
        server.push_incoming(&c2s).unwrap();
        client.push_incoming(&s2c).unwrap();
        assert_eq!(
            server.read_datagrams().unwrap(),
            vec![b"from client".to_vec()]
        );
        assert_eq!(
            client.read_datagrams().unwrap(),
            vec![b"from server".to_vec()]
        );
    }

    #[test]
    fn wrong_psk_causes_record_failure() {
        let config = TlsConfig::default();
        let mut client = TlsSession::client(b"secret A", config.clone(), 1);
        let mut server = TlsSession::server(b"secret B", config, 2);
        let c_hello = client.take_outgoing();
        server.push_incoming(&c_hello).unwrap();
        let s_hello = server.take_outgoing();
        client.push_incoming(&s_hello).unwrap();
        // The handshake itself completes (nonces are public), but the derived
        // keys differ, so the first protected record fails to authenticate.
        let wire = client.seal_datagram(b"secret message").unwrap();
        server.push_incoming(&wire).unwrap();
        assert_eq!(server.read_datagrams(), Err(TlsError::BadRecord));
    }

    #[test]
    fn a_record_of_another_version_is_a_bad_record() {
        let (mut client, mut server) = handshake(CipherSuite::Aes128CbcExplicitIv);
        let mut wire = client.seal_datagram(b"intact but for its header").unwrap();
        // The MAC is computed over the negotiated version, so it still
        // verifies: only the header compare can see this change.
        wire[1] ^= 0x01;
        server.push_incoming(&wire).unwrap();
        assert_eq!(server.read_datagrams(), Err(TlsError::BadRecord));
    }

    #[test]
    fn seal_before_established_is_rejected() {
        let mut s = TlsSession::server(b"k", TlsConfig::default(), 3);
        assert_eq!(s.seal_datagram(b"x"), Err(TlsError::NotEstablished));
        assert!(!s.is_established());
    }

    #[test]
    fn chained_iv_suite_also_works_in_order() {
        let (mut client, mut server) = handshake(CipherSuite::Aes128CbcChainedIv);
        let mut wire = Vec::new();
        for i in 0..5u32 {
            wire.extend_from_slice(&client.seal_datagram(format!("m{i}").as_bytes()).unwrap());
        }
        server.push_incoming(&wire).unwrap();
        assert_eq!(server.read_datagrams().unwrap().len(), 5);
    }

    #[test]
    fn tls_bandwidth_overhead_is_under_ten_percent_for_mtu_records() {
        // The paper reports TLS adds up to 10% bandwidth overhead (headers,
        // IVs, MACs) and uTLS adds none beyond that.
        let (mut client, _server) = handshake(CipherSuite::Aes128CbcExplicitIv);
        let payload = vec![0u8; 1400];
        let wire = client.seal_datagram(&payload).unwrap();
        let overhead = (wire.len() - payload.len()) as f64 / payload.len() as f64;
        assert!(overhead < 0.10, "overhead={overhead}");
    }
}
