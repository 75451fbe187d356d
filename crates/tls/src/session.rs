//! A TLS-style session: simplified PSK handshake, key schedule, record
//! sealing, and the connection's one receive path.
//!
//! The handshake replaces TLS's public-key exchange with a pre-shared-key
//! exchange (two `ClientHello`/`ServerHello`-style messages carrying random
//! nonces); README's "Substitutions" section says why this preserves the
//! behaviour the paper evaluates. Everything downstream of the handshake —
//! record framing, MAC pseudo-header with an implicit record number,
//! explicit IVs, MAC-then-encrypt — follows the TLS 1.1 structure.
//!
//! The session receives through a [`UtlsReceiver`] from byte 0 of the
//! connection: that receiver's store is the only copy of the incoming stream
//! (the socket above holds none) and its in-order pass the only record
//! parser, for the hellos, for stream TLS and for uTLS alike. It starts in
//! the handshake *epoch* — null protection, one handshake record handed over
//! at a time — and the session installs the derived keys the moment it has
//! them, which starts the application epoch at the byte after the peer's
//! hello. Stream TLS needs no switch: a standard-TCP receiver only ever
//! hands over in-order chunks, so the out-of-order pass finds nothing ahead
//! of the in-order point to scan.

use crate::record::{
    CipherSuite, RecordProtection, CONTENT_APPLICATION_DATA, CONTENT_HANDSHAKE, VERSION_TLS11,
};
use crate::utls::{UtlsReceiver, UtlsRecord, UtlsStats};
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
enum Role {
    Client,
    Server,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HandshakeState {
    /// Waiting for the peer's hello (the client has sent its own).
    AwaitingHello,
    /// Keys derived; application data may flow.
    Established,
    /// The peer's hello was malformed; nothing is delivered from here on.
    Failed,
}

/// Errors from the TLS session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlsError {
    /// Handshake data was malformed.
    BadHandshake,
    /// Operation requires an established session.
    NotEstablished,
}

impl std::fmt::Display for TlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlsError::BadHandshake => write!(f, "malformed handshake message"),
            TlsError::NotEstablished => write!(f, "session not established"),
        }
    }
}

impl std::error::Error for TlsError {}

const HELLO_MAGIC: &[u8; 4] = b"MHLO";
const RANDOM_LEN: usize = 32;
/// Maximum plaintext bytes per application record.
const MAX_RECORD_PAYLOAD: usize = 16 * 1024;
/// How many record-number candidates the receiver tries on each side of its
/// estimate.
const PREDICTION_WINDOW: u64 = 8;

/// The handshake epoch's protection, either direction.
fn null_protection() -> RecordProtection {
    RecordProtection::new(CipherSuite::Null, [0; 16], [0; 32], VERSION_TLS11)
}

/// The byte a hello names its ciphersuite by.
fn suite_id(suite: CipherSuite) -> u8 {
    match suite {
        CipherSuite::Null => 0,
        CipherSuite::Aes128CbcExplicitIv => 1,
        CipherSuite::Aes128CbcChainedIv => 2,
    }
}

/// A TLS session endpoint.
pub struct TlsSession {
    role: Role,
    config: TlsConfig,
    psk: Vec<u8>,
    state: HandshakeState,
    local_random: [u8; RANDOM_LEN],
    /// Send-direction protection: null until the keys are derived.
    tx: RecordProtection,
    tx_record_number: u64,
    /// The receive path, and the one holder of the incoming stream.
    receiver: UtlsReceiver,
    /// Bytes queued for transmission (handshake messages).
    outbuf: Vec<u8>,
}

impl TlsSession {
    fn new(role: Role, psk: &[u8], config: TlsConfig, seed: u64) -> Self {
        let mut rng = SimRng::new(seed).fork(match role {
            Role::Client => "tls-client",
            Role::Server => "tls-server",
        });
        let mut local_random = [0u8; RANDOM_LEN];
        rng.fill_bytes(&mut local_random);
        TlsSession {
            role,
            config,
            psk: psk.to_vec(),
            state: HandshakeState::AwaitingHello,
            local_random,
            tx: null_protection(),
            tx_record_number: 0,
            receiver: UtlsReceiver::new(null_protection(), PREDICTION_WINDOW).in_handshake_epoch(),
            outbuf: Vec::new(),
        }
    }

    /// Create a client session. The client hello is queued immediately and
    /// available from [`take_outgoing`](Self::take_outgoing).
    pub fn client(psk: &[u8], config: TlsConfig, seed: u64) -> Self {
        let mut s = TlsSession::new(Role::Client, psk, config, seed);
        s.queue_hello();
        s
    }

    /// Create a server session, which waits for the client hello.
    pub fn server(psk: &[u8], config: TlsConfig, seed: u64) -> Self {
        TlsSession::new(Role::Server, psk, config, seed)
    }

    /// Whether the handshake has completed.
    pub fn is_established(&self) -> bool {
        self.state == HandshakeState::Established
    }

    /// The receiver's counters; they start at the application epoch.
    pub fn receiver_stats(&self) -> &UtlsStats {
        self.receiver.stats()
    }

    /// Bytes of the incoming stream currently held.
    pub fn buffered_bytes(&self) -> usize {
        self.receiver.buffered_bytes()
    }

    /// Queue this side's hello; `tx` is still the null protection.
    fn queue_hello(&mut self) {
        let mut body = Vec::with_capacity(4 + RANDOM_LEN + 1);
        body.extend_from_slice(HELLO_MAGIC);
        body.extend_from_slice(&self.local_random);
        body.push(suite_id(self.config.suite));
        let hello = self.tx.seal(0, CONTENT_HANDSHAKE, &body);
        self.outbuf.extend_from_slice(&hello);
    }

    /// Derive both directions' keys and start the receiver's application
    /// epoch; returns what it can deliver of the bytes it already holds.
    fn derive_keys(&mut self, peer_random: [u8; RANDOM_LEN]) -> Vec<UtlsRecord> {
        let (client_random, server_random) = match self.role {
            Role::Client => (self.local_random, peer_random),
            Role::Server => (peer_random, self.local_random),
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
        let suite = self.config.suite;
        self.tx = RecordProtection::new(suite, tx_enc, tx_mac, VERSION_TLS11);
        self.state = HandshakeState::Established;
        self.receiver
            .install_keys(RecordProtection::new(suite, rx_enc, rx_mac, VERSION_TLS11))
    }

    /// Feed a chunk of the incoming stream at its stream offset, in any
    /// order, and return the application records deliverable now.
    ///
    /// The peer's hello is consumed here: the server queues its own in
    /// response (fetch it with [`take_outgoing`](Self::take_outgoing)), the
    /// keys are installed, and application bytes that had arrived ahead of
    /// the hello come out in the same call. A malformed hello is an error
    /// now and on every later call.
    pub fn on_fragment(&mut self, offset: u64, data: &[u8]) -> Result<Vec<UtlsRecord>, TlsError> {
        if self.state == HandshakeState::Failed {
            return Err(TlsError::BadHandshake);
        }
        let mut records = self.receiver.on_fragment(offset, data);
        if self.state == HandshakeState::AwaitingHello {
            // The handshake epoch hands over one record at a time.
            if let Some(hello) = records.pop() {
                records = self.process_hello(&hello.payload).inspect_err(|_| {
                    self.state = HandshakeState::Failed;
                })?;
            }
        }
        Ok(records)
    }

    fn process_hello(&mut self, hello: &[u8]) -> Result<Vec<UtlsRecord>, TlsError> {
        if hello.len() < 4 + RANDOM_LEN + 1
            || &hello[..4] != HELLO_MAGIC
            || hello[4 + RANDOM_LEN] != suite_id(self.config.suite)
        {
            return Err(TlsError::BadHandshake);
        }
        let mut peer_random = [0u8; RANDOM_LEN];
        peer_random.copy_from_slice(&hello[4..4 + RANDOM_LEN]);
        if self.role == Role::Server {
            self.queue_hello();
        }
        Ok(self.derive_keys(peer_random))
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
        let wire = self
            .tx
            .seal(self.tx_record_number, CONTENT_APPLICATION_DATA, data);
        self.tx_record_number += 1;
        Ok(wire)
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
        assert!(feed(&mut server, 0, &c_hello).is_empty());
        let s_hello = server.take_outgoing();
        assert!(feed(&mut client, 0, &s_hello).is_empty());
        assert!(client.is_established());
        assert!(server.is_established());
        (client, server)
    }

    /// Feed `wire` at stream offset `offset`; the payloads delivered.
    fn feed(session: &mut TlsSession, offset: u64, wire: &[u8]) -> Vec<Vec<u8>> {
        let records = session.on_fragment(offset, wire).unwrap();
        records.into_iter().map(|r| r.payload).collect()
    }

    /// The stream offset the session's in-order point stands at.
    fn in_order_offset(session: &TlsSession) -> u64 {
        session.receiver.in_order_offset()
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let (mut client, mut server) = handshake(CipherSuite::Aes128CbcExplicitIv);
        // Each consumed the other's hello, kept none of it and owes nothing.
        for session in [&mut client, &mut server] {
            assert!(in_order_offset(session) > 0);
            assert_eq!(session.buffered_bytes(), 0);
            assert!(session.take_outgoing().is_empty());
            assert_eq!(session.receiver_stats(), &UtlsStats::default());
        }
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
        let mut offset = in_order_offset(&server);
        let mut got = Vec::new();
        for chunk in wire.chunks(313) {
            got.extend(feed(&mut server, offset, chunk));
            offset += chunk.len() as u64;
        }
        assert_eq!(got.len(), 20);
        assert_eq!(got[7], b"application datagram 7");
        assert_eq!(server.receiver_stats().in_order_delivered, 20);
    }

    #[test]
    fn a_byte_at_a_time_feed_yields_the_one_shot_datagrams() {
        // Every cut, including the ones inside a 5-byte record header, in
        // either side's hello and in the application records after it.
        let config = TlsConfig::default();
        let session_pair = || {
            (
                TlsSession::client(b"shared secret", config.clone(), 1),
                TlsSession::server(b"shared secret", config.clone(), 2),
            )
        };
        let messages = [&b"first"[..], &[7u8; 1200], b""];
        let expected = [b"first".to_vec(), vec![7u8; 1200], vec![]];

        // Each side's whole incoming stream, and what a one-shot feed of it
        // delivers.
        let (mut client, mut server) = session_pair();
        let mut to_server = client.take_outgoing();
        assert!(feed(&mut server, 0, &to_server).is_empty());
        let mut to_client = server.take_outgoing();
        let (c_hello_len, s_hello_len) = (to_server.len(), to_client.len());
        assert!(feed(&mut client, 0, &to_client).is_empty());
        for msg in messages {
            to_server.extend_from_slice(&client.seal_datagram(msg).unwrap());
            to_client.extend_from_slice(&server.seal_datagram(msg).unwrap());
        }
        assert_eq!(
            feed(&mut server, c_hello_len as u64, &to_server[c_hello_len..]),
            expected
        );
        assert_eq!(
            feed(&mut client, s_hello_len as u64, &to_client[s_hello_len..]),
            expected
        );

        let (mut client, mut server) = session_pair();
        assert_eq!(client.take_outgoing().len(), c_hello_len);
        for (session, stream, hello_back) in [
            (&mut server, &to_server, s_hello_len),
            (&mut client, &to_client, 0),
        ] {
            let mut got = Vec::new();
            for (offset, byte) in stream.iter().enumerate() {
                got.extend(feed(session, offset as u64, std::slice::from_ref(byte)));
            }
            assert_eq!(got, expected);
            assert_eq!(in_order_offset(session), stream.len() as u64);
            assert_eq!(session.buffered_bytes(), 0);
            assert_eq!(
                session.take_outgoing().len(),
                hello_back,
                "one hello back from the server, none from the client"
            );
        }
    }

    #[test]
    fn both_directions_are_independent() {
        let (mut client, mut server) = handshake(CipherSuite::Aes128CbcExplicitIv);
        let c2s = client.seal_datagram(b"from client").unwrap();
        let s2c = server.seal_datagram(b"from server").unwrap();
        assert_ne!(c2s, s2c);
        let (to_server, to_client) = (in_order_offset(&server), in_order_offset(&client));
        assert_eq!(
            feed(&mut server, to_server, &c2s),
            vec![b"from client".to_vec()]
        );
        assert_eq!(
            feed(&mut client, to_client, &s2c),
            vec![b"from server".to_vec()]
        );
    }

    /// Nothing came of `wire`, fed at the in-order point: the session stalls
    /// at that record and keeps its bytes.
    fn assert_stalls_at(server: &mut TlsSession, wire: &[u8]) {
        let at = in_order_offset(server);
        assert!(feed(server, at, wire).is_empty());
        assert_eq!(in_order_offset(server), at);
        assert_eq!(server.buffered_bytes(), wire.len());
        assert_eq!(server.receiver_stats().in_order_opens, 0);
    }

    #[test]
    fn wrong_psk_causes_record_failure() {
        let config = TlsConfig::default();
        let mut client = TlsSession::client(b"secret A", config.clone(), 1);
        let mut server = TlsSession::server(b"secret B", config, 2);
        let c_hello = client.take_outgoing();
        assert!(feed(&mut server, 0, &c_hello).is_empty());
        let s_hello = server.take_outgoing();
        assert!(feed(&mut client, 0, &s_hello).is_empty());
        // The handshake itself completes (nonces are public), but the derived
        // keys differ, so the first protected record fails to authenticate.
        assert!(client.is_established() && server.is_established());
        let wire = client.seal_datagram(b"secret message").unwrap();
        assert_stalls_at(&mut server, &wire);
    }

    #[test]
    fn a_record_of_another_version_is_a_bad_record() {
        let (mut client, mut server) = handshake(CipherSuite::Aes128CbcExplicitIv);
        let mut wire = client.seal_datagram(b"intact but for its header").unwrap();
        // The MAC is computed over the negotiated version, so it still
        // verifies: only the header compare can see this change.
        wire[1] ^= 0x01;
        assert_stalls_at(&mut server, &wire);
    }

    #[test]
    fn records_before_a_damaged_one_are_delivered_and_the_stream_stalls_there() {
        // Four records, one byte of the third flipped. The parent's second
        // in-order parser, handed all four at once, returned `BadRecord`,
        // dropped the two intact records it had already opened (0 delivered)
        // and had drained the damaged one, so it tried the fourth under the
        // wrong number: the session was desynchronised for good.
        let payloads: Vec<Vec<u8>> = (0..4u8).map(|n| vec![n; 300]).collect();
        let stream_from = |client: &mut TlsSession| {
            let mut stream = Vec::new();
            let mut starts = Vec::new();
            for payload in &payloads {
                starts.push(stream.len());
                stream.extend(client.seal_datagram(payload).unwrap());
            }
            let third = starts[2] + (starts[3] - starts[2]) / 2;
            stream[third] ^= 0x40;
            (stream, starts)
        };

        // In order, as a standard-TCP receiver hands the stream over.
        let (mut client, mut server) = handshake(CipherSuite::Aes128CbcExplicitIv);
        let base = in_order_offset(&server);
        let (stream, starts) = stream_from(&mut client);
        let mut got = feed(&mut server, base, &stream);
        got.extend(feed(&mut server, base, &stream));
        assert_eq!(got, payloads[..2], "records 0 and 1, exactly once");
        assert_eq!(in_order_offset(&server), base + starts[2] as u64);
        assert_eq!(server.buffered_bytes(), stream.len() - starts[2]);
        assert_eq!(server.receiver_stats().out_of_order_delivered, 0);

        // Shuffled, as uTCP hands it over: the last piece first.
        let (mut client, mut server) = handshake(CipherSuite::Aes128CbcExplicitIv);
        let (stream, starts) = stream_from(&mut client);
        let mut got = Vec::new();
        for (i, piece) in stream.chunks(150).enumerate().rev() {
            got.extend(feed(&mut server, base + 150 * i as u64, piece));
        }
        assert!(!got.contains(&payloads[2]), "the damaged record came out");
        for payload in &payloads {
            assert!(got.iter().filter(|&p| p == payload).count() <= 1);
        }
        assert_eq!(got.len(), 3, "the fourth under its own MAC, out of order");
        assert_eq!(in_order_offset(&server), base + starts[2] as u64);
    }

    #[test]
    fn a_hello_naming_another_suite_fails_the_handshake_for_good() {
        let explicit = TlsConfig::default();
        let chained = TlsConfig {
            suite: CipherSuite::Aes128CbcChainedIv,
        };
        let mut client = TlsSession::client(b"shared secret", explicit, 1);
        let mut server = TlsSession::server(b"shared secret", chained.clone(), 2);
        let c_hello = client.take_outgoing();
        assert_eq!(server.on_fragment(0, &c_hello), Err(TlsError::BadHandshake));
        assert!(server.take_outgoing().is_empty(), "no hello back");

        // A well-formed hello behind the malformed one does not revive it,
        // and nothing sealed under the keys it would have given comes out.
        let mut peer = TlsSession::client(b"shared secret", chained.clone(), 3);
        let mut later = peer.take_outgoing();
        let mut twin = TlsSession::server(b"shared secret", chained, 2);
        assert!(feed(&mut twin, 0, &later).is_empty());
        let s_hello = twin.take_outgoing();
        assert!(feed(&mut peer, 0, &s_hello).is_empty());
        later.extend(peer.seal_datagram(b"for the twin only").unwrap());
        assert_eq!(
            server.on_fragment(c_hello.len() as u64, &later),
            Err(TlsError::BadHandshake)
        );
        assert!(!server.is_established());
        assert_eq!(server.seal_datagram(b"x"), Err(TlsError::NotEstablished));

        // The other way round: a chained-IV server's hello reaches the
        // explicit-IV client.
        assert_eq!(client.on_fragment(0, &s_hello), Err(TlsError::BadHandshake));
        assert!(!client.is_established());
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
        let at = in_order_offset(&server);
        assert_eq!(feed(&mut server, at, &wire).len(), 5);
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
