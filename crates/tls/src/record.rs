//! The TLS record layer: header format, MAC-then-encrypt record protection,
//! and the distinction between chained-IV (TLS 1.0) and explicit-IV
//! (TLS 1.1) block ciphers that uTLS's out-of-order delivery hinges on
//! (paper §6.1).

use minion_crypto::cbc;
use minion_crypto::hmac::{constant_time_eq, HmacSha256};

/// TLS content type for handshake records.
pub(crate) const CONTENT_HANDSHAKE: u8 = 22;
/// TLS content type for application-data records.
pub const CONTENT_APPLICATION_DATA: u8 = 23;
/// Protocol version bytes for "TLS 1.1" (3, 2).
pub const VERSION_TLS11: (u8, u8) = (3, 2);

/// Length of the record header on the wire.
pub const RECORD_HEADER_LEN: usize = 5;
/// Maximum record payload length accepted (as in TLS: 2^14 plus expansion).
const MAX_RECORD_LEN: usize = (1 << 14) + 2048;
/// Length of the record MAC (HMAC-SHA256).
const MAC_LEN: usize = 32;
/// AES block / explicit IV length.
const IV_LEN: usize = 16;

/// A parsed 5-byte record header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordHeader {
    /// Content type (handshake, application data, ...).
    pub content_type: u8,
    /// Protocol version (major, minor).
    pub version: (u8, u8),
    /// Length of the record body that follows the header.
    pub length: usize,
}

impl RecordHeader {
    /// Serialize to the 5-byte wire form.
    pub fn encode(&self) -> [u8; RECORD_HEADER_LEN] {
        let len = self.length as u16;
        [
            self.content_type,
            self.version.0,
            self.version.1,
            (len >> 8) as u8,
            (len & 0xFF) as u8,
        ]
    }

    /// Parse a 5-byte header. This performs **no validation** beyond length —
    /// any 5 bytes parse — because that is exactly the situation the uTLS
    /// receiver is in when scanning a fragment: it must guess and then verify
    /// with the MAC.
    pub fn decode(buf: &[u8]) -> Option<RecordHeader> {
        if buf.len() < RECORD_HEADER_LEN {
            return None;
        }
        Some(RecordHeader {
            content_type: buf[0],
            version: (buf[1], buf[2]),
            length: ((buf[3] as usize) << 8) | buf[4] as usize,
        })
    }

    /// Whether this header is *plausible* as a record header for the given
    /// version: known content type, matching version, and a sane length.
    /// Used by the uTLS scanner as the cheap pre-filter before the expensive
    /// MAC confirmation.
    pub(crate) fn is_plausible(&self, version: (u8, u8)) -> bool {
        (self.content_type == CONTENT_APPLICATION_DATA || self.content_type == CONTENT_HANDSHAKE)
            && self.version == version
            && self.length > 0
            && self.length <= MAX_RECORD_LEN
    }
}

/// The ciphersuites supported by the record layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CipherSuite {
    /// No encryption and no MAC (used only during the initial handshake).
    /// uTLS disables out-of-order delivery under this suite (§6.1).
    Null,
    /// AES-128-CBC with HMAC-SHA256, explicit per-record IV (TLS 1.1 style).
    /// Records are independently decryptable: this is the suite uTLS needs.
    Aes128CbcExplicitIv,
    /// AES-128-CBC with HMAC-SHA256, chained IV (TLS 1.0 style). Records
    /// depend on their predecessor's ciphertext and cannot be decrypted out
    /// of order.
    Aes128CbcChainedIv,
}

impl CipherSuite {
    /// Whether this suite allows records to be decrypted independently.
    pub fn supports_out_of_order(&self) -> bool {
        matches!(self, CipherSuite::Aes128CbcExplicitIv)
    }
}

/// Keys and state for protecting records in one direction.
#[derive(Clone, Debug)]
pub struct RecordProtection {
    suite: CipherSuite,
    enc_key: [u8; 16],
    mac_key: [u8; 32],
    version: (u8, u8),
    /// Chained-IV state (TLS 1.0 mode): last ciphertext block sent/received.
    chain_iv: [u8; IV_LEN],
}

/// Error returned when a record fails authentication or decryption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordError {
    /// The MAC did not verify (or padding/structure was invalid).
    BadRecord,
    /// The body is too short to contain IV + MAC.
    TooShort,
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::BadRecord => write!(f, "record failed authentication"),
            RecordError::TooShort => write!(f, "record body too short"),
        }
    }
}

impl std::error::Error for RecordError {}

impl RecordProtection {
    /// Create record protection for one direction.
    pub fn new(
        suite: CipherSuite,
        enc_key: [u8; 16],
        mac_key: [u8; 32],
        version: (u8, u8),
    ) -> Self {
        RecordProtection {
            suite,
            enc_key,
            mac_key,
            version,
            chain_iv: [0x42; IV_LEN],
        }
    }

    /// The ciphersuite in use.
    pub fn suite(&self) -> CipherSuite {
        self.suite
    }

    /// The protocol version stamped into record headers.
    pub(crate) fn version(&self) -> (u8, u8) {
        self.version
    }

    /// Compute the record MAC over the TLS pseudo-header and plaintext.
    ///
    /// The pseudo-header includes the 64-bit per-record sequence number — the
    /// value the uTLS receiver must *predict* for out-of-order records.
    fn compute_mac(&self, record_number: u64, content_type: u8, plaintext: &[u8]) -> [u8; MAC_LEN] {
        let mut mac = HmacSha256::new(&self.mac_key);
        mac.update(&record_number.to_be_bytes());
        mac.update(&[content_type, self.version.0, self.version.1]);
        mac.update(&(plaintext.len() as u16).to_be_bytes());
        mac.update(plaintext);
        mac.finalize()
    }

    /// A deterministic explicit IV derived from the record number and key
    /// (a CSPRNG in real TLS; determinism keeps simulations reproducible and
    /// does not weaken the properties uTLS relies on).
    fn explicit_iv(&self, record_number: u64) -> [u8; IV_LEN] {
        let mut mac = HmacSha256::new(&self.enc_key);
        mac.update(b"explicit iv");
        mac.update(&record_number.to_be_bytes());
        let digest = mac.finalize();
        let mut iv = [0u8; IV_LEN];
        iv.copy_from_slice(&digest[..IV_LEN]);
        iv
    }

    /// Protect one record: returns the full wire bytes (header + body).
    pub fn seal(&mut self, record_number: u64, content_type: u8, plaintext: &[u8]) -> Vec<u8> {
        let body = match self.suite {
            CipherSuite::Null => plaintext.to_vec(),
            CipherSuite::Aes128CbcExplicitIv => {
                let mac = self.compute_mac(record_number, content_type, plaintext);
                let mut to_encrypt = plaintext.to_vec();
                to_encrypt.extend_from_slice(&mac);
                let iv = self.explicit_iv(record_number);
                let ciphertext = cbc::encrypt(&self.enc_key, &iv, &to_encrypt);
                let mut body = iv.to_vec();
                body.extend_from_slice(&ciphertext);
                body
            }
            CipherSuite::Aes128CbcChainedIv => {
                let mac = self.compute_mac(record_number, content_type, plaintext);
                let mut to_encrypt = plaintext.to_vec();
                to_encrypt.extend_from_slice(&mac);
                let iv = self.chain_iv;
                let ciphertext = cbc::encrypt(&self.enc_key, &iv, &to_encrypt);
                // Next record chains off this record's final ciphertext block.
                self.chain_iv
                    .copy_from_slice(&ciphertext[ciphertext.len() - IV_LEN..]);
                ciphertext
            }
        };
        let header = RecordHeader {
            content_type,
            version: self.version,
            length: body.len(),
        };
        let mut out = Vec::with_capacity(RECORD_HEADER_LEN + body.len());
        out.extend_from_slice(&header.encode());
        out.extend_from_slice(&body);
        out
    }

    /// Verify and decrypt one record body given its header and the record
    /// number to authenticate against. This is used both by the in-order
    /// receiver (which knows the record number) and by the uTLS receiver
    /// (which guesses it and treats failure as "wrong guess").
    pub fn open(
        &mut self,
        record_number: u64,
        header: &RecordHeader,
        body: &[u8],
    ) -> Result<Vec<u8>, RecordError> {
        if body.len() != header.length {
            return Err(RecordError::TooShort);
        }
        match self.suite {
            CipherSuite::Null => Ok(body.to_vec()),
            CipherSuite::Aes128CbcExplicitIv => {
                if body.len() < IV_LEN + MAC_LEN {
                    return Err(RecordError::TooShort);
                }
                let mut iv = [0u8; IV_LEN];
                iv.copy_from_slice(&body[..IV_LEN]);
                let plaintext_mac = cbc::decrypt(&self.enc_key, &iv, &body[IV_LEN..])
                    .map_err(|_| RecordError::BadRecord)?;
                if plaintext_mac.len() < MAC_LEN {
                    return Err(RecordError::BadRecord);
                }
                let (plaintext, mac) = plaintext_mac.split_at(plaintext_mac.len() - MAC_LEN);
                let expected = self.compute_mac(record_number, header.content_type, plaintext);
                if !constant_time_eq(mac, &expected) {
                    return Err(RecordError::BadRecord);
                }
                Ok(plaintext.to_vec())
            }
            CipherSuite::Aes128CbcChainedIv => {
                if body.len() < IV_LEN + MAC_LEN {
                    return Err(RecordError::TooShort);
                }
                let iv = self.chain_iv;
                let plaintext_mac =
                    cbc::decrypt(&self.enc_key, &iv, body).map_err(|_| RecordError::BadRecord)?;
                if plaintext_mac.len() < MAC_LEN {
                    return Err(RecordError::BadRecord);
                }
                let (plaintext, mac) = plaintext_mac.split_at(plaintext_mac.len() - MAC_LEN);
                let expected = self.compute_mac(record_number, header.content_type, plaintext);
                if !constant_time_eq(mac, &expected) {
                    return Err(RecordError::BadRecord);
                }
                self.chain_iv.copy_from_slice(&body[body.len() - IV_LEN..]);
                Ok(plaintext.to_vec())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn protection(suite: CipherSuite) -> (RecordProtection, RecordProtection) {
        let enc = *b"0123456789abcdef";
        let mac = [7u8; 32];
        (
            RecordProtection::new(suite, enc, mac, VERSION_TLS11),
            RecordProtection::new(suite, enc, mac, VERSION_TLS11),
        )
    }

    fn split(wire: &[u8]) -> (RecordHeader, &[u8]) {
        let h = RecordHeader::decode(wire).unwrap();
        (h, &wire[RECORD_HEADER_LEN..])
    }

    #[test]
    fn header_roundtrip_and_plausibility() {
        let h = RecordHeader {
            content_type: CONTENT_APPLICATION_DATA,
            version: VERSION_TLS11,
            length: 1234,
        };
        assert_eq!(RecordHeader::decode(&h.encode()), Some(h));
        assert!(h.is_plausible(VERSION_TLS11));
        assert!(!h.is_plausible((3, 1)));
        let bad = RecordHeader {
            content_type: 99,
            ..h
        };
        assert!(!bad.is_plausible(VERSION_TLS11));
        let too_long = RecordHeader {
            length: MAX_RECORD_LEN + 1,
            ..h
        };
        assert!(!too_long.is_plausible(VERSION_TLS11));
        assert!(RecordHeader::decode(&[1, 2, 3]).is_none());
    }

    #[test]
    fn explicit_iv_seal_open_roundtrip() {
        let (mut tx, mut rx) = protection(CipherSuite::Aes128CbcExplicitIv);
        for n in 0..10u64 {
            let msg = format!("record number {n}");
            let wire = tx.seal(n, CONTENT_APPLICATION_DATA, msg.as_bytes());
            let (h, body) = split(&wire);
            assert_eq!(h.length, body.len());
            let plain = rx.open(n, &h, body).unwrap();
            assert_eq!(plain, msg.as_bytes());
        }
    }

    #[test]
    fn explicit_iv_records_decrypt_out_of_order() {
        let (mut tx, mut rx) = protection(CipherSuite::Aes128CbcExplicitIv);
        let wires: Vec<Vec<u8>> = (0..5u64)
            .map(|n| tx.seal(n, CONTENT_APPLICATION_DATA, format!("msg{n}").as_bytes()))
            .collect();
        // Open in reverse order: must still verify.
        for n in (0..5u64).rev() {
            let (h, body) = split(&wires[n as usize]);
            assert_eq!(rx.open(n, &h, body).unwrap(), format!("msg{n}").as_bytes());
        }
    }

    #[test]
    fn chained_iv_records_fail_out_of_order() {
        let (mut tx, mut rx) = protection(CipherSuite::Aes128CbcChainedIv);
        let w0 = tx.seal(0, CONTENT_APPLICATION_DATA, b"first record");
        let w1 = tx.seal(1, CONTENT_APPLICATION_DATA, b"second record");
        // Skipping record 0 leaves the receiver's chain IV wrong for record 1.
        let (h1, b1) = split(&w1);
        assert!(rx.open(1, &h1, b1).is_err());
        // In order, both open fine.
        let (mut _tx2, mut rx2) = protection(CipherSuite::Aes128CbcChainedIv);
        let (h0, b0) = split(&w0);
        assert_eq!(rx2.open(0, &h0, b0).unwrap(), b"first record");
        let (h1, b1) = split(&w1);
        assert_eq!(rx2.open(1, &h1, b1).unwrap(), b"second record");
    }

    #[test]
    fn wrong_record_number_fails_mac() {
        let (mut tx, mut rx) = protection(CipherSuite::Aes128CbcExplicitIv);
        let wire = tx.seal(5, CONTENT_APPLICATION_DATA, b"tied to number five");
        let (h, body) = split(&wire);
        assert_eq!(rx.open(4, &h, body), Err(RecordError::BadRecord));
        assert_eq!(rx.open(6, &h, body), Err(RecordError::BadRecord));
        assert!(rx.open(5, &h, body).is_ok());
    }

    #[test]
    fn tampered_ciphertext_fails_mac() {
        let (mut tx, mut rx) = protection(CipherSuite::Aes128CbcExplicitIv);
        let mut wire = tx.seal(0, CONTENT_APPLICATION_DATA, b"integrity protected");
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        let (h, body) = split(&wire);
        assert_eq!(rx.open(0, &h, body), Err(RecordError::BadRecord));
    }

    #[test]
    fn wrong_content_type_fails_mac() {
        let (mut tx, mut rx) = protection(CipherSuite::Aes128CbcExplicitIv);
        let wire = tx.seal(0, CONTENT_APPLICATION_DATA, b"typed");
        let (mut h, body) = split(&wire);
        h.content_type = CONTENT_HANDSHAKE;
        assert_eq!(rx.open(0, &h, body), Err(RecordError::BadRecord));
    }

    #[test]
    fn null_suite_passes_plaintext() {
        let (mut tx, mut rx) = protection(CipherSuite::Null);
        let wire = tx.seal(0, CONTENT_HANDSHAKE, b"hello unprotected");
        let (h, body) = split(&wire);
        assert_eq!(rx.open(0, &h, body).unwrap(), b"hello unprotected");
        assert!(!CipherSuite::Null.supports_out_of_order());
        assert!(CipherSuite::Aes128CbcExplicitIv.supports_out_of_order());
        assert!(!CipherSuite::Aes128CbcChainedIv.supports_out_of_order());
    }

    #[test]
    fn record_expansion_is_bounded() {
        let (mut tx, _) = protection(CipherSuite::Aes128CbcExplicitIv);
        let payload = vec![0u8; 1400];
        let wire = tx.seal(0, CONTENT_APPLICATION_DATA, &payload);
        // Header + IV + padding + MAC: well under 10% for MTU-sized records.
        let overhead = wire.len() - payload.len();
        assert!(overhead <= RECORD_HEADER_LEN + IV_LEN + MAC_LEN + 16);
    }
}
