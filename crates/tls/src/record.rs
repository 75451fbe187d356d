//! The TLS record layer: header format, MAC-then-encrypt record protection,
//! and the distinction between chained-IV (TLS 1.0) and explicit-IV
//! (TLS 1.1) block ciphers that uTLS's out-of-order delivery hinges on
//! (paper §6.1).

use minion_crypto::cbc::Cbc;
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

/// Keyed state for protecting records in one direction.
///
/// Everything a key determines is built once, when the keys are installed
/// ([`RecordProtection::new`]): the AES key schedules and the HMAC pad
/// midstates. Sealing or opening a record then costs the record's own
/// blocks and nothing per key; the raw keys are not kept.
#[derive(Clone, Debug)]
pub struct RecordProtection {
    suite: CipherSuite,
    version: (u8, u8),
    /// AES-128-CBC under the encryption key.
    cipher: Cbc,
    /// HMAC keyed with the MAC key: the record MAC.
    mac: HmacSha256,
    /// HMAC keyed with the encryption key: the explicit-IV derivation.
    iv_mac: HmacSha256,
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
            version,
            cipher: Cbc::new(&enc_key),
            mac: HmacSha256::new(&mac_key),
            iv_mac: HmacSha256::new(&enc_key),
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
        let mut mac = self.mac.clone();
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
        let mut mac = self.iv_mac.clone();
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
                let ciphertext = self.cipher.encrypt(&iv, &to_encrypt);
                let mut body = iv.to_vec();
                body.extend_from_slice(&ciphertext);
                body
            }
            CipherSuite::Aes128CbcChainedIv => {
                let mac = self.compute_mac(record_number, content_type, plaintext);
                let mut to_encrypt = plaintext.to_vec();
                to_encrypt.extend_from_slice(&mac);
                let iv = self.chain_iv;
                let ciphertext = self.cipher.encrypt(&iv, &to_encrypt);
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
                let plaintext_mac = self
                    .cipher
                    .decrypt(&iv, &body[IV_LEN..])
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
                let plaintext_mac = self
                    .cipher
                    .decrypt(&iv, body)
                    .map_err(|_| RecordError::BadRecord)?;
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

    /// The wire bytes of records 0–4, holding 0, 1, 15, 16 and 1200 bytes,
    /// under fixed keys: what any change to the cipher, the MAC or the IV
    /// derivation must leave as it is.
    const GOLDEN_EXPLICIT_IV: [&str; 5] = [
        "1703020040cc0d709462c080606bc5457a943408fbce44baaa4f7b69e0568037954724f2389fdee35af5f701\
         a06a03a7b566e2319f821cb81d351dd9425e5405c47bef186f",
        "1703020040b2d345815b1df8a0af07f5ff7868f4e9e382de33a9a5e588b0ec0c57a15430dbd896ddf19e5500\
         61bcd4a3eaea8b907025ee68ba6fdd2d2eb38cfcf5bf16449f",
        "170302004096fa23cb318a09f3ad4a5e7f077ebfb9b637cd5880bcf267bac4758ee4cef0eee67d2174b02d03\
         aff7cc2db5b78ebd79109f4be426129fa8810df9683b9c0a0a",
        "170302005016e0d67f82a8c3015f17821dcf5f837fb496486f8513743a01f6b00ac3b721377d0cd191735f81\
         8ac81eaea5ece7dec969283797f861c698b5a1be10115bae29c180b0dcb482d8bb5c214d577239ca58",
        "17030204f036a912674e6ff8baeeddbb16029e877a7d482c52d97cd4b1b0a7d7c6f1891cf32b5b5803799398\
         4c63e3c2007c71707d4e5b2947eafdbfd004226e92e32ae41bd0ae51fba267e6bb16cfa4c8a0077a8124fed2\
         248f3d65736af194bee2db2ec1eb0aa1d79c448191bcb3d55d171a265599e09d75aaf000a99c4e9856b249ab\
         e19e3102c9437c0464d759d40879efad175f232f5becb78904c7a7af11f97fa35479791fc7ddd05211feb2c9\
         5fbcb7983c4882093ba504d6b56b1d9279b55536651b77c242b923c6e8b8dbdf13212b19c997def1cdba8156\
         9758e52107b0a4954d2e8a346c37a3f9edd2f89be3ec4737c8b7a60234ec3d24ad44bee6bf304cbff7ed9818\
         37d89eba78cb4e909b340ae48dd58f1ffc4d004eea2cad7e76d887a8e9ee9064777850e475dea0d5d82a4f2b\
         ccf50cf0572dd1c38d5c43d7615f6ada271f46cb4ae2208a21f83bd20bbbc14fe09b4e9ded30969a96963bf9\
         cdc681239a195596adb1f90db91cb7cf9bb763e7deee557176e7fadb3381bed2f8e32efb6d0e0c9f1f32ebe6\
         7edfe541ae86f2c42332e37cfdbe16896d52f628bf3c9848c277a7b25116fdd80296a193a703f7666ef311dc\
         8584a61c9a0d08a2b5195f2da15044c90d045fcb6194f236403577f099bafd256cc211854e8096fd191e30bf\
         c05b87b59afee3f6031cb492beb0857f306bc0dce506889bf67f22134f9b25a97704f290ab00f7c48e5fa462\
         a062743a01edcadff947a0ecbd86883c2384cfa5220cc766cbb5c5626fc8d8fd2fff54c85971d4412ad6a8e4\
         032196b4993df18ea2b0d9e53e5b79762cc33c151f06d54fd35c2f39b56873fc793852fee1415ee8655d9761\
         69980eaf4bcb8bb31cd20961e2fa4cabf4f85d1b60c80c934ea3eac30170f4869d0b56cedc5799a0bf346405\
         02ecfc77fbdea627b5437e55f928a019cfc7b5ca445cff525c069b81d4b62a2ba072d808fd17bb2cf88a5925\
         b5344fcb958188a6a07576f56b03c976484239790d7ea5c821dab988ee00364646c23326ee0aea56fbe44bd7\
         78d39c7fd22a2260b1064dca0f69cd26728445f4ac3cdaaab1e7fef93e2691d00d12074783b7af5a70809b0d\
         22df6736b8924b60055cbb989a6206ff9b4394f16c1edd5846137e11da0723a8df20c2a4313f18df310e9bdb\
         d05f98815877e7fb53faa210d86a0c6ceb6772fc50c56578f73bebad8f406f213f7497ec482f3ab4e3c1bd81\
         ea7ec0b0a0784c0e06fc7b3db81252ac73cd992674cd8fb58bc370d51cdce62a62db09be55a56cbded7ef8d1\
         76c9cc892c038241ced7aff2fba7f6dd1b0bf0b7308bfeaa16a47b3a07d71ac261b26c58fb7d25a954995fd3\
         cffb88500297d6d269e01aedf1d61db85c7922feab2dc01d97482b7076ef3977e28000aaa39f2704ffc0908a\
         3c782ce7745924dea878eeda666d65d40a0fc7be2607a113f551aa86c82f7ace55618444f72a8a9886ed038f\
         225ae78232221b88e6c33930750c68feb75f650a8539555e7dcd36ae6f4d58da32e5d4949b41c01ae39e2b32\
         39f5a5b2fd43ae9ac39cca8d11551c5a0be9d6286ab37cfc7d278cdc94e94b4234f2a70ff28fe51967ec1c34\
         13a744c448cc088857cc0a581535c28b0891dc5485739be1c50462e7122a384b5a50e4b5c487feefef70f965\
         0080f1e1b8b99235abdeb88ac4b7601f0aeb0df54224a7aa2de13101593985dcdae20b2460c3d0cab28bcf74\
         441bb69ed9460485cb42297e70215651f026d0c42359c26bf3163a68647040e34e20347afe",
    ];

    const GOLDEN_CHAINED_IV: [&str; 5] = [
        "17030200304d164fd743b54598563c2de80ee3358d15c8e3a188bdc4b4ecd074a00732fd9872a043d3fb3c04\
         b2bee85635b5c7e235",
        "170302003014333a3ec12720a5539ac7d29321a5af883e6b5a1225f5ccd3f471bf865ba19d6dbc62595e2b87\
         74c6efd37ae0aad35a",
        "1703020030df7b38ed21db78dcce505713ab8e1d5b7af2ae01855fb65dbb8a29f00b3dc266fd35054a93c828\
         fb226884825cfcd0c2",
        "17030200408200e91eccbe1511273fc675d43a102f0e4499fc91f72cedbfe22d2824f2c6d96436e8f8ac3ce8\
         093f94bb923101cc3dd8ad808e4ac233bc077e61ea3d71dc7b",
        "17030204e007d06450555d11cdd7b5365d0561a26a9789c3e9fe6626b1b536c545efb13f9ab66b3a8769b265\
         86a648d608bb8b4ce970f6f0f97a14deb719465d4f9ce88a574795a02c1af6edfc5c5471eb56c669be24df92\
         c1b84d99d76cda64336a6908cfc48873e11e32faac1f8e9867376b4c92a5a6b8403667320094fb2ddcc353d9\
         77599ba4d00fbf61953e4ce153539ba7520e129ab54b72314f104eb2455ac1fc3203293ed2f5d205ab9c5f38\
         36d08379b8bb679be9c7cdcfe695a87beb35c1223bb2ce5d767c3ce9fccf5bd44a29a38820c56888ed597a1c\
         a5bed0811e65fb3ab011b448d94f80b85f79e70329804061510f3b141b8f07525a6a91409b55f617d14f2b47\
         7079061e6d431dd015c6a4f3da4e092bc6754263942c1ed00286a1bc9af2bea838b238c8991d37075e279f07\
         4970b1d77ed9bba72c5b7883495e085f5d177c7126fe338ad854668bfbcf034ad4bdf724199ec996ddf0750f\
         6e4f2db8bdad72310be1dbb988b6ce28e2474be1faa71421b08a4019f7ef253de44e06ea2a8b33d77bb79a61\
         9e17bf520dbeaf16d0ef4428ed83c61bd8edf90f7ae75a5c6f2677faac099ce8c87337d64243ee197d013759\
         c5b7d9d8737b1b0e4139428af93f32d1d6cfe297afa51709b2c1f714931927d66e18d9e4bb718d74f98049a8\
         05bba063e6fae5a2b679ee2c4a81697a691912f033d4120cf4e9b29c15ef513ed4206015ea10dd9a578bd53f\
         5de7f81d74e038c27654d68638a00b466044b00498ce69a410eb7e3b22d28b4f7f0a68d781ab916f4148eeef\
         c95d11f0d67ac1b9a6d58e34708b61af7a6b1214627bf63724417f1bcabaf44f91a0c91a2a1155eac0cbf6c9\
         4fadebe68a0d47096f4e75bc9e77e6af747038cd2c187eacb8fc0cf9827bf5fbe351597d819a5f9e5a088b3f\
         f281d37f44512d7e05dc237b51f52572a1fa7873c0633a1b1698f4492c5375d716c7725e83a198264b656201\
         3b07ef61713d040753da27ae596cb125b580a7394ff05c222a5afaed656c13ac51370781855dabe56bf9ede6\
         01cdf6be3598bdfc6867249d5148da8a88fc5441e5b510f45816924a52329e0025bffc72d6acb4b9a4d4b9b2\
         b16a6cd404ae026e1c240b9eabb84ab45d2d261f89219e88a9ccea8a2622bcc4d60e037eed123b70618abdd8\
         e43e7e8603cb1fea5838565499016a709d311e513f85a19aead7111fa2f3c358a4505283528ba51e17d14338\
         e2a2d8d5f705c05b5b2edefbdff276d5a0fcea385eb76578b05e61673d47ab67672def081459dc83a64411b5\
         c02f948d6f1c57cf62cedc29db108596ee562e86d197809b0d35fe4086a7506a2091297a0929a73f9e3bb402\
         7f1135253038334d93db2bb140acec09cd1061378996ff1aa5b90219af33cc105ad8544a90e7c7b861b30701\
         890213761d873af6a293b1f3084743b07f96f7247f22e360f046d6ffb7cfc2ae44a388d3795f1b2aead9e03c\
         060f86348397100cfad2d8823ac93d67ccffd1aafa110c46ec35f9b9fa21289c3444e48bd02385227e6c7856\
         f3809ec9ce1124d6e8de92a626cf4ba98c45af135707e1183295796c146eb10edba89377b9c33103f58cb43b\
         7936b1f8928dd6811325019efeafeaa91fb9319ac4e00c871a9239bba053bdf9da734a74c846e8933bbfc980\
         dbd808e3a4bd0d3704c16a71de2b05d127c233f704f8659970ee32106f14b9cfd853c7ec3e9f2ecf6393ac9a\
         076f5f949e83eb389c80b86a1f8953a423998bf416",
    ];

    #[test]
    fn seal_emits_the_pinned_wire_bytes() {
        for (suite, golden) in [
            (CipherSuite::Aes128CbcExplicitIv, GOLDEN_EXPLICIT_IV),
            (CipherSuite::Aes128CbcChainedIv, GOLDEN_CHAINED_IV),
        ] {
            let mut tx =
                RecordProtection::new(suite, *b"golden-enc-key16", [0x5c; 32], VERSION_TLS11);
            for (n, len) in [0usize, 1, 15, 16, 1200].into_iter().enumerate() {
                let plaintext: Vec<u8> = (0..len).map(|i| (i * 7 + n) as u8).collect();
                let wire = tx.seal(n as u64, CONTENT_APPLICATION_DATA, &plaintext);
                let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
                assert_eq!(hex, golden[n], "{suite:?}, record {n}");
            }
        }
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
