//! The TLS 1.1-era pseudo-random function, used for the key schedule.
//!
//! TLS 1.0/1.1 define PRF as a combination of P_MD5 and P_SHA1; TLS 1.2
//! simplified this to P_SHA256. Since this reproduction's record layer is a
//! TLS-1.1-*style* layer (explicit IVs) rather than a bit-exact TLS
//! implementation, we use the P_SHA256 expansion — the structural properties
//! uTLS depends on (independent keys per direction, MAC keys separate from
//! encryption keys) are identical.

use crate::hmac::HmacSha256;

/// P_SHA256 data expansion (RFC 5246 §5) producing `out_len` bytes.
fn p_sha256(secret: &[u8], seed: &[u8], out_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(out_len);
    let keyed = HmacSha256::new(secret);
    // A(0) = seed, A(i) = HMAC(secret, A(i-1))
    let mut a: Vec<u8> = seed.to_vec();
    while out.len() < out_len {
        let mut h = keyed.clone();
        h.update(&a);
        a = h.finalize().to_vec();

        let mut h = keyed.clone();
        h.update(&a);
        h.update(seed);
        let block = h.finalize();
        let take = (out_len - out.len()).min(block.len());
        out.extend_from_slice(&block[..take]);
    }
    out
}

/// The TLS PRF: expand `secret` with a label and seed.
pub fn prf(secret: &[u8], label: &str, seed: &[u8], out_len: usize) -> Vec<u8> {
    let mut label_seed = Vec::with_capacity(label.len() + seed.len());
    label_seed.extend_from_slice(label.as_bytes());
    label_seed.extend_from_slice(seed);
    p_sha256(secret, &label_seed, out_len)
}

/// The complete key block for one connection direction pair, mirroring the
/// TLS key expansion: client/server MAC keys followed by client/server
/// encryption keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyBlock {
    /// MAC key for records sent by the client.
    pub client_mac_key: [u8; 32],
    /// MAC key for records sent by the server.
    pub server_mac_key: [u8; 32],
    /// AES-128 key for records sent by the client.
    pub client_enc_key: [u8; 16],
    /// AES-128 key for records sent by the server.
    pub server_enc_key: [u8; 16],
}

impl KeyBlock {
    /// Derive a key block from a master secret and the two handshake nonces.
    pub fn derive(master_secret: &[u8], client_random: &[u8], server_random: &[u8]) -> KeyBlock {
        let mut seed = Vec::with_capacity(client_random.len() + server_random.len());
        seed.extend_from_slice(server_random);
        seed.extend_from_slice(client_random);
        let material = prf(master_secret, "key expansion", &seed, 32 + 32 + 16 + 16);
        let mut kb = KeyBlock {
            client_mac_key: [0; 32],
            server_mac_key: [0; 32],
            client_enc_key: [0; 16],
            server_enc_key: [0; 16],
        };
        kb.client_mac_key.copy_from_slice(&material[0..32]);
        kb.server_mac_key.copy_from_slice(&material[32..64]);
        kb.client_enc_key.copy_from_slice(&material[64..80]);
        kb.server_enc_key.copy_from_slice(&material[80..96]);
        kb
    }
}

/// Derive a master secret from a pre-shared key and the handshake nonces
/// (the reproduction uses a PSK handshake in place of public-key exchange;
/// see README's "Substitutions").
pub fn master_secret(psk: &[u8], client_random: &[u8], server_random: &[u8]) -> [u8; 48] {
    let mut seed = Vec::with_capacity(client_random.len() + server_random.len());
    seed.extend_from_slice(client_random);
    seed.extend_from_slice(server_random);
    let material = prf(psk, "master secret", &seed, 48);
    let mut out = [0u8; 48];
    out.copy_from_slice(&material);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_length_is_exact() {
        for len in [0usize, 1, 31, 32, 33, 48, 96, 100, 1000] {
            assert_eq!(p_sha256(b"secret", b"seed", len).len(), len);
        }
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        let a = prf(b"secret", "label", b"seed", 64);
        let b = prf(b"secret", "label", b"seed", 64);
        assert_eq!(a, b);
        assert_ne!(a, prf(b"secret2", "label", b"seed", 64));
        assert_ne!(a, prf(b"secret", "label2", b"seed", 64));
        assert_ne!(a, prf(b"secret", "label", b"seed2", 64));
    }

    #[test]
    fn prefix_property() {
        // Requesting a shorter output yields a prefix of the longer output.
        let long = p_sha256(b"s", b"x", 100);
        let short = p_sha256(b"s", b"x", 40);
        assert_eq!(&long[..40], &short[..]);
    }

    #[test]
    fn key_block_directional_keys_differ() {
        let ms = master_secret(b"pre-shared-key", b"client-random-32", b"server-random-32");
        let kb = KeyBlock::derive(&ms, b"client-random-32", b"server-random-32");
        assert_ne!(kb.client_mac_key, kb.server_mac_key);
        assert_ne!(kb.client_enc_key, kb.server_enc_key);
        // Stable across derivations.
        let kb2 = KeyBlock::derive(&ms, b"client-random-32", b"server-random-32");
        assert_eq!(kb, kb2);
    }

    #[test]
    fn master_secret_depends_on_nonces() {
        let a = master_secret(b"psk", b"cr1", b"sr1");
        let b = master_secret(b"psk", b"cr2", b"sr1");
        let c = master_secret(b"psk", b"cr1", b"sr2");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
