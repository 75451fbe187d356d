//! AES-128 CBC mode with TLS-style padding.
//!
//! TLS 1.1 block ciphers use an **explicit** per-record IV transmitted in
//! front of the ciphertext. That single design detail is what makes records
//! independently decryptable and therefore what uTLS leverages for
//! out-of-order delivery (paper §6.1). TLS 1.0 and earlier derive each
//! record's IV from the previous record's last ciphertext block ("chained"
//! IVs), which makes records interdependent; that legacy mode is provided
//! too so the uTLS negotiation logic can detect and refuse it.

use crate::aes::{Aes128, BLOCK_SIZE, KEY_SIZE};

/// Errors from CBC decryption.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CbcError {
    /// Ciphertext length is not a positive multiple of the block size.
    BadLength,
    /// The TLS-style padding was inconsistent.
    BadPadding,
}

impl std::fmt::Display for CbcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CbcError::BadLength => write!(f, "ciphertext length not a multiple of block size"),
            CbcError::BadPadding => write!(f, "invalid padding"),
        }
    }
}

impl std::error::Error for CbcError {}

/// Apply TLS (RFC 5246 §6.2.3.2) padding: pad with `n` bytes each of value
/// `n`, where the padded length is a multiple of the block size and at least
/// one byte of padding is always added.
fn pad(data: &mut Vec<u8>) {
    let pad_len = BLOCK_SIZE - (data.len() % BLOCK_SIZE);
    let pad_byte = (pad_len - 1) as u8;
    data.extend(std::iter::repeat_n(pad_byte, pad_len));
}

/// Remove and validate TLS padding.
fn unpad(data: &mut Vec<u8>) -> Result<(), CbcError> {
    let Some(&last) = data.last() else {
        return Err(CbcError::BadPadding);
    };
    let pad_len = last as usize + 1;
    if pad_len > data.len() {
        return Err(CbcError::BadPadding);
    }
    let start = data.len() - pad_len;
    if data[start..].iter().any(|&b| b != last) {
        return Err(CbcError::BadPadding);
    }
    data.truncate(start);
    Ok(())
}

/// AES-128-CBC under one key, expanded once: build it when the key is
/// installed and every record after reuses the schedules.
#[derive(Clone, Debug)]
pub struct Cbc {
    aes: Aes128,
}

impl Cbc {
    /// Expand `key` for both directions.
    pub fn new(key: &[u8; KEY_SIZE]) -> Self {
        Cbc {
            aes: Aes128::new(key),
        }
    }

    /// Encrypt `plaintext` (padding it first) with the given IV.
    pub fn encrypt(&self, iv: &[u8; BLOCK_SIZE], plaintext: &[u8]) -> Vec<u8> {
        let mut data = plaintext.to_vec();
        pad(&mut data);
        let mut prev = *iv;
        for chunk in data.chunks_exact_mut(BLOCK_SIZE) {
            let block: &mut [u8; BLOCK_SIZE] = chunk.try_into().expect("exact chunk");
            for (b, p) in block.iter_mut().zip(prev) {
                *b ^= p;
            }
            self.aes.encrypt_block(block);
            prev = *block;
        }
        data
    }

    /// Decrypt CBC ciphertext and strip padding.
    pub fn decrypt(&self, iv: &[u8; BLOCK_SIZE], ciphertext: &[u8]) -> Result<Vec<u8>, CbcError> {
        if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK_SIZE) {
            return Err(CbcError::BadLength);
        }
        let mut out = ciphertext.to_vec();
        let mut prev = *iv;
        for chunk in out.chunks_exact_mut(BLOCK_SIZE) {
            let block: &mut [u8; BLOCK_SIZE] = chunk.try_into().expect("exact chunk");
            let cipher_block = *block;
            self.aes.decrypt_block(block);
            for (b, p) in block.iter_mut().zip(prev) {
                *b ^= p;
            }
            prev = cipher_block;
        }
        unpad(&mut out)?;
        Ok(out)
    }
}

/// Encrypt `plaintext` (padding it first) under `key` with the given IV.
pub fn encrypt(key: &[u8; KEY_SIZE], iv: &[u8; BLOCK_SIZE], plaintext: &[u8]) -> Vec<u8> {
    Cbc::new(key).encrypt(iv, plaintext)
}

/// Decrypt CBC ciphertext and strip padding.
pub fn decrypt(
    key: &[u8; KEY_SIZE],
    iv: &[u8; BLOCK_SIZE],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CbcError> {
    Cbc::new(key).decrypt(iv, ciphertext)
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &[u8; 16] = b"minion-tls-key-0";
    const IV: &[u8; 16] = b"explicit-iv-0000";

    #[test]
    fn roundtrip_various_lengths() {
        for len in [0usize, 1, 15, 16, 17, 31, 32, 100, 1000, 1447] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
            let ct = encrypt(KEY, IV, &plaintext);
            assert_eq!(ct.len() % BLOCK_SIZE, 0);
            assert!(ct.len() > plaintext.len(), "padding always added");
            let pt = decrypt(KEY, IV, &ct).unwrap();
            assert_eq!(pt, plaintext, "len={len}");
        }
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
            .collect()
    }

    #[test]
    fn nist_sp800_38a_cbc_vector() {
        // SP 800-38A F.2.1 CBC-AES128.Encrypt and F.2.2 .Decrypt, all four
        // blocks. TLS padding always adds a block, so encryption yields a
        // fifth, and decryption is given it back.
        let key: [u8; 16] = unhex("2b7e151628aed2a6abf7158809cf4f3c")
            .try_into()
            .unwrap();
        let iv: [u8; 16] = unhex("000102030405060708090a0b0c0d0e0f")
            .try_into()
            .unwrap();
        let plaintext = unhex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710",
        ));
        let ciphertext = unhex(concat!(
            "7649abac8119b246cee98e9b12e9197d",
            "5086cb9b507219ee95db113a917678b2",
            "73bed6b8e3c1743b7116e69e22229516",
            "3ff1caa1681fac09120eca307586e1a7",
        ));
        let cbc = Cbc::new(&key);
        let ct = cbc.encrypt(&iv, &plaintext);
        assert_eq!(ct.len(), 80);
        assert_eq!(ct[..64], ciphertext[..]);
        assert_eq!(cbc.decrypt(&iv, &ct).unwrap(), plaintext);
        // The free functions are the same cipher.
        assert_eq!(encrypt(&key, &iv, &plaintext), ct);
        assert_eq!(decrypt(&key, &iv, &ct).unwrap(), plaintext);
    }

    #[test]
    fn different_ivs_give_different_ciphertext() {
        let a = encrypt(KEY, b"iv-aaaaaaaaaaaa1", b"identical plaintext");
        let b = encrypt(KEY, b"iv-aaaaaaaaaaaa2", b"identical plaintext");
        assert_ne!(a, b);
    }

    #[test]
    fn decrypt_with_wrong_iv_fails_or_garbles() {
        let ct = encrypt(KEY, IV, b"some secret datagram");
        match decrypt(KEY, b"wrong-iv-0000000", &ct) {
            Ok(pt) => assert_ne!(pt, b"some secret datagram"),
            Err(e) => assert_eq!(e, CbcError::BadPadding),
        }
    }

    #[test]
    fn decrypt_rejects_bad_lengths() {
        assert_eq!(decrypt(KEY, IV, &[]), Err(CbcError::BadLength));
        assert_eq!(decrypt(KEY, IV, &[0u8; 17]), Err(CbcError::BadLength));
    }

    #[test]
    fn tampered_ciphertext_usually_fails_padding() {
        let mut ct = encrypt(KEY, IV, &[7u8; 64]);
        let last = ct.len() - 1;
        ct[last] ^= 0xFF;
        // Either padding fails or the plaintext is corrupted; both are fine
        // here because the record MAC is the real integrity check.
        if let Ok(pt) = decrypt(KEY, IV, &ct) {
            assert_ne!(pt, vec![7u8; 64]);
        }
    }

    #[test]
    fn padding_is_tls_style() {
        let mut v = vec![1u8, 2, 3];
        pad(&mut v);
        assert_eq!(v.len(), 16);
        assert!(v[3..].iter().all(|&b| b == 12));
        unpad(&mut v).unwrap();
        assert_eq!(v, vec![1, 2, 3]);

        // Exact multiple gets a full block of padding.
        let mut v = vec![0u8; 16];
        pad(&mut v);
        assert_eq!(v.len(), 32);
        assert!(v[16..].iter().all(|&b| b == 15));
    }

    #[test]
    fn unpad_rejects_inconsistent_padding() {
        let mut v = vec![1u8, 2, 3, 4, 2, 2];
        assert_eq!(unpad(&mut v), Err(CbcError::BadPadding));
        let mut v = vec![200u8];
        assert_eq!(unpad(&mut v), Err(CbcError::BadPadding));
        let mut empty: Vec<u8> = vec![];
        assert_eq!(unpad(&mut empty), Err(CbcError::BadPadding));
    }
}
