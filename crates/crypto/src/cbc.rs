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

/// Encrypt `plaintext` (padding it first) under `key` with the given IV.
pub fn encrypt(key: &[u8; KEY_SIZE], iv: &[u8; BLOCK_SIZE], plaintext: &[u8]) -> Vec<u8> {
    let aes = Aes128::new(key);
    let mut data = plaintext.to_vec();
    pad(&mut data);
    let mut prev = *iv;
    for chunk in data.chunks_mut(BLOCK_SIZE) {
        let mut block = [0u8; BLOCK_SIZE];
        block.copy_from_slice(chunk);
        for i in 0..BLOCK_SIZE {
            block[i] ^= prev[i];
        }
        aes.encrypt_block(&mut block);
        chunk.copy_from_slice(&block);
        prev = block;
    }
    data
}

/// Decrypt CBC ciphertext and strip padding.
pub fn decrypt(
    key: &[u8; KEY_SIZE],
    iv: &[u8; BLOCK_SIZE],
    ciphertext: &[u8],
) -> Result<Vec<u8>, CbcError> {
    if ciphertext.is_empty() || !ciphertext.len().is_multiple_of(BLOCK_SIZE) {
        return Err(CbcError::BadLength);
    }
    let aes = Aes128::new(key);
    let mut out = ciphertext.to_vec();
    let mut prev = *iv;
    for chunk in out.chunks_mut(BLOCK_SIZE) {
        let cipher_block: [u8; BLOCK_SIZE] = chunk.try_into().expect("exact chunk");
        let mut block = cipher_block;
        aes.decrypt_block(&mut block);
        for i in 0..BLOCK_SIZE {
            block[i] ^= prev[i];
        }
        chunk.copy_from_slice(&block);
        prev = cipher_block;
    }
    unpad(&mut out)?;
    Ok(out)
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

    #[test]
    fn nist_sp800_38a_cbc_vector() {
        // SP 800-38A F.2.1 CBC-AES128.Encrypt, first block (we add padding, so
        // compare only the first ciphertext block).
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let iv: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let plaintext: [u8; 16] = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let ct = encrypt(&key, &iv, &plaintext);
        assert_eq!(
            &ct[..16],
            &[
                0x76, 0x49, 0xab, 0xac, 0x81, 0x19, 0xb2, 0x46, 0xce, 0xe9, 0x8e, 0x9b, 0x12, 0xe9,
                0x19, 0x7d,
            ]
        );
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
