//! AES-128 block cipher (FIPS 197), table-driven.
//!
//! TLS 1.1 block ciphersuites (the ones uTLS depends on for out-of-order
//! decryption, because they use explicit per-record IVs) are built on AES in
//! CBC mode. Every record the reproduction sends or receives goes through
//! here, so the cipher is the usual 32-bit table implementation: each round
//! is four lookups per column into four 256-word tables (SubBytes,
//! ShiftRows and MixColumns in one step) and an XOR with the round key, and
//! decryption is FIPS 197 §5.3.5's *equivalent inverse cipher*, the same
//! shape over the inverse tables with InvMixColumns folded into its round
//! keys once, when the key is expanded. The tables are `static`s computed
//! at compile time from the S-boxes. The byte-wise cipher of §5.1/§5.3 is
//! kept, test-only, as the oracle the tables are checked against.
//!
//! Table lookups are indexed by secret state, so their timing depends on
//! the cache: this is a simulation's cipher, not one to deploy.

mod oracle;

/// AES block size in bytes.
pub(crate) const BLOCK_SIZE: usize = 16;
/// AES-128 key size in bytes.
pub(crate) const KEY_SIZE: usize = 16;
const ROUNDS: usize = 10;

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const INV_SBOX: [u8; 256] = [
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e, 0x81, 0xf3, 0xd7, 0xfb,
    0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87, 0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb,
    0x54, 0x7b, 0x94, 0x32, 0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49, 0x6d, 0x8b, 0xd1, 0x25,
    0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16, 0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92,
    0x6c, 0x70, 0x48, 0x50, 0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05, 0xb8, 0xb3, 0x45, 0x06,
    0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02, 0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b,
    0x3a, 0x91, 0x11, 0x41, 0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8, 0x1c, 0x75, 0xdf, 0x6e,
    0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89, 0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b,
    0xfc, 0x56, 0x3e, 0x4b, 0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59, 0x27, 0x80, 0xec, 0x5f,
    0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d, 0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef,
    0xa0, 0xe0, 0x3b, 0x4d, 0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63, 0x55, 0x21, 0x0c, 0x7d,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

const fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// Multiplication in GF(2^8) modulo the AES polynomial, one bit at a time.
/// Only the table construction below and the test oracle call it.
const fn gmul(a: u8, b: u8) -> u8 {
    let mut result = 0u8;
    let mut a = a;
    let mut b = b;
    while b != 0 {
        if b & 1 != 0 {
            result ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    result
}

/// The four round tables of one direction. Entry `x` of table 0 is the
/// MixColumns (or InvMixColumns) column `coeffs` applied to `sbox[x]`, as a
/// big-endian word; tables 1–3 are it rotated right by 8, 16 and 24 bits,
/// the same column for the byte in rows 1–3.
const fn round_tables(sbox: &[u8; 256], coeffs: [u8; 4]) -> [[u32; 256]; 4] {
    let mut tables = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = sbox[x];
        let word = u32::from_be_bytes([
            gmul(s, coeffs[0]),
            gmul(s, coeffs[1]),
            gmul(s, coeffs[2]),
            gmul(s, coeffs[3]),
        ]);
        let mut t = 0;
        while t < 4 {
            tables[t][x] = word.rotate_right(8 * t as u32);
            t += 1;
        }
        x += 1;
    }
    tables
}

/// Te0–Te3: SubBytes then MixColumns, whose column is (2, 1, 1, 3).
static TE: [[u32; 256]; 4] = round_tables(&SBOX, [2, 1, 1, 3]);
/// Td0–Td3: InvSubBytes then InvMixColumns, whose column is (14, 9, 13, 11).
static TD: [[u32; 256]; 4] = round_tables(&INV_SBOX, [14, 9, 13, 11]);

/// Byte `k` of `word`, counting from the least significant, as an index.
fn byte(word: u32, k: u32) -> usize {
    (word >> (8 * k)) as u8 as usize
}

/// Four big-endian state columns ⊕ the round key `k`, one per output
/// column `c`: `f(c, i)` returns the table entry for row `i`, which reads
/// the column `(c + i·step) mod 4` — ShiftRows is `step` 1 and
/// InvShiftRows `step` 3.
fn columns(k: &[u32; 4], f: impl Fn(usize, usize) -> u32) -> [u32; 4] {
    std::array::from_fn(|c| f(c, 0) ^ f(c, 1) ^ f(c, 2) ^ f(c, 3) ^ k[c])
}

/// An expanded AES-128 key: the cipher's round keys and the equivalent
/// inverse cipher's (FIPS 197 §5.3.5), each as eleven rounds of four
/// big-endian words.
#[derive(Clone, Debug)]
pub(crate) struct Aes128 {
    enc: [[u32; 4]; ROUNDS + 1],
    dec: [[u32; 4]; ROUNDS + 1],
}

impl Aes128 {
    /// Expand a 16-byte key into both schedules.
    pub(crate) fn new(key: &[u8; KEY_SIZE]) -> Self {
        let mut w = [0u32; 4 * (ROUNDS + 1)];
        for (i, word) in key.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().expect("four bytes"));
        }
        for i in 4..w.len() {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(RCON[i / 4 - 1]) << 24);
            }
            w[i] = w[i - 4] ^ temp;
        }
        let enc: [[u32; 4]; ROUNDS + 1] =
            std::array::from_fn(|r| std::array::from_fn(|c| w[4 * r + c]));
        // The equivalent inverse cipher runs the rounds backwards, with
        // InvMixColumns moved ahead of AddRoundKey; so round keys 1–9 are
        // themselves put through InvMixColumns. `TD[..][SBOX[x]]` is
        // InvMixColumns of the byte `x` alone, InvSubBytes undoing SubBytes.
        let inv_mix = |word: u32| {
            (0..4).fold(0, |acc, row| {
                acc ^ TD[row][SBOX[byte(word, 3 - row as u32)] as usize]
            })
        };
        let dec = std::array::from_fn(|r| {
            let k = enc[ROUNDS - r];
            if r == 0 || r == ROUNDS {
                k
            } else {
                k.map(inv_mix)
            }
        });
        Aes128 { enc, dec }
    }

    /// Encrypt a single 16-byte block in place.
    pub(crate) fn encrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
        crypt(block, &self.enc, &TE, &SBOX, 1);
    }

    /// Decrypt a single 16-byte block in place.
    pub(crate) fn decrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
        crypt(block, &self.dec, &TD, &INV_SBOX, 3);
    }
}

/// SubWord: the S-box on each byte of `word`.
fn sub_word(word: u32) -> u32 {
    u32::from_be_bytes(word.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// One direction of the cipher: the initial AddRoundKey, nine table
/// rounds, and a last round of S-box bytes with no (Inv)MixColumns.
/// Inlined into both callers, where `step` and the tables are constants
/// (a quarter off the cost of a block).
#[inline(always)]
fn crypt(
    block: &mut [u8; BLOCK_SIZE],
    keys: &[[u32; 4]; ROUNDS + 1],
    tables: &[[u32; 256]; 4],
    sbox: &[u8; 256],
    step: usize,
) {
    let mut s: [u32; 4] = std::array::from_fn(|c| {
        u32::from_be_bytes(block[4 * c..4 * c + 4].try_into().expect("four bytes")) ^ keys[0][c]
    });
    for k in &keys[1..ROUNDS] {
        s = columns(k, |c, row| {
            tables[row][byte(s[(c + row * step) % 4], 3 - row as u32)]
        });
    }
    s = columns(&keys[ROUNDS], |c, row| {
        u32::from(sbox[byte(s[(c + row * step) % 4], 3 - row as u32)]) << (24 - 8 * row)
    });
    for (c, word) in s.iter().enumerate() {
        block[4 * c..4 * c + 4].copy_from_slice(&word.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips197_appendix_c1_vector_both_directions() {
        // FIPS 197 Appendix C.1: key 00 01 .. 0f, plaintext 00 11 .. ff.
        let key: [u8; 16] = std::array::from_fn(|i| i as u8);
        let plaintext: [u8; 16] = std::array::from_fn(|i| i as u8 * 0x11);
        let ciphertext: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        let mut block = plaintext;
        aes.encrypt_block(&mut block);
        assert_eq!(block, ciphertext);
        aes.decrypt_block(&mut block);
        assert_eq!(block, plaintext);
    }

    #[test]
    fn fips197_appendix_a1_last_round_key() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let aes = Aes128::new(&key);
        let last = [0xd014f9a8, 0xc9ee2589, 0xe13f0cc8, 0xb6630ca6];
        assert_eq!(aes.enc[ROUNDS], last);
        // The equivalent inverse cipher starts from it, and ends at the key.
        assert_eq!(aes.dec[0], last);
        assert_eq!(
            aes.dec[ROUNDS],
            [0x2b7e1516, 0x28aed2a6, 0xabf71588, 0x09cf4f3c]
        );
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS 197 Appendix B: key and plaintext.
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected: [u8; 16] = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(block, expected);
        aes.decrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
                0x07, 0x34,
            ]
        );
    }

    #[test]
    fn nist_sp800_38a_ecb_vector() {
        // SP 800-38A F.1.1 ECB-AES128 first block.
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block: [u8; 16] = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let aes = Aes128::new(&key);
        aes.encrypt_block(&mut block);
        assert_eq!(
            block,
            [
                0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
                0xef, 0x97,
            ]
        );
    }

    #[test]
    fn encrypt_decrypt_roundtrip_many_blocks() {
        let aes = Aes128::new(b"0123456789abcdef");
        for i in 0..200u32 {
            let mut block = [0u8; 16];
            for (j, b) in block.iter_mut().enumerate() {
                *b = (i as usize * 17 + j * 31) as u8;
            }
            let original = block;
            aes.encrypt_block(&mut block);
            assert_ne!(block, original);
            aes.decrypt_block(&mut block);
            assert_eq!(block, original);
        }
    }

    #[test]
    fn different_keys_produce_different_ciphertext() {
        let mut a = *b"the same block!!";
        let mut b = *b"the same block!!";
        Aes128::new(b"averysecretkey01").encrypt_block(&mut a);
        Aes128::new(b"averysecretkey02").encrypt_block(&mut b);
        assert_ne!(a, b);
    }
}
