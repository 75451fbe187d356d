//! The byte-at-a-time AES-128 the table-driven one in [`super`] replaced,
//! kept as the reference its tests compare against: FIPS 197's cipher and
//! inverse cipher (§5.1, §5.3) transcribed step by step on a column-major
//! byte state, with `gmul` in every (Inv)MixColumns.

#[cfg(test)]
mod tests {
    use crate::aes::{gmul, Aes128, BLOCK_SIZE, INV_SBOX, KEY_SIZE, RCON, ROUNDS, SBOX};

    /// An expanded key as eleven 16-byte round keys.
    struct ByteWiseAes {
        round_keys: [[u8; 16]; ROUNDS + 1],
    }

    impl ByteWiseAes {
        fn new(key: &[u8; KEY_SIZE]) -> Self {
            let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
            for i in 0..4 {
                w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
            }
            for i in 4..4 * (ROUNDS + 1) {
                let mut temp = w[i - 1];
                if i % 4 == 0 {
                    temp = [
                        SBOX[temp[1] as usize] ^ RCON[i / 4 - 1],
                        SBOX[temp[2] as usize],
                        SBOX[temp[3] as usize],
                        SBOX[temp[0] as usize],
                    ];
                }
                for j in 0..4 {
                    w[i][j] = w[i - 4][j] ^ temp[j];
                }
            }
            let mut round_keys = [[0u8; 16]; ROUNDS + 1];
            for (r, rk) in round_keys.iter_mut().enumerate() {
                for c in 0..4 {
                    rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                }
            }
            ByteWiseAes { round_keys }
        }

        fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
            for i in 0..16 {
                state[i] ^= rk[i];
            }
        }

        fn sub_bytes(state: &mut [u8; 16]) {
            for b in state.iter_mut() {
                *b = SBOX[*b as usize];
            }
        }

        fn inv_sub_bytes(state: &mut [u8; 16]) {
            for b in state.iter_mut() {
                *b = INV_SBOX[*b as usize];
            }
        }

        fn shift_rows(state: &mut [u8; 16]) {
            // State is column-major: state[r + 4c].
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
                }
            }
        }

        fn inv_shift_rows(state: &mut [u8; 16]) {
            let s = *state;
            for r in 1..4 {
                for c in 0..4 {
                    state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
                }
            }
        }

        fn mix_columns(state: &mut [u8; 16]) {
            for c in 0..4 {
                let col = [
                    state[4 * c],
                    state[4 * c + 1],
                    state[4 * c + 2],
                    state[4 * c + 3],
                ];
                state[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
                state[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
                state[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
                state[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
            }
        }

        fn inv_mix_columns(state: &mut [u8; 16]) {
            for c in 0..4 {
                let col = [
                    state[4 * c],
                    state[4 * c + 1],
                    state[4 * c + 2],
                    state[4 * c + 3],
                ];
                state[4 * c] =
                    gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
                state[4 * c + 1] =
                    gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
                state[4 * c + 2] =
                    gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
                state[4 * c + 3] =
                    gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
            }
        }

        fn encrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
            Self::add_round_key(block, &self.round_keys[0]);
            for round in 1..ROUNDS {
                Self::sub_bytes(block);
                Self::shift_rows(block);
                Self::mix_columns(block);
                Self::add_round_key(block, &self.round_keys[round]);
            }
            Self::sub_bytes(block);
            Self::shift_rows(block);
            Self::add_round_key(block, &self.round_keys[ROUNDS]);
        }

        fn decrypt_block(&self, block: &mut [u8; BLOCK_SIZE]) {
            Self::add_round_key(block, &self.round_keys[ROUNDS]);
            for round in (1..ROUNDS).rev() {
                Self::inv_shift_rows(block);
                Self::inv_sub_bytes(block);
                Self::add_round_key(block, &self.round_keys[round]);
                Self::inv_mix_columns(block);
            }
            Self::inv_shift_rows(block);
            Self::inv_sub_bytes(block);
            Self::add_round_key(block, &self.round_keys[0]);
        }
    }

    /// xorshift64: the crate has no dev-dependencies, and this needs no
    /// more than reproducible bytes.
    struct XorShift(u64);

    impl XorShift {
        fn fill(&mut self, bytes: &mut [u8]) {
            for b in bytes {
                self.0 ^= self.0 << 13;
                self.0 ^= self.0 >> 7;
                self.0 ^= self.0 << 17;
                *b = self.0 as u8;
            }
        }
    }

    #[test]
    fn table_cipher_equals_the_byte_wise_oracle_on_random_keys_and_blocks() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        for _ in 0..64 {
            let mut key = [0u8; KEY_SIZE];
            rng.fill(&mut key);
            let (table, oracle) = (Aes128::new(&key), ByteWiseAes::new(&key));
            for _ in 0..16 {
                let mut block = [0u8; BLOCK_SIZE];
                rng.fill(&mut block);
                let (mut a, mut b) = (block, block);
                table.encrypt_block(&mut a);
                oracle.encrypt_block(&mut b);
                assert_eq!(a, b, "encrypt under {key:02x?}");
                let (mut a, mut b) = (block, block);
                table.decrypt_block(&mut a);
                oracle.decrypt_block(&mut b);
                assert_eq!(a, b, "decrypt under {key:02x?}");
            }
        }
    }
}
