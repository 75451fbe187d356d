//! # minion-crypto
//!
//! From-scratch cryptographic primitives for the Minion reproduction's TLS
//! record layer (`minion-tls`): SHA-256, HMAC-SHA256, AES-128, CBC mode with
//! TLS-style padding, and the TLS PRF / key schedule.
//!
//! The paper's uTLS builds on OpenSSL; this reproduction avoids external
//! crypto dependencies (only the allowed offline crates are available) and
//! implements the primitives directly, validated against NIST / RFC test
//! vectors. Every record goes through them, so they are built the usual
//! fast way: AES is the table-driven cipher with FIPS 197 §5.3.5's
//! equivalent inverse cipher for decryption, and [`cbc::Cbc`] and
//! [`HmacSha256`] hold what a key determines (the key schedules, the HMAC
//! pad midstates) so a caller keys them once and reuses them per message.
//! The CPU-cost experiments (Figure 6) report *relative* costs (uTLS vs TLS
//! on the same primitives), which is the quantity the paper reports too.
//!
//! **This is a simulation's cryptography, not a deployment's.** AES table
//! lookups are indexed by secret state, so their timing varies with the
//! cache, and nothing here has side-channel hardening.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aes;
pub mod cbc;
pub mod hmac;
pub mod prf;
pub mod sha256;

pub use cbc::CbcError;
pub use hmac::{constant_time_eq, hmac_sha256, HmacSha256};
pub use prf::{master_secret, prf, KeyBlock};
pub use sha256::sha256;
