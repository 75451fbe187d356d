//! # minion-crypto
//!
//! From-scratch cryptographic primitives for the Minion reproduction's TLS
//! record layer (`minion-tls`): SHA-256, HMAC-SHA256, AES-128, CBC mode with
//! TLS-style padding, and the TLS PRF / key schedule.
//!
//! The paper's uTLS builds on OpenSSL; this reproduction avoids external
//! crypto dependencies (only the allowed offline crates are available) and
//! implements the primitives directly, validated against NIST / RFC test
//! vectors. The implementations favour clarity over speed: the CPU-cost
//! experiments (Figure 6) report *relative* costs (uTLS vs TLS on the same
//! primitives), which is the quantity the paper reports too.
//!
//! **Do not reuse this crate for production cryptography** — it has no
//! side-channel hardening.

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
