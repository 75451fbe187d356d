//! # minion-tls
//!
//! A TLS-1.1-style record layer and the **uTLS** out-of-order receiver from
//! the Minion paper (§6): records are located in arbitrary stream fragments
//! by scanning for plausible 5-byte headers, their record numbers are
//! predicted from byte offsets, and every guess is confirmed by the record
//! MAC before delivery — producing a secure datagram service whose wire
//! format is unchanged from stream TLS.
//!
//! There is one record parser and one holder of a connection's incoming
//! stream: [`TlsSession`] receives through a [`UtlsReceiver`] from byte 0,
//! first in a *handshake epoch* (null protection, one hello handed over at a
//! time), then, from the byte after the peer's hello, in the *application
//! epoch* under the derived keys. Stream TLS is that receiver fed in order:
//! its out-of-order pass then has nothing to scan.
//!
//! It also holds the record layer's one reassembly store, [`FragmentStore`]:
//! [`UtlsReceiver`] keeps its ciphertext runs in it, and so does the uCOBS
//! socket of `minion-core` (which re-exports it) — this is the lowest crate
//! below both.
//!
//! The handshake is a simplified pre-shared-key exchange (see README's
//! "Substitutions"); everything at and below the record layer — header format, explicit IVs,
//! MAC-then-encrypt, sequence-numbered MAC pseudo-header, ciphersuite
//! negotiation constraints — follows the TLS structure the paper relies on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fragment;
pub mod record;
pub mod session;
pub mod utls;

pub use fragment::FragmentStore;
pub use record::{
    CipherSuite, RecordError, RecordHeader, RecordProtection, CONTENT_APPLICATION_DATA,
    RECORD_HEADER_LEN, VERSION_TLS11,
};
pub use session::{TlsConfig, TlsError, TlsSession};
pub use utls::{UtlsReceiver, UtlsRecord, UtlsStats};
