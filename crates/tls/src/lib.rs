//! # minion-tls
//!
//! A TLS-1.1-style record layer and the **uTLS** out-of-order receiver from
//! the Minion paper (§6): records are located in arbitrary stream fragments
//! by scanning for plausible 5-byte headers, their record numbers are
//! predicted from byte offsets, and every guess is confirmed by the record
//! MAC before delivery — producing a secure datagram service whose wire
//! format is unchanged from stream TLS.
//!
//! It also holds the record layer's one reassembly store, [`FragmentStore`]:
//! [`UtlsReceiver`] keeps its ciphertext runs in it, and so do the uCOBS and
//! uTLS sockets of `minion-core` (which re-exports it) — this is the lowest
//! crate below all three.
//!
//! The handshake is a simplified pre-shared-key exchange (see DESIGN.md);
//! everything at and below the record layer — header format, explicit IVs,
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
pub use session::{Role, TlsConfig, TlsError, TlsSession};
pub use utls::{UtlsReceiver, UtlsRecord, UtlsStats};
