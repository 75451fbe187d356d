//! # minion-cobs
//!
//! Consistent Overhead Byte Stuffing (COBS) encoding and the uCOBS record
//! framing built on it (paper §5): each datagram is COBS-encoded (removing
//! all zero bytes at ≤0.4% expansion) and bracketed by a zero marker byte on
//! *both* ends, making records self-delimiting and recoverable from
//! out-of-order TCP stream fragments. A length-prefixed (TLV) framer is also
//! provided as the in-order baseline used in the paper's comparisons.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod frame;
mod oracle;

pub use encode::{
    decode, decode_into, encode, encode_into, max_encoded_len, overhead_ratio, CobsError, MARKER,
};
pub use frame::{frame_datagram, frame_into, scan_records, ScannedRecord, TlvFramer};
