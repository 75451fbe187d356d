//! Data handed from the TCP stack to the application.
//!
//! With uTCP's `SO_UNORDERED` option, the paper's kernel prototype prefixes
//! every `read()` with a 5-byte metadata header (1 flag byte + 4-byte stream
//! offset) telling the application where the returned bytes sit in the
//! sender's byte stream (§4.1, §7). [`DeliveredChunk`] is the in-memory
//! equivalent: the offset and the in-order flag travel as fields.

use bytes::Bytes;

/// A contiguous run of stream bytes delivered to the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeliveredChunk {
    /// Logical offset of the first byte within the sender's byte stream
    /// (sequence number minus the initial sequence number, minus the SYN).
    pub offset: u64,
    /// Whether this delivery is at the current cumulative in-order point.
    pub in_order: bool,
    /// The bytes themselves.
    pub data: Bytes,
}

impl DeliveredChunk {
    /// Create a chunk.
    pub fn new(offset: u64, in_order: bool, data: impl Into<Bytes>) -> Self {
        DeliveredChunk {
            offset,
            in_order,
            data: data.into(),
        }
    }

    /// Stream offset one past the last byte of this chunk.
    pub fn end_offset(&self) -> u64 {
        self.offset + self.data.len() as u64
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the chunk carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let c = DeliveredChunk::new(100, true, vec![1, 2, 3]);
        assert_eq!(c.end_offset(), 103);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }
}
