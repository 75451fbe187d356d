//! TCP connection demux: `(local port, peer node, peer port) → socket`.
//!
//! Every arriving TCP segment resolves its connection through this table, so
//! at engine load (thousands of flows × tens of packets each) the lookup is
//! a hot path. The table is a std `HashMap` under `FieldHash`, a
//! rotate-multiply hasher that takes each key field whole: std's default
//! SipHash and FNV-1a fed the key byte by byte cost about five and three
//! times as much per lookup. Its keys come from the simulation, never from
//! outside the program, so nothing crafts them to collide. The hasher has no
//! random state, and the table answers whole-key lookups only (it exposes no
//! iteration), so nothing the simulation does depends on the map's layout.
//!
//! The simulated hosts never remove a tuple (hosts live for one scenario).
//! Which local ports are taken is the [`Host`](crate::Host)'s own record,
//! one bit per port, so opening a connection never walks the table.
//!
//! The repo benchmark times the lookup as `stack.demux.get_ns`.

use crate::addr::SocketHandle;
use minion_simnet::NodeId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A demux key: `(local port, peer node, peer port)`.
pub(crate) type TupleKey = (u16, NodeId, u16);

/// A `(port, peer) → SocketHandle` map.
#[derive(Debug, Default)]
pub struct TupleTable(HashMap<TupleKey, SocketHandle, BuildHasherDefault<FieldHash>>);

impl TupleTable {
    /// An empty table.
    pub fn new() -> Self {
        TupleTable::default()
    }

    /// The socket owning `key`, if any.
    #[inline]
    pub fn get(&self, key: &TupleKey) -> Option<SocketHandle> {
        self.0.get(key).copied()
    }

    /// Route `key` to `value`, replacing any earlier socket of `key`.
    pub fn insert(&mut self, key: TupleKey, value: SocketHandle) {
        self.0.insert(key, value);
    }
}

/// One rotate, xor and multiply per key field, in the style of rustc's
/// `FxHasher`: a key's two ports and node index are three words.
#[derive(Default)]
struct FieldHash(u64);

impl FieldHash {
    /// The multiplier of every step (rustc's Fx constant).
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for FieldHash {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
}
