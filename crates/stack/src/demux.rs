//! Open-addressed TCP connection demux: `(local port, peer) → socket`.
//!
//! Every arriving TCP segment resolves its connection through this table, so
//! at engine load (thousands of flows × tens of packets each) the lookup is
//! a hot path. The previous `BTreeMap<(u16, NodeId, u16), SocketHandle>`
//! pays a pointer-chasing tree walk with `Ord` comparisons per node; this
//! table is a hand-rolled open-addressed hash map — one FNV-1a hash of the
//! packed 8-byte key, then a linear probe over a flat, power-of-two slot
//! array. Deterministic by construction: probing depends only on the keys
//! inserted and removed and their order, both of which the caller fixes.
//!
//! Removal uses **tombstones**: deleting an entry in a linear-probe table
//! cannot simply empty the slot, because that would break the probe chain of
//! every later key that probed past it. A removed slot is marked
//! `Slot::Tombstone`; lookups probe through tombstones, inserts reuse the
//! first tombstone on their probe path (after confirming the key is not
//! present further along the chain), and growth rehashes live entries only,
//! discarding accumulated tombstones. The simulated hosts never remove
//! (hosts live for one scenario), but the OS-socket backend churns
//! connections through close/reopen cycles, which is exactly the
//! reuse-after-close traffic that exposes probe-chain bugs.
//!
//! The table answers whole-key lookups only. Which local ports are taken is
//! the [`Host`](crate::Host)'s own record, one bit per port, so opening a
//! connection never walks the slot array.
//!
//! The repo benchmark times the lookup as `stack.demux.get_ns`.

use crate::addr::SocketHandle;
use minion_simnet::NodeId;

/// A demux key: `(local port, peer node, peer port)`.
pub(crate) type TupleKey = (u16, NodeId, u16);

/// Probe-length accounting (insert-time), for contention/quality checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Keys inserted (excluding replacements).
    pub inserts: u64,
    /// Slots examined across all inserts (1 per insert is a perfect hash).
    pub insert_probes: u64,
    /// Times the table grew (rehashed into a doubled slot array).
    pub grows: u64,
    /// Keys removed (tombstones written).
    pub removes: u64,
}

#[derive(Clone, Debug)]
struct Entry {
    key: TupleKey,
    value: SocketHandle,
}

/// One slot of the probe array.
#[derive(Clone, Debug, Default)]
enum Slot {
    /// Never occupied: terminates every probe chain crossing it.
    #[default]
    Empty,
    /// A live entry.
    Occupied(Entry),
    /// A removed entry: probe chains continue through it, inserts may
    /// reclaim it.
    Tombstone,
}

/// An open-addressed `(port, peer) → SocketHandle` table with linear
/// probing over a power-of-two slot array and tombstone-based removal.
#[derive(Clone, Debug, Default)]
pub struct TupleTable {
    slots: Vec<Slot>,
    /// Live entries.
    len: usize,
    /// Tombstones currently in the slot array (reset to 0 on grow).
    tombstones: usize,
    stats: TableStats,
}

/// Pack a key into the 8 bytes the canonical FNV-1a
/// ([`minion_simnet::fnv1a`]) hashes (ports and node index are disjoint
/// fields, so distinct keys pack distinctly).
fn hash(key: &TupleKey) -> u64 {
    let (local_port, peer_node, peer_port) = *key;
    let mut packed = [0u8; 8];
    packed[0..2].copy_from_slice(&local_port.to_be_bytes());
    packed[2..4].copy_from_slice(&peer_port.to_be_bytes());
    packed[4..8].copy_from_slice(&(peer_node.index() as u32).to_be_bytes());
    let mut h = minion_simnet::FNV_OFFSET_BASIS;
    minion_simnet::fnv1a(&mut h, &packed);
    h
}

impl TupleTable {
    /// An empty table (no slots until the first insert).
    pub fn new() -> Self {
        TupleTable::default()
    }

    /// Number of live connections in the table.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert-time probe statistics.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// The socket owning `key`, if any.
    #[inline]
    pub fn get(&self, key: &TupleKey) -> Option<SocketHandle> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash(key) as usize) & mask;
        loop {
            match &self.slots[i] {
                Slot::Empty => return None,
                Slot::Occupied(e) if e.key == *key => return Some(e.value),
                // Tombstones and other keys: the chain continues.
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Map `key` to `value`, returning the previous value if the key was
    /// already present. Replacements touch neither the slot array nor the
    /// probe statistics. A tombstone on the probe path is reclaimed — but
    /// only after the whole chain is probed, so a key re-inserted while its
    /// old position lies further down the chain cannot end up duplicated.
    pub fn insert(&mut self, key: TupleKey, value: SocketHandle) -> Option<SocketHandle> {
        if self.slots.is_empty() {
            self.grow();
        }
        // Probe the full chain first: find the key (replacement), remember
        // the first tombstone (reuse candidate), or stop at the first empty
        // slot (insertion point). Stopping at the first tombstone would be
        // wrong: the key may live past it, and inserting early would shadow
        // it with a duplicate.
        let mask = self.slots.len() - 1;
        let mut i = (hash(&key) as usize) & mask;
        let mut probes = 1u64;
        let mut reuse: Option<usize> = None;
        loop {
            match &mut self.slots[i] {
                Slot::Empty => break,
                Slot::Occupied(e) if e.key == key => {
                    return Some(std::mem::replace(&mut e.value, value));
                }
                Slot::Tombstone => {
                    if reuse.is_none() {
                        reuse = Some(i);
                    }
                    i = (i + 1) & mask;
                    probes += 1;
                }
                Slot::Occupied(_) => {
                    i = (i + 1) & mask;
                    probes += 1;
                }
            }
        }
        // A genuinely new key. Grow when live entries plus tombstones would
        // pass 3/4 load (`+1` accounts for the key about to be inserted):
        // tombstones lengthen probe chains exactly like live entries, so a
        // table churning under removals must rehash (which discards them)
        // even when `len` alone stays small.
        if reuse.is_none() && (self.len + self.tombstones + 1) * 4 > self.slots.len() * 3 {
            self.grow();
            let mask = self.slots.len() - 1;
            i = (hash(&key) as usize) & mask;
            probes = 1;
            while matches!(self.slots[i], Slot::Occupied(_)) {
                i = (i + 1) & mask;
                probes += 1;
            }
        } else if let Some(t) = reuse {
            i = t;
            self.tombstones -= 1;
        }
        self.slots[i] = Slot::Occupied(Entry { key, value });
        self.len += 1;
        self.stats.inserts += 1;
        self.stats.insert_probes += probes;
        None
    }

    /// Remove `key`, returning its value if it was present. The slot becomes
    /// a tombstone so probe chains running through it stay intact.
    pub fn remove(&mut self, key: &TupleKey) -> Option<SocketHandle> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash(key) as usize) & mask;
        loop {
            match &self.slots[i] {
                Slot::Empty => return None,
                Slot::Occupied(e) if e.key == *key => {
                    let Slot::Occupied(e) = std::mem::replace(&mut self.slots[i], Slot::Tombstone)
                    else {
                        unreachable!("slot was just matched as occupied");
                    };
                    self.len -= 1;
                    self.tombstones += 1;
                    self.stats.removes += 1;
                    return Some(e.value);
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Double the slot array (16 slots minimum) and rehash every live entry,
    /// discarding tombstones.
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(16);
        debug_assert!(new_cap.is_power_of_two());
        let old = std::mem::replace(&mut self.slots, vec![Slot::Empty; new_cap]);
        self.stats.grows += 1;
        self.tombstones = 0;
        let mask = new_cap - 1;
        for slot in old {
            if let Slot::Occupied(e) = slot {
                let mut i = (hash(&e.key) as usize) & mask;
                while matches!(self.slots[i], Slot::Occupied(_)) {
                    i = (i + 1) & mask;
                }
                self.slots[i] = Slot::Occupied(e);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(lp: u16, node: u32, pp: u16) -> TupleKey {
        (lp, NodeId(node), pp)
    }

    #[test]
    fn insert_get_round_trip_through_growth() {
        let mut t = TupleTable::new();
        assert!(t.is_empty());
        assert_eq!(t.get(&key(1, 1, 1)), None, "empty table misses cleanly");
        // Insert far past several growth thresholds.
        for i in 0..1000u32 {
            let k = key(40_000 + (i % 500) as u16, i / 500, 7000);
            assert_eq!(t.insert(k, SocketHandle(i)), None);
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u32 {
            let k = key(40_000 + (i % 500) as u16, i / 500, 7000);
            assert_eq!(t.get(&k), Some(SocketHandle(i)), "key {i}");
        }
        assert_eq!(t.get(&key(39_999, 0, 7000)), None);
        assert!(t.stats().grows >= 6, "1000 keys force repeated growth");
        // Probe quality: at 3/4 max load, average insert probes stay small.
        let s = t.stats();
        assert!(
            s.insert_probes < s.inserts * 4,
            "probe runs degenerated: {s:?}"
        );
    }

    #[test]
    fn duplicate_insert_replaces_and_reports_old_value() {
        let mut t = TupleTable::new();
        let k = key(80, 3, 5555);
        assert_eq!(t.insert(k, SocketHandle(1)), None);
        assert_eq!(t.insert(k, SocketHandle(2)), Some(SocketHandle(1)));
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&k), Some(SocketHandle(2)));
    }

    #[test]
    fn colliding_keys_coexist() {
        // Distinct keys that differ only in a field each: whatever the hash
        // spread, linear probing must keep them all reachable.
        let mut t = TupleTable::new();
        for pp in 0..64u16 {
            t.insert(key(7000, 1, pp), SocketHandle(pp as u32));
        }
        for node in 0..64u32 {
            t.insert(key(7000, 100 + node, 9), SocketHandle(1000 + node));
        }
        for pp in 0..64u16 {
            assert_eq!(t.get(&key(7000, 1, pp)), Some(SocketHandle(pp as u32)));
        }
        for node in 0..64u32 {
            assert_eq!(
                t.get(&key(7000, 100 + node, 9)),
                Some(SocketHandle(1000 + node))
            );
        }
    }

    #[test]
    fn remove_then_reinsert_reuses_the_port() {
        // The port-reuse-after-close cycle the OS backend drives: a closed
        // connection's tuple leaves the table and a fresh connection from
        // the same (port, peer) tuple takes its place.
        let mut t = TupleTable::new();
        let k = key(40_000, 1, 7000);
        t.insert(k, SocketHandle(1));
        assert_eq!(t.remove(&k), Some(SocketHandle(1)));
        assert_eq!(t.len(), 0);
        assert_eq!(t.get(&k), None, "removed key must miss");
        assert_eq!(t.insert(k, SocketHandle(2)), None, "reinsert is fresh");
        assert_eq!(t.get(&k), Some(SocketHandle(2)));
        assert_eq!(t.remove(&key(9, 9, 9)), None, "absent key removes cleanly");
        assert_eq!(t.stats().removes, 1);
    }

    #[test]
    fn removal_keeps_probe_chains_intact() {
        // Build a long collision chain (same local port, consecutive peer
        // ports hash adjacently often enough), then knock out entries in the
        // middle: every survivor must remain reachable.
        let mut t = TupleTable::new();
        for pp in 0..128u16 {
            t.insert(key(7000, 1, pp), SocketHandle(pp as u32));
        }
        for pp in (0..128u16).step_by(2) {
            assert_eq!(t.remove(&key(7000, 1, pp)), Some(SocketHandle(pp as u32)));
        }
        for pp in 0..128u16 {
            let expect = if pp % 2 == 0 {
                None
            } else {
                Some(SocketHandle(pp as u32))
            };
            assert_eq!(t.get(&key(7000, 1, pp)), expect, "peer port {pp}");
        }
        assert_eq!(t.len(), 64);
    }

    #[test]
    fn reinsert_with_key_beyond_a_tombstone_does_not_duplicate() {
        // The classic open-addressing bug: key K probes past a tombstone to
        // its live slot; a naive insert that claims the first tombstone
        // without finishing the chain would leave two slots for K. Exercise
        // every (remove A, re-insert B) pairing over a colliding set.
        let mut t = TupleTable::new();
        for pp in 0..16u16 {
            t.insert(key(7000, 1, pp), SocketHandle(pp as u32));
        }
        // Remove an early key, creating a tombstone other chains cross.
        t.remove(&key(7000, 1, 0));
        // Replacing a still-live key must update in place, not duplicate.
        assert_eq!(
            t.insert(key(7000, 1, 9), SocketHandle(909)),
            Some(SocketHandle(9)),
            "live key past a tombstone must be found, not duplicated"
        );
        assert_eq!(t.get(&key(7000, 1, 9)), Some(SocketHandle(909)));
        assert_eq!(t.len(), 15);
        // Remove it; both its tombstone and the earlier one are reusable.
        t.remove(&key(7000, 1, 9));
        assert_eq!(t.insert(key(7000, 1, 9), SocketHandle(910)), None);
        assert_eq!(t.get(&key(7000, 1, 9)), Some(SocketHandle(910)));
        // Exactly one slot answers for the key even after another removal.
        t.remove(&key(7000, 1, 9));
        assert_eq!(t.get(&key(7000, 1, 9)), None);
    }

    #[test]
    fn churn_under_tombstone_load_triggers_growth_and_stays_correct() {
        // Sustained connection churn at steady-state size: live count stays
        // small but tombstones accumulate, so the table must grow (clearing
        // them) rather than let probe chains degenerate toward full scans.
        let mut t = TupleTable::new();
        let mut live: Vec<u16> = Vec::new();
        for round in 0..2000u32 {
            let port = ((40_000 + round) % 25_000 + 40_000) as u16;
            t.insert(key(port, 1, 7000), SocketHandle(round));
            live.push(port);
            if live.len() > 8 {
                let gone = live.remove(0);
                assert!(
                    t.remove(&key(gone, 1, 7000)).is_some(),
                    "round {round}: live key {gone} must be removable"
                );
            }
        }
        assert_eq!(t.len(), live.len());
        for p in &live {
            assert!(t.get(&key(*p, 1, 7000)).is_some(), "port {p} reachable");
        }
        let s = t.stats();
        assert!(
            s.grows >= 2,
            "steady-state churn must trigger tombstone-clearing growth: {s:?}"
        );
        // Probe quality survives the churn (no creeping degradation).
        assert!(
            s.insert_probes < s.inserts * 4,
            "probe chains degenerated under churn: {s:?}"
        );
        // The slot array stayed bounded: growth clears tombstones instead of
        // doubling forever (8 live entries can never justify >16k slots).
        assert!(t.slots.len() <= 1 << 14, "slots={}", t.slots.len());
    }

    #[test]
    fn two_identical_churn_sequences_produce_identical_tables() {
        // Determinism: the probe layout is a pure function of the operation
        // sequence.
        let run = || {
            let mut t = TupleTable::new();
            for i in 0..500u32 {
                let k = key(40_000 + (i % 97) as u16, i % 3, 7000 + (i % 11) as u16);
                if i % 5 == 4 {
                    t.remove(&k);
                } else {
                    t.insert(k, SocketHandle(i));
                }
            }
            (t.len(), t.stats())
        };
        assert_eq!(run(), run());
    }
}
