//! The record layer's one reassembly store: received byte-stream fragments,
//! keyed by stream offset, handed back as borrowed runs.
//!
//! uCOBS (paper §5.2) and uTLS (§6.1) sit on the same uTCP receive API —
//! `(offset, bytes)` chunks delivered in or out of order — and both first
//! reassemble them into maximal contiguous runs before looking for records:
//! an arriving chunk can create a new run, extend an existing run at either
//! end, or fill a hole and merge two runs into one. [`UtlsReceiver`] and
//! `minion_core::UcobsSocket` keep their bytes here (the store lives in this
//! crate because it is the lowest one below both;
//! `minion_core::FragmentStore` re-exports it).
//!
//! Every accessor lends the run it names — nothing is cloned on the way out —
//! and every stream byte is stored once: `insert` extends the run that
//! reaches the chunk where it lies (amortised doubling, as a `Vec` grows) and
//! moves a later run only when the chunk joins the two; `prune_below` drops
//! the consumed prefix in place. Where a chunk overlaps bytes already held,
//! the new bytes win.
//!
//! [`UtlsReceiver`]: crate::UtlsReceiver

use std::collections::BTreeMap;

/// Reassembly store for stream fragments.
#[derive(Clone, Debug, Default)]
pub struct FragmentStore {
    runs: BTreeMap<u64, Vec<u8>>,
    /// Total bytes stored.
    bytes: usize,
    /// Offset below which data has been pruned (delivered and discarded).
    pruned_below: u64,
}

impl FragmentStore {
    /// An empty store.
    pub fn new() -> Self {
        FragmentStore::default()
    }

    /// Total bytes currently stored.
    pub fn buffered_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of discontiguous runs held.
    pub fn fragment_count(&self) -> usize {
        self.runs.len()
    }

    /// Insert a chunk at `offset`, merging with adjacent/overlapping data.
    /// Returns the (possibly merged and extended) run that now holds the
    /// chunk and the offset of its first byte, for the caller to scan; `None`
    /// if nothing was stored (an empty chunk, or one wholly below the pruned
    /// point).
    pub fn insert(&mut self, offset: u64, data: &[u8]) -> Option<(u64, &[u8])> {
        if data.is_empty() {
            return None;
        }
        // Ignore data entirely below the pruned point.
        let (offset, data) = if offset < self.pruned_below {
            let end = offset + data.len() as u64;
            if end <= self.pruned_below {
                return None;
            }
            let skip = (self.pruned_below - offset) as usize;
            (self.pruned_below, &data[skip..])
        } else {
            (offset, data)
        };

        // Extend the run that reaches `offset` where it lies; only a chunk no
        // run reaches starts one of its own.
        let (start, mut end) = match self.runs.range_mut(..=offset).next_back() {
            Some((&start, run)) if start + run.len() as u64 >= offset => {
                let at = (offset - start) as usize;
                let overlap = data.len().min(run.len() - at);
                run[at..at + overlap].copy_from_slice(&data[..overlap]);
                run.extend_from_slice(&data[overlap..]);
                self.bytes += data.len() - overlap;
                (start, start + run.len() as u64)
            }
            _ => {
                self.runs.insert(offset, data.to_vec());
                self.bytes += data.len();
                (offset, offset + data.len() as u64)
            }
        };
        // Absorb every later run the extended one now touches: what the
        // chunk covered of it is dropped, the rest appended.
        while let Some((&next, _)) = self.runs.range(start + 1..=end).next() {
            let absorbed = self.runs.remove(&next).expect("key just seen");
            let covered = absorbed.len().min((end - next) as usize);
            self.bytes -= covered;
            end += (absorbed.len() - covered) as u64;
            self.runs
                .get_mut(&start)
                .expect("the run extended above")
                .extend_from_slice(&absorbed[covered..]);
        }
        Some((start, self.runs[&start].as_slice()))
    }

    /// The run containing `offset` and the offset of its first byte, if the
    /// byte at `offset` is held.
    pub fn run_at(&self, offset: u64) -> Option<(u64, &[u8])> {
        let (&start, data) = self.runs.range(..=offset).next_back()?;
        (offset < start + data.len() as u64).then_some((start, data.as_slice()))
    }

    /// The runs that start at or after `offset`, in offset order.
    pub fn runs_from(&self, offset: u64) -> impl Iterator<Item = (u64, &[u8])> {
        self.runs
            .range(offset..)
            .map(|(&start, data)| (start, data.as_slice()))
    }

    /// Discard stored data below `offset` (it has been fully processed).
    pub fn prune_below(&mut self, offset: u64) {
        if offset <= self.pruned_below {
            return;
        }
        self.pruned_below = offset;
        while let Some(first) = self.runs.first_entry() {
            let start = *first.key();
            if start >= offset {
                break;
            }
            // Whole runs below the point go; the one that straddles it keeps
            // its tail, re-keyed at `offset`.
            let mut run = first.remove();
            let cut = run.len().min((offset - start) as usize);
            self.bytes -= cut;
            if cut < run.len() {
                run.drain(..cut);
                self.runs.insert(offset, run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(start, end)` of the run an insert reports.
    fn span(run: Option<(u64, &[u8])>) -> (u64, u64) {
        let (start, data) = run.expect("stored");
        (start, start + data.len() as u64)
    }

    #[test]
    fn inserts_create_extend_and_merge_fragments() {
        let mut s = FragmentStore::new();
        // Create.
        assert_eq!(span(s.insert(100, &[1u8; 50])), (100, 150));
        assert_eq!(s.fragment_count(), 1);
        // Extend at the end.
        assert_eq!(span(s.insert(150, &[2u8; 50])), (100, 200));
        assert_eq!(s.fragment_count(), 1);
        // New disjoint fragment.
        assert_eq!(span(s.insert(300, &[3u8; 10])), (300, 310));
        assert_eq!(s.fragment_count(), 2);
        // Fill the hole: everything merges.
        assert_eq!(span(s.insert(200, &[4u8; 100])), (100, 310));
        assert_eq!(s.fragment_count(), 1);
        assert_eq!(s.buffered_bytes(), 210);
    }

    #[test]
    fn overlapping_inserts_do_not_duplicate_bytes() {
        let mut s = FragmentStore::new();
        s.insert(0, &[1u8; 100]);
        s.insert(50, &[2u8; 100]);
        assert_eq!(s.buffered_bytes(), 150);
        let (_, run) = s.run_at(0).unwrap();
        assert_eq!(run.len(), 150);
        // The new bytes win over the overlapping region.
        assert_eq!(run[49], 1);
        assert_eq!(run[50], 2);
        assert_eq!(run[100], 2);
    }

    #[test]
    fn run_at_misses_holes() {
        let mut s = FragmentStore::new();
        s.insert(0, &[0u8; 10]);
        s.insert(20, &[0u8; 10]);
        assert_eq!(span(s.run_at(5)), (0, 10));
        assert!(s.run_at(15).is_none());
        assert_eq!(span(s.run_at(25)), (20, 30));
        assert!(s.run_at(30).is_none());
    }

    #[test]
    fn prune_discards_processed_data() {
        let mut s = FragmentStore::new();
        s.insert(0, &[7u8; 100]);
        s.insert(200, &[8u8; 50]);
        s.prune_below(60);
        assert_eq!(s.buffered_bytes(), 40 + 50);
        assert!(s.run_at(10).is_none());
        assert_eq!(s.run_at(60).unwrap().0, 60);
        // Data below the prune point is ignored on later insertion.
        assert!(s.insert(0, &[9u8; 30]).is_none());
        // Data straddling the prune point is trimmed, and an insert wholly
        // inside an existing run must not lose the run's tail.
        assert_eq!(span(s.insert(50, &[9u8; 20])), (60, 100));
        let (_, head) = s.run_at(60).unwrap();
        assert_eq!(head.len(), 40, "existing run length preserved");
        assert_eq!(head[39], 7, "existing tail bytes preserved");
    }

    #[test]
    fn runs_listing_is_ordered() {
        let mut s = FragmentStore::new();
        s.insert(500, &[1u8; 5]);
        s.insert(100, &[2u8; 5]);
        s.insert(300, &[3u8; 5]);
        let offs = |from| s.runs_from(from).map(|(o, _)| o).collect::<Vec<u64>>();
        assert_eq!(offs(0), vec![100, 300, 500]);
        // A run that starts below `from` is not listed, even if it reaches it.
        assert_eq!(offs(101), vec![300, 500]);
        assert_eq!(offs(300), vec![300, 500]);
    }

    #[test]
    fn empty_insert_is_ignored() {
        let mut s = FragmentStore::new();
        assert!(s.insert(10, &[]).is_none());
        assert_eq!(s.buffered_bytes(), 0);
    }
}
