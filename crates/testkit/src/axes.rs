//! The axes of the scenario matrix and the cross-product builder.

use minion_simnet::{fnv1a, LossConfig, SimDuration, FNV_OFFSET_BASIS};
use minion_tcp::CcAlgorithm;

/// The loss process applied to the path toward the receiver.
#[derive(Clone, Debug, PartialEq)]
pub enum LossAxis {
    /// No random loss.
    None,
    /// Independent per-packet loss at the given rate.
    Bernoulli(f64),
    /// Gilbert–Elliott bursty loss (the paper's "real networks lose packets
    /// in bursts" condition): rare transitions into a bad state that drops
    /// most packets.
    Burst,
    /// Drop exactly one mid-stream data segment (1-indexed transmission index
    /// on the last-hop link). The deterministic hole makes out-of-order
    /// delivery *mandatory* for a uTCP receiver.
    ExplicitHole(u64),
}

impl LossAxis {
    /// The simulator loss configuration for this axis value.
    ///
    /// The axis is a thin selector over [`LossConfig`], the single canonical
    /// loss-model type (`minion_simnet::loss`); the burst profile in
    /// particular is defined once, in [`LossConfig::bursty`].
    pub(crate) fn to_loss_config(&self) -> LossConfig {
        match self {
            LossAxis::None => LossConfig::None,
            LossAxis::Bernoulli(p) => LossConfig::Bernoulli { probability: *p },
            LossAxis::Burst => LossConfig::bursty(),
            LossAxis::ExplicitHole(index) => LossConfig::Explicit {
                indices: vec![*index],
            },
        }
    }

    /// Short label used in cell names.
    pub fn label(&self) -> String {
        match self {
            LossAxis::None => "loss=none".into(),
            LossAxis::Bernoulli(p) => format!("loss=bern{:.0}pct", p * 100.0),
            LossAxis::Burst => "loss=burst".into(),
            LossAxis::ExplicitHole(i) => format!("loss=hole@{i}"),
        }
    }
}

/// What sits between the two hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MiddleboxAxis {
    /// A direct link: no middlebox node at all.
    PassThrough,
    /// A transparent middlebox that re-segments TCP data segments down to the
    /// given maximum payload (Figure 4(b): record boundaries no longer align
    /// with segment boundaries).
    Split(usize),
    /// A transparent middlebox that coalesces contiguous segments up to the
    /// given maximum payload (Figure 4(c)).
    Coalesce(usize),
}

impl MiddleboxAxis {
    /// Short label used in cell names.
    pub fn label(&self) -> String {
        match self {
            MiddleboxAxis::PassThrough => "mb=none".into(),
            MiddleboxAxis::Split(n) => format!("mb=split{n}"),
            MiddleboxAxis::Coalesce(n) => format!("mb=coalesce{n}"),
        }
    }
}

/// Which Minion protocol carries the datagrams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadProtocol {
    /// uCOBS datagrams over TCP/uTCP.
    Ucobs,
    /// uTLS secure datagrams over TCP/uTCP.
    Utls,
    /// msTCP multistreaming (messages over uCOBS).
    MsTcp,
}

impl PayloadProtocol {
    /// Short label used in cell names.
    pub fn label(&self) -> &'static str {
        match self {
            PayloadProtocol::Ucobs => "ucobs",
            PayloadProtocol::Utls => "utls",
            PayloadProtocol::MsTcp => "mstcp",
        }
    }
}

/// Whether the receiving endpoint runs the uTCP socket extensions or an
/// unmodified TCP stack (the paper's incremental-deployment axis, §3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackMode {
    /// Unmodified TCP: strictly in-order delivery.
    Standard,
    /// uTCP: `SO_UNORDERED` receive is active.
    Utcp,
}

impl StackMode {
    /// Short label used in cell names.
    pub fn label(&self) -> &'static str {
        match self {
            StackMode::Standard => "tcp",
            StackMode::Utcp => "utcp",
        }
    }
}

/// One fully specified cell of the scenario matrix.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Protocol carrying the datagrams.
    pub protocol: PayloadProtocol,
    /// Receiver-side stack (sender always runs uTCP; receive-side behaviour
    /// is what the paper's out-of-order invariant hinges on).
    pub receiver_stack: StackMode,
    /// Loss process on the path toward the receiver.
    pub loss: LossAxis,
    /// Round-trip propagation time in milliseconds (10–300 in the paper's
    /// testbed range; one-way delay is half).
    pub rtt_ms: u64,
    /// Bottleneck rate in bits/second (both directions).
    pub rate_bps: u64,
    /// Middlebox behaviour between the hosts.
    pub middlebox: MiddleboxAxis,
    /// Number of datagrams (uCOBS/uTLS) or messages (msTCP) to send.
    pub datagrams: usize,
    /// Nominal datagram/message payload size in bytes (individual payloads
    /// vary deterministically around this size so records are tellable
    /// apart).
    pub datagram_len: usize,
    /// Number of concurrent flows. `1` runs the classic per-protocol driver;
    /// larger counts run `datagrams` framed records on each of `flows`
    /// concurrent connections through `minion-engine`'s load scenario
    /// (pass-through path only), asserting exactly-once delivery and
    /// per-stream order per flow.
    pub flows: usize,
    /// Congestion control algorithm on the sending endpoints.
    pub cc: CcAlgorithm,
    /// Simulation seed for this cell.
    pub seed: u64,
}

impl CellSpec {
    /// One-way propagation delay.
    pub(crate) fn one_way_delay(&self) -> SimDuration {
        SimDuration::from_micros(self.rtt_ms * 1000 / 2)
    }

    /// Human-readable cell name, unique within a matrix. Single-flow cells
    /// keep the historical label shape; multi-flow cells append the flow
    /// count.
    pub fn label(&self) -> String {
        let base = format!(
            "{}/{}/{}/rtt{}ms/{}bps/{}",
            self.protocol.label(),
            self.receiver_stack.label(),
            self.loss.label(),
            self.rtt_ms,
            self.rate_bps,
            self.middlebox.label(),
        );
        let mut label = base;
        // Labels predating the cc axis stay stable (NewReno is the default).
        if self.cc != CcAlgorithm::NewReno {
            label.push_str("/cc=");
            label.push_str(self.cc.label());
        }
        if self.flows > 1 {
            label.push_str(&format!("/flows{}", self.flows));
        }
        label
    }

    /// The cell's seed as a **stable hash of its raw axis coordinates**
    /// (enum discriminants plus exact field values — deliberately *not* the
    /// display label, whose formatting rounds Bernoulli rates and may be
    /// reworded) mixed with the matrix's base seed.
    ///
    /// Crucially *not* a function of expansion or execution order: a cell
    /// keeps the same seed whether the matrix is expanded serially, sharded
    /// across executor workers, reordered, or grown by new axis values —
    /// which is what makes parallel sweeps report-identical to serial ones
    /// and keeps existing cells' results stable as the matrix grows.
    pub(crate) fn coordinate_seed(&self, base_seed: u64) -> u64 {
        let mut h = FNV_OFFSET_BASIS;
        fnv1a(&mut h, &base_seed.to_be_bytes());
        fnv1a(&mut h, &[self.protocol as u8, self.receiver_stack as u8]);
        match &self.loss {
            LossAxis::None => fnv1a(&mut h, &[0]),
            LossAxis::Bernoulli(p) => {
                fnv1a(&mut h, &[1]);
                fnv1a(&mut h, &p.to_bits().to_be_bytes());
            }
            LossAxis::Burst => fnv1a(&mut h, &[2]),
            LossAxis::ExplicitHole(i) => {
                fnv1a(&mut h, &[3]);
                fnv1a(&mut h, &i.to_be_bytes());
            }
        }
        fnv1a(&mut h, &self.rtt_ms.to_be_bytes());
        fnv1a(&mut h, &self.rate_bps.to_be_bytes());
        match self.middlebox {
            MiddleboxAxis::PassThrough => fnv1a(&mut h, &[0]),
            MiddleboxAxis::Split(n) => {
                fnv1a(&mut h, &[1]);
                fnv1a(&mut h, &(n as u64).to_be_bytes());
            }
            MiddleboxAxis::Coalesce(n) => {
                fnv1a(&mut h, &[2]);
                fnv1a(&mut h, &(n as u64).to_be_bytes());
            }
        }
        fnv1a(&mut h, &(self.flows as u64).to_be_bytes());
        // Hashed only off the default so every pre-cc-axis cell keeps the
        // seed it has always had (the same stability rule as the label).
        if self.cc != CcAlgorithm::NewReno {
            fnv1a(&mut h, self.cc.label().as_bytes());
        }
        fnv1a(&mut h, &(self.datagrams as u64).to_be_bytes());
        fnv1a(&mut h, &(self.datagram_len as u64).to_be_bytes());
        h
    }

    /// Whether this cell's parameters make out-of-order delivery mandatory:
    /// a deterministic mid-stream hole with a uTCP receiver guarantees later
    /// segments arrive while the hole is outstanding. (Only single-flow
    /// cells: with concurrent flows the dropped transmission index lands on
    /// an arbitrary flow, so no individual flow is guaranteed a hole.)
    pub(crate) fn out_of_order_mandatory(&self) -> bool {
        self.flows == 1
            && self.receiver_stack == StackMode::Utcp
            && matches!(self.loss, LossAxis::ExplicitHole(_))
    }
}

/// A declarative cross product of axis values, expanded by [`MatrixSpec::cells`].
#[derive(Clone, Debug)]
pub struct MatrixSpec {
    /// Protocol axis.
    pub protocols: Vec<PayloadProtocol>,
    /// Receiver stack axis.
    pub receiver_stacks: Vec<StackMode>,
    /// Loss axis.
    pub losses: Vec<LossAxis>,
    /// RTT axis (milliseconds).
    pub rtts_ms: Vec<u64>,
    /// Bottleneck-rate axis (bits/second).
    pub rates_bps: Vec<u64>,
    /// Middlebox axis.
    pub middleboxes: Vec<MiddleboxAxis>,
    /// Datagram/message count per cell.
    pub datagrams: usize,
    /// Nominal payload size per datagram/message.
    pub datagram_len: usize,
    /// Concurrent-flow axis (see [`CellSpec::flows`]).
    pub flows: Vec<usize>,
    /// Congestion-control axis (see [`CellSpec::cc`]); `[NewReno]` keeps the
    /// historical single-algorithm matrix.
    pub ccs: Vec<CcAlgorithm>,
    /// Base seed; each cell derives its own fixed seed from this and a
    /// stable hash of its axis coordinates (`CellSpec::coordinate_seed`),
    /// so seeds are independent of expansion/execution order and adding or
    /// reordering axis values never reshuffles other cells' seeds.
    pub base_seed: u64,
}

impl Default for MatrixSpec {
    fn default() -> Self {
        MatrixSpec {
            protocols: vec![
                PayloadProtocol::Ucobs,
                PayloadProtocol::Utls,
                PayloadProtocol::MsTcp,
            ],
            receiver_stacks: vec![StackMode::Standard, StackMode::Utcp],
            losses: vec![
                LossAxis::None,
                LossAxis::Bernoulli(0.02),
                LossAxis::Burst,
                LossAxis::ExplicitHole(8),
            ],
            rtts_ms: vec![60],
            rates_bps: vec![10_000_000],
            middleboxes: vec![MiddleboxAxis::Split(700)],
            datagrams: 24,
            datagram_len: 900,
            flows: vec![1],
            ccs: vec![CcAlgorithm::NewReno],
            base_seed: 0x5eed_0001,
        }
    }
}

impl MatrixSpec {
    /// A load-oriented matrix: the concurrent-flow axis `{1, 64, 1024}`
    /// against loss models, on a pass-through path (multi-flow cells run
    /// through `minion-engine`'s `LoadScenario`, which builds two hosts).
    pub fn load() -> Self {
        MatrixSpec {
            protocols: vec![PayloadProtocol::Ucobs],
            receiver_stacks: vec![StackMode::Standard, StackMode::Utcp],
            losses: vec![LossAxis::None, LossAxis::Bernoulli(0.01)],
            rtts_ms: vec![40],
            rates_bps: vec![100_000_000],
            middleboxes: vec![MiddleboxAxis::PassThrough],
            datagrams: 12,
            datagram_len: 160,
            flows: vec![1, 64, 1024],
            ccs: vec![CcAlgorithm::NewReno],
            base_seed: 0x5eed_10ad,
        }
    }

    /// Expand the cross product into concrete cells with derived seeds.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out = Vec::new();
        for protocol in &self.protocols {
            for receiver_stack in &self.receiver_stacks {
                for loss in &self.losses {
                    for &rtt_ms in &self.rtts_ms {
                        for &rate_bps in &self.rates_bps {
                            for middlebox in &self.middleboxes {
                                for &flows in &self.flows {
                                    for &cc in &self.ccs {
                                        let mut cell = CellSpec {
                                            protocol: *protocol,
                                            receiver_stack: *receiver_stack,
                                            loss: loss.clone(),
                                            rtt_ms,
                                            rate_bps,
                                            middlebox: *middlebox,
                                            datagrams: self.datagrams,
                                            datagram_len: self.datagram_len,
                                            flows,
                                            cc,
                                            seed: 0,
                                        };
                                        cell.seed = cell.coordinate_seed(self.base_seed);
                                        out.push(cell);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matrix_is_a_full_cross_product() {
        let spec = MatrixSpec::default();
        let cells = spec.cells();
        assert_eq!(cells.len(), 3 * 2 * 4);
        // Labels are unique (each cell is distinct).
        let labels: std::collections::BTreeSet<String> = cells.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), cells.len());
        // Seeds are fixed and distinct.
        let seeds: std::collections::BTreeSet<u64> = cells.iter().map(|c| c.seed).collect();
        assert_eq!(seeds.len(), cells.len());
        assert_eq!(
            spec.cells()[5].seed,
            cells[5].seed,
            "seeds are stable across expansions"
        );
    }

    /// The seed-stability audit behind the parallel sweep: a cell's seed is
    /// a pure function of its coordinates, so reordering the axis lists or
    /// growing the matrix (both of which reshuffle draw order) leaves every
    /// pre-existing cell's seed untouched. Under the old draw-order scheme
    /// (`base_seed * M + expansion_index`) both halves of this test fail.
    #[test]
    fn seeds_depend_on_coordinates_not_draw_order() {
        let spec = MatrixSpec::default();
        let seeds_by_label: std::collections::BTreeMap<String, u64> =
            spec.cells().iter().map(|c| (c.label(), c.seed)).collect();

        // Reorder every axis: draw order changes completely, seeds must not.
        let mut reordered = spec.clone();
        reordered.protocols.reverse();
        reordered.receiver_stacks.reverse();
        reordered.losses.reverse();
        for cell in reordered.cells() {
            assert_eq!(
                cell.seed,
                seeds_by_label[&cell.label()],
                "[{}] seed changed when axis draw order changed",
                cell.label()
            );
        }

        // Grow the matrix: new cells interleave into the expansion, but the
        // original cells keep their seeds.
        let mut grown = spec.clone();
        grown.rtts_ms.insert(0, 25);
        grown.losses.insert(1, LossAxis::Bernoulli(0.05));
        for cell in grown.cells() {
            if let Some(&seed) = seeds_by_label.get(&cell.label()) {
                assert_eq!(
                    cell.seed,
                    seed,
                    "[{}] seed changed when the matrix grew",
                    cell.label()
                );
            }
        }
    }

    #[test]
    fn loss_rates_sharing_a_rounded_label_get_distinct_seeds() {
        let mut a = MatrixSpec::default().cells().remove(0);
        let mut b = a.clone();
        a.loss = LossAxis::Bernoulli(0.011);
        b.loss = LossAxis::Bernoulli(0.014);
        assert_eq!(a.label(), b.label(), "both rates render as bern1pct");
        assert_ne!(
            a.coordinate_seed(1),
            b.coordinate_seed(1),
            "exact loss parameters must reach the seed, not the rounded label"
        );
    }

    #[test]
    fn mandatory_out_of_order_requires_utcp_and_a_hole() {
        let mut cell = MatrixSpec::default().cells().remove(0);
        cell.loss = LossAxis::ExplicitHole(8);
        cell.receiver_stack = StackMode::Utcp;
        assert!(cell.out_of_order_mandatory());
        cell.receiver_stack = StackMode::Standard;
        assert!(!cell.out_of_order_mandatory());
        cell.receiver_stack = StackMode::Utcp;
        cell.loss = LossAxis::Bernoulli(0.02);
        assert!(!cell.out_of_order_mandatory());
    }

    #[test]
    fn loss_axis_maps_to_simulator_configs() {
        assert!(matches!(LossAxis::None.to_loss_config(), LossConfig::None));
        assert!(matches!(
            LossAxis::Bernoulli(0.01).to_loss_config(),
            LossConfig::Bernoulli { .. }
        ));
        assert!(matches!(
            LossAxis::Burst.to_loss_config(),
            LossConfig::GilbertElliott { .. }
        ));
        match LossAxis::ExplicitHole(9).to_loss_config() {
            LossConfig::Explicit { indices } => assert_eq!(indices, vec![9]),
            other => panic!("unexpected {other:?}"),
        }
    }
}
