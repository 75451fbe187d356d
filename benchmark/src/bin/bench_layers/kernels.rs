//! Kernels: each layer's public functions driven directly, for a fixed
//! number of operations, on inputs shaped like the workload (write size,
//! segment payload, flow count, send-queue depth, hole pattern, datagram
//! size). Reported as ns/op and allocations/op in that workload's row; a
//! workload that never enters a layer has no row for it.
//!
//! This file is the one place that binds to the layers' own signatures.

use bytes::Bytes;
use minion_benchmark::alloc::counted;
use minion_benchmark::stats::median;
use minion_cobs::{decode, encode, frame_datagram, scan_records};
use minion_core::FragmentStore;
use minion_crypto::{cbc, hmac_sha256};
use minion_engine::{Histogram, TimerWheel, TraceEvent, TraceKind, TraceRing, TraceSink};
use minion_simnet::{Link, LinkConfig, NodeId, Packet, SimDuration, SimRng, SimTime, World};
use minion_stack::{SocketHandle, TransportPacket, TupleTable};
use minion_tcp::{
    ReceiveBuffer, SendBuffer, SeqNum, SocketOptions, TcpConfig, TcpConnection, TcpFlags,
    TcpSegment,
};
use minion_tls::{
    CipherSuite, RecordHeader, RecordProtection, UtlsReceiver, CONTENT_APPLICATION_DATA,
    RECORD_HEADER_LEN, VERSION_TLS11,
};
use std::hint::black_box;
use std::time::Instant;

/// Which record layer rides on the connection, with its datagram size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Records {
    /// The engine workloads: the scenario frames its own records.
    Plain,
    Cobs(usize),
    Tls(usize),
}

/// The properties of a workload the kernels' inputs are shaped by.
#[derive(Clone, Copy, Debug)]
pub struct KernelShape {
    /// Bytes per application write into the send buffer.
    pub write_len: usize,
    /// Payload bytes per data segment.
    pub segment_len: usize,
    /// Concurrent flows: demux table and timer wheel population.
    pub flows: usize,
    /// One whole-stream write per connection (engine workloads), or a
    /// stream of datagram writes into one connection.
    pub writes_per_connection: usize,
    pub options: SocketOptions,
    /// Random loss rate of the path (the link kernel draws it).
    pub loss: f64,
    pub records: Records,
    /// Some writes jump the queue (`prio_send`).
    pub priorities: bool,
}

const MSS: usize = 1448;
const BUFFER: usize = 256 * 1024;
/// Rounds per kernel; the reported time is the median round's.
const ROUNDS: usize = 25;
/// 1 KB = 1000 bytes, as 1 MB = 10^6 bytes everywhere in this benchmark.
const KB: f64 = 1000.0;

pub struct Cost {
    pub ns_per_op: f64,
    pub allocs_per_op: f64,
}

/// Time `run` on a fresh `setup()` for `ROUNDS` rounds, then count one more
/// round's allocations. `run` returns how many operations it performed.
fn measure<S>(mut setup: impl FnMut() -> S, mut run: impl FnMut(&mut S) -> usize) -> Cost {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let mut state = setup();
            let start = Instant::now();
            let ops = run(&mut state);
            let ns = start.elapsed().as_nanos() as f64;
            black_box(&state);
            ns / ops as f64
        })
        .collect();
    let mut state = setup();
    let (ops, allocs) = counted(|| run(&mut state));
    Cost {
        ns_per_op: median(&samples),
        allocs_per_op: allocs.allocations as f64 / ops as f64,
    }
}

fn pattern(len: usize) -> Vec<u8> {
    // No zero bytes in 250 of every 251: COBS sees near-worst-case runs, as
    // with the engine's `% 251` payloads.
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

pub type Rows = Vec<(&'static str, f64)>;

pub fn run(shape: &KernelShape) -> Rows {
    let mut rows = Rows::new();
    sendbuf(shape, &mut rows);
    codecs(shape, &mut rows);
    recvbuf(shape, &mut rows);
    connection(shape, &mut rows);
    plumbing(shape, &mut rows);
    match shape.records {
        Records::Plain => engine_only(shape, &mut rows),
        Records::Cobs(len) => cobs(shape, len, &mut rows),
        Records::Tls(len) => tls(len, &mut rows),
    }
    rows
}

// ---------------------------------------------------------------------
// tcp::sendbuf
// ---------------------------------------------------------------------

fn sendbuf_write(shape: &KernelShape, buf: &mut SendBuffer, data: &[u8], priority: u32) {
    let unordered = shape.options.unordered_send;
    buf.write_with_priority(data, priority, false, unordered, MSS, true)
        .expect("kernel sizes fit the buffer");
}

/// Send buffers as the workload fills them: one whole-stream write each, or
/// one buffer holding a backlog of datagram writes.
fn filled_sendbufs(shape: &KernelShape, data: &[u8]) -> Vec<SendBuffer> {
    let (buffers, writes) = sendbuf_population(shape);
    (0..buffers)
        .map(|_| {
            let mut buf = SendBuffer::new(BUFFER);
            for _ in 0..writes {
                sendbuf_write(shape, &mut buf, data, 0);
            }
            buf
        })
        .collect()
}

/// `(buffers per round, writes per buffer)`.
fn sendbuf_population(shape: &KernelShape) -> (usize, usize) {
    if shape.writes_per_connection == 1 {
        (32, 1)
    } else {
        // The closed-loop client keeps the buffer within four datagrams of
        // full; leave room for the priority inserts.
        (1, BUFFER / shape.write_len - 36)
    }
}

/// Front to back over full, unacknowledged buffers, one call of `each` per
/// segment (it returns where the next one starts): mean depth is half the
/// buffer, the worst a sender whose window is open can see.
fn walk(bufs: &mut [SendBuffer], mut each: impl FnMut(&mut SendBuffer, u64) -> u64) -> usize {
    let mut ops = 0;
    for buf in bufs {
        let mut offset = buf.head_offset();
        while offset < buf.end_offset() {
            offset = each(buf, offset);
            ops += 1;
        }
    }
    ops
}

fn sendbuf(shape: &KernelShape, rows: &mut Rows) {
    let data = pattern(shape.write_len);
    let (buffers, writes) = sendbuf_population(shape);
    let boundaries = shape.options.unordered_send;

    let write = measure(
        || {
            (0..buffers)
                .map(|_| SendBuffer::new(BUFFER))
                .collect::<Vec<_>>()
        },
        |bufs| {
            for buf in bufs.iter_mut() {
                for _ in 0..writes {
                    sendbuf_write(shape, buf, black_box(&data), 0);
                }
            }
            buffers * writes
        },
    );
    rows.push(("tcp.sendbuf.write_ns", write.ns_per_op));

    let data_at = measure(
        || filled_sendbufs(shape, &data),
        |bufs| {
            walk(bufs, |buf, offset| {
                let segment = buf
                    .data_at(offset, shape.segment_len, boundaries)
                    .expect("offset is buffered");
                offset + black_box(segment).len() as u64
            })
        },
    );
    rows.push(("tcp.sendbuf.data_at_ns", data_at.ns_per_op));

    let segment_end = |buf: &SendBuffer, offset: u64| {
        let chunk_end = buf.chunk_end_at(offset).expect("offset is buffered");
        let limit = if boundaries {
            chunk_end
        } else {
            buf.end_offset()
        };
        limit.min(offset + shape.segment_len as u64)
    };
    let ack = measure(
        || filled_sendbufs(shape, &data),
        |bufs| {
            walk(bufs, |buf, offset| {
                let end = segment_end(buf, offset);
                buf.mark_transmitted(end);
                buf.acknowledge(end);
                end
            })
        },
    );
    rows.push(("tcp.sendbuf.ack_ns", ack.ns_per_op));

    if shape.priorities {
        const INSERTS: usize = 32;
        let insert = measure(
            || {
                let mut bufs = filled_sendbufs(shape, &data);
                for buf in &mut bufs {
                    // A flight's worth is on the wire and cannot be passed.
                    buf.mark_transmitted(8 * shape.write_len as u64);
                }
                bufs
            },
            |bufs| {
                for _ in 0..INSERTS {
                    sendbuf_write(shape, &mut bufs[0], black_box(&data), 7);
                }
                INSERTS
            },
        );
        rows.push(("tcp.sendbuf.prio_insert_ns", insert.ns_per_op));
    }

    // A segment's whole life in the buffer: written, read out once, acked.
    let life = measure(
        || {
            (0..buffers)
                .map(|_| SendBuffer::new(BUFFER))
                .collect::<Vec<_>>()
        },
        |bufs| {
            for buf in bufs.iter_mut() {
                for _ in 0..writes {
                    sendbuf_write(shape, buf, &data, 0);
                }
            }
            walk(bufs, |buf, offset| {
                let segment = buf
                    .data_at(offset, shape.segment_len, boundaries)
                    .expect("offset is buffered");
                let end = offset + black_box(segment).len() as u64;
                buf.mark_transmitted(end);
                buf.acknowledge(end);
                end
            })
        },
    );
    rows.push(("tcp.sendbuf.allocs_per_segment", life.allocs_per_op));
}

// ---------------------------------------------------------------------
// tcp::segment, stack::wire
// ---------------------------------------------------------------------

fn data_segment(len: usize) -> TcpSegment {
    TcpSegment {
        payload: Bytes::from(pattern(len)),
        window: 262_144,
        ..TcpSegment::bare(
            40_000,
            7000,
            SeqNum(1_000_000),
            SeqNum(2_000_000),
            TcpFlags::ACK,
        )
    }
}

fn codecs(shape: &KernelShape, rows: &mut Rows) {
    const OPS: usize = 512;
    let segment = data_segment(shape.segment_len);
    let encoded = segment.encode();
    let encode = measure(
        || (),
        |()| {
            for _ in 0..OPS {
                black_box(black_box(&segment).encode());
            }
            OPS
        },
    );
    let decode = measure(
        || (),
        |()| {
            for _ in 0..OPS {
                black_box(TcpSegment::decode(black_box(&encoded)));
            }
            OPS
        },
    );
    rows.push(("tcp.segment.encode_ns", encode.ns_per_op));
    rows.push(("tcp.segment.decode_ns", decode.ns_per_op));
    rows.push((
        "tcp.segment.allocs_per_segment",
        encode.allocs_per_op + decode.allocs_per_op,
    ));

    let packet = TransportPacket::Tcp(segment);
    let on_wire = packet.encode();
    let encode = measure(
        || (),
        |()| {
            for _ in 0..OPS {
                black_box(black_box(&packet).encode());
            }
            OPS
        },
    );
    let decode = measure(
        || (),
        |()| {
            for _ in 0..OPS {
                black_box(TransportPacket::decode(black_box(&on_wire)));
            }
            OPS
        },
    );
    rows.push(("stack.wire.encode_ns", encode.ns_per_op));
    rows.push(("stack.wire.decode_ns", decode.ns_per_op));
    rows.push((
        "stack.wire.allocs_per_packet",
        encode.allocs_per_op + decode.allocs_per_op,
    ));
}

// ---------------------------------------------------------------------
// tcp::recvbuf
// ---------------------------------------------------------------------

fn recvbuf(shape: &KernelShape, rows: &mut Rows) {
    let segment = pattern(shape.segment_len);
    let len = shape.segment_len as u64;
    let unordered = shape.options.unordered_receive;
    let in_order_run = (BUFFER / shape.segment_len).min(64) as u64;

    let in_order = measure(
        || ReceiveBuffer::new(BUFFER, unordered),
        |buf| {
            for k in 0..in_order_run {
                buf.on_data(k * len, black_box(&segment));
            }
            in_order_run as usize
        },
    );
    rows.push(("tcp.recvbuf.on_data_inorder_ns", in_order.ns_per_op));

    let read = measure(
        || {
            let mut buf = ReceiveBuffer::new(BUFFER, unordered);
            for k in 0..in_order_run {
                buf.on_data(k * len, &segment);
            }
            buf
        },
        |buf| {
            let mut ops = 0;
            while let Some(chunk) = buf.read() {
                black_box(chunk);
                ops += 1;
            }
            ops
        },
    );
    rows.push(("tcp.recvbuf.read_ns", read.ns_per_op));
    rows.push((
        "tcp.recvbuf.allocs_per_segment",
        in_order.allocs_per_op + read.allocs_per_op,
    ));

    // One lost segment, a fast-retransmit's worth of arrivals behind the
    // hole, then the retransmission fills it. Every workload but
    // `bulk_clean` loses segments, to the loss model or to the queue.
    const BEHIND_THE_HOLE: u64 = 32;
    let out_of_order = measure(
        || ReceiveBuffer::new(BUFFER, unordered),
        |buf| {
            for k in 1..=BEHIND_THE_HOLE {
                buf.on_data(k * len, black_box(&segment));
            }
            buf.on_data(0, black_box(&segment));
            BEHIND_THE_HOLE as usize + 1
        },
    );
    rows.push(("tcp.recvbuf.on_data_ooo_ns", out_of_order.ns_per_op));
}

// ---------------------------------------------------------------------
// tcp::connection: two connections wired back to back, no sim
// ---------------------------------------------------------------------

/// Open a connection pair, move the workload's writes across it in
/// lockstep turns (`poll` on one side feeds `on_segment` on the other),
/// close. Returns the segments exchanged.
fn connection_lifetime(shape: &KernelShape, data: &[u8]) -> usize {
    let config = TcpConfig::default();
    let mut a = TcpConnection::new(40_000, 7000, config.clone(), shape.options);
    let mut b = TcpConnection::new(7000, 40_000, config, shape.options);
    let mut now = SimTime::ZERO;
    b.listen();
    a.open(now);

    let total = (shape.writes_per_connection * data.len()) as u64;
    let (mut written, mut received) = (0usize, 0u64);
    let mut turns = 0;
    while received < total {
        turns += 1;
        assert!(turns < 100_000, "back-to-back transfer did not finish");
        // A full send buffer refuses the write; the next turn retries.
        while written < shape.writes_per_connection && a.write(data).is_ok() {
            written += 1;
        }
        for segment in a.poll(now) {
            b.on_segment(&segment, now);
        }
        for segment in b.poll(now) {
            a.on_segment(&segment, now);
        }
        while let Some(chunk) = b.read() {
            // An unordered receiver may hand the same bytes over twice;
            // without loss it never does.
            received += black_box(chunk).len() as u64;
        }
        now += SimDuration::from_millis(1);
    }
    a.close();
    b.close();
    for _ in 0..4 {
        for segment in a.poll(now) {
            b.on_segment(&segment, now);
        }
        for segment in b.poll(now) {
            a.on_segment(&segment, now);
        }
        now += SimDuration::from_millis(1);
    }
    (a.stats().segments_sent + b.stats().segments_sent) as usize
}

fn connection(shape: &KernelShape, rows: &mut Rows) {
    let data = pattern(shape.write_len);
    // Enough connections per round that a round is not all clock reads.
    let lifetimes = if shape.writes_per_connection == 1 {
        16
    } else {
        1
    };
    let cost = measure(
        || (),
        |()| {
            (0..lifetimes)
                .map(|_| connection_lifetime(shape, &data))
                .sum()
        },
    );
    rows.push(("tcp.connection.ns_per_segment", cost.ns_per_op));
    rows.push(("tcp.connection.allocs_per_segment", cost.allocs_per_op));
}

// ---------------------------------------------------------------------
// stack::demux, simnet
// ---------------------------------------------------------------------

fn plumbing(shape: &KernelShape, rows: &mut Rows) {
    let flows = shape.flows as u32;
    let key = |i: u32| (7000u16, NodeId(0), (10_000 + i % 50_000) as u16);
    let lookups = shape.flows.max(1024);
    let demux = measure(
        || {
            let mut table = TupleTable::new();
            for i in 0..flows {
                table.insert(key(i), SocketHandle(i));
            }
            table
        },
        |table| {
            for i in 0..lookups as u32 {
                black_box(table.get(black_box(&key(i % flows))));
            }
            lookups
        },
    );
    rows.push(("stack.demux.get_ns", demux.ns_per_op));

    let on_wire = Bytes::from(TransportPacket::Tcp(data_segment(shape.segment_len)).encode());
    let link = LinkConfig::new(1_000_000_000, SimDuration::from_millis(5))
        .with_queue_bytes(64 << 20)
        .with_loss_rate(shape.loss);
    const BATCH: usize = 256;
    let world = measure(
        || {
            let mut world = World::new(1);
            let a = world.add_node("a");
            let b = world.add_node("b");
            world.add_duplex_link(a, b, link.clone());
            (world, a, b, Vec::with_capacity(BATCH))
        },
        |(world, a, b, arrived)| {
            let mut now = SimTime::ZERO;
            for _ in 0..4 {
                for _ in 0..BATCH {
                    black_box(world.send(now, Packet::new(*a, *b, on_wire.clone())));
                }
                now += SimDuration::from_millis(50);
                arrived.clear();
                black_box(world.drain_due_into(now, arrived));
            }
            4 * BATCH
        },
    );
    rows.push(("simnet.world.send_drain_ns", world.ns_per_op));

    let packet = Packet::new(NodeId(0), NodeId(1), on_wire);
    let transmit = measure(
        || Link::new(link.clone(), SimRng::new(1)),
        |link| {
            let mut now = SimTime::ZERO;
            for _ in 0..4 * BATCH {
                black_box(link.transmit(now, black_box(&packet)));
                now += SimDuration::from_micros(20);
            }
            4 * BATCH
        },
    );
    rows.push(("simnet.link.transmit_ns", transmit.ns_per_op));
}

// ---------------------------------------------------------------------
// engine::wheel, obs: what only the engine workloads enter
// ---------------------------------------------------------------------

fn engine_only(shape: &KernelShape, rows: &mut Rows) {
    let flows = shape.flows as u32;
    let rto = SimDuration::from_millis(200);
    let armed = move || {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        for flow in 0..flows {
            wheel.schedule(flow, SimTime::from_micros(u64::from(flow) * 7) + rto);
        }
        wheel
    };
    // Re-arming an armed timer: what TCP does on every ACK.
    let schedule = measure(armed, |wheel| {
        for flow in 0..flows {
            let deadline = SimTime::from_micros(u64::from(flow) * 7 + 1000) + rto;
            wheel.schedule(black_box(flow), deadline);
        }
        flows as usize
    });
    rows.push(("engine.wheel.schedule_ns", schedule.ns_per_op));

    // Stepping through the stretch of time in which every timer fires.
    let advance = measure(
        || (armed(), Vec::new()),
        |(wheel, expired)| {
            let end = SimTime::from_micros(u64::from(flows) * 7) + rto;
            let mut now = SimTime::ZERO + rto - SimDuration::from_millis(1);
            let mut ops = 0;
            while now <= end {
                expired.clear();
                black_box(wheel.advance(now, expired));
                now += SimDuration::from_micros(50);
                ops += 1;
            }
            ops
        },
    );
    rows.push(("engine.wheel.advance_ns", advance.ns_per_op));

    const OPS: usize = 8192;
    let record = measure(Histogram::new, |hist| {
        for i in 0..OPS as u64 {
            hist.record(black_box(i * 7919 % 400_000_000));
        }
        OPS
    });
    rows.push(("obs.hist.record_ns", record.ns_per_op));

    let offer = measure(TraceRing::default, |ring| {
        for i in 0..OPS as u32 {
            ring.offer(black_box(&TraceEvent {
                t_ns: u64::from(i) * 1000,
                flow: i % flows,
                seq: i,
                kind: TraceKind::RecordDelivered,
            }));
        }
        OPS
    });
    rows.push(("obs.ring.offer_ns", offer.ns_per_op));
}

// ---------------------------------------------------------------------
// cobs, core::FragmentStore
// ---------------------------------------------------------------------

fn cobs(shape: &KernelShape, datagram_len: usize, rows: &mut Rows) {
    const OPS: usize = 256;
    let datagram = pattern(datagram_len);
    let encoded = encode(&datagram);
    let per_kb = |cost: &Cost, bytes: usize| cost.ns_per_op / (bytes as f64 / KB);

    let enc = measure(
        || (),
        |()| {
            for _ in 0..OPS {
                black_box(encode(black_box(&datagram)));
            }
            OPS
        },
    );
    rows.push(("cobs.encode_ns_per_kb", per_kb(&enc, datagram_len)));
    let dec = measure(
        || (),
        |()| {
            for _ in 0..OPS {
                black_box(decode(black_box(&encoded)).expect("round trip"));
            }
            OPS
        },
    );
    rows.push(("cobs.decode_ns_per_kb", per_kb(&dec, datagram_len)));

    // What a receiver scans after a burst: eight records in one fragment.
    let fragment: Vec<u8> = (0..8).flat_map(|_| frame_datagram(&datagram)).collect();
    let scan = measure(
        || (),
        |()| {
            for _ in 0..OPS / 8 {
                black_box(scan_records(black_box(&fragment), true));
            }
            OPS / 8
        },
    );
    rows.push(("cobs.scan_ns_per_kb", per_kb(&scan, fragment.len())));

    // A record's whole life: framed by the sender, scanned by the receiver.
    let life = measure(
        || (),
        |()| {
            for _ in 0..OPS {
                let framed = frame_datagram(black_box(&datagram));
                black_box(scan_records(&framed, true));
            }
            OPS
        },
    );
    rows.push(("cobs.allocs_per_record", life.allocs_per_op));

    // In-order arrivals, pruned behind the last complete record as
    // `UcobsSocket::recv` does.
    let chunk = frame_datagram(&datagram);
    debug_assert!(chunk.len() <= shape.segment_len + 16);
    let insert = measure(FragmentStore::new, |store| {
        let mut offset = 0u64;
        for _ in 0..OPS {
            black_box(store.insert(offset, black_box(&chunk)));
            offset += chunk.len() as u64;
            store.prune_below(offset - 1);
        }
        OPS
    });
    rows.push(("core.fragment.insert_ns", insert.ns_per_op));
}

// ---------------------------------------------------------------------
// crypto, tls
// ---------------------------------------------------------------------

fn tls(datagram_len: usize, rows: &mut Rows) {
    const OPS: usize = 32;
    let datagram = pattern(datagram_len);
    let (enc_key, mac_key, iv) = ([0x11u8; 16], [0x22u8; 32], [0x33u8; 16]);
    let per_kb = |cost: &Cost, bytes: usize| cost.ns_per_op / (bytes as f64 / KB);

    let hmac = measure(
        || (),
        |()| {
            for _ in 0..OPS {
                black_box(hmac_sha256(&mac_key, black_box(&datagram)));
            }
            OPS
        },
    );
    rows.push(("crypto.hmac_ns_per_kb", per_kb(&hmac, datagram_len)));
    let ciphertext = cbc::encrypt(&enc_key, &iv, &datagram);
    let enc = measure(
        || (),
        |()| {
            for _ in 0..OPS {
                black_box(cbc::encrypt(&enc_key, &iv, black_box(&datagram)));
            }
            OPS
        },
    );
    rows.push(("crypto.aes_cbc_enc_ns_per_kb", per_kb(&enc, datagram_len)));
    let dec = measure(
        || (),
        |()| {
            for _ in 0..OPS {
                black_box(cbc::decrypt(&enc_key, &iv, black_box(&ciphertext)).expect("padding"));
            }
            OPS
        },
    );
    rows.push(("crypto.aes_cbc_dec_ns_per_kb", per_kb(&dec, datagram_len)));

    let protection = || {
        RecordProtection::new(
            CipherSuite::Aes128CbcExplicitIv,
            enc_key,
            mac_key,
            VERSION_TLS11,
        )
    };
    let seal = measure(protection, |p| {
        for n in 0..OPS as u64 {
            black_box(p.seal(n, CONTENT_APPLICATION_DATA, black_box(&datagram)));
        }
        OPS
    });
    rows.push(("tls.record.seal_ns", seal.ns_per_op));

    // One datagram is one record is one write is one segment: every
    // fragment the receiver sees holds exactly one record.
    let records: Vec<Vec<u8>> = (0..OPS as u64)
        .map(|n| protection().seal(n, CONTENT_APPLICATION_DATA, &datagram))
        .collect();
    let open = measure(protection, |p| {
        for (n, record) in records.iter().enumerate() {
            let (header, body) = record.split_at(RECORD_HEADER_LEN);
            let header = RecordHeader::decode(header).expect("sealed above");
            black_box(p.open(n as u64, &header, black_box(body)).expect("MAC"));
        }
        OPS
    });
    rows.push(("tls.record.open_ns", open.ns_per_op));

    let receiver = || UtlsReceiver::new(protection(), 8);
    let len = records[0].len() as u64;
    let in_order = measure(receiver, |rx| {
        let mut delivered = 0;
        for (n, record) in records.iter().enumerate() {
            delivered += rx.on_fragment(n as u64 * len, black_box(record)).len();
        }
        assert_eq!(delivered, OPS, "every record opens in order");
        OPS
    });
    rows.push(("tls.utls.fragment_inorder_ns", in_order.ns_per_op));
    rows.push(("tls.utls.allocs_per_fragment", in_order.allocs_per_op));

    // The first segment is lost; everything behind it arrives, then the
    // retransmission.
    let after_hole = measure(receiver, |rx| {
        let mut delivered = 0;
        for (n, record) in records.iter().enumerate().skip(1) {
            delivered += rx.on_fragment(n as u64 * len, black_box(record)).len();
        }
        delivered += rx.on_fragment(0, black_box(&records[0])).len();
        assert_eq!(delivered, OPS, "every record opens exactly once");
        OPS
    });
    rows.push(("tls.utls.fragment_after_hole_ns", after_hole.ns_per_op));
}
