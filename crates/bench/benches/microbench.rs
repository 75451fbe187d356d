//! Criterion microbenchmarks of the data-path hot spots: COBS encoding and
//! record scanning, TLS record protection, uTLS out-of-order recovery, and
//! TCP segment serialization. These quantify the per-byte costs behind the
//! Figure 6 CPU numbers.
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use minion_cobs::{decode, encode, frame_datagram, scan_records};
use minion_crypto::{hmac_sha256, sha256};
use minion_simnet::SimRng;
use minion_tcp::{SeqNum, TcpFlags, TcpSegment};
use minion_tls::{
    CipherSuite, RecordProtection, UtlsReceiver, CONTENT_APPLICATION_DATA, VERSION_TLS11,
};
use std::time::Duration;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 256) as u8).collect()
}

fn bench_cobs(c: &mut Criterion) {
    let mut group = c.benchmark_group("cobs");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let data = payload(1400);
    group.throughput(Throughput::Bytes(1400));
    group.bench_function("encode_1400B", |b| {
        b.iter(|| encode(std::hint::black_box(&data)))
    });
    let encoded = encode(&data);
    group.bench_function("decode_1400B", |b| {
        b.iter(|| decode(std::hint::black_box(&encoded)))
    });
    // The datagram size the uCOBS workloads send, at the zero densities the
    // codec's cost depends on: no zero (whole 254-byte blocks), random bytes
    // (one in 256), all zeros (a one-byte block per input byte, the
    // block-wise codec's worst case).
    group.throughput(Throughput::Bytes(1200));
    let mut random = vec![0u8; 1200];
    SimRng::new(16).fill_bytes(&mut random);
    let inputs = [
        ("zero_free", vec![0xA5u8; 1200]),
        ("random", random),
        ("all_zero", vec![0u8; 1200]),
    ];
    for (name, data) in &inputs {
        group.bench_function(&format!("encode_1200B_{name}"), |b| {
            b.iter(|| encode(std::hint::black_box(data)))
        });
        let encoded = encode(data);
        group.bench_function(&format!("decode_1200B_{name}"), |b| {
            b.iter(|| decode(std::hint::black_box(&encoded)))
        });
    }
    let (_, random) = &inputs[1];
    group.bench_function("frame_datagram_1200B", |b| {
        b.iter(|| frame_datagram(std::hint::black_box(random)))
    });
    // Record scanning over a 20-record fragment.
    let mut stream = Vec::new();
    for _ in 0..20 {
        stream.extend_from_slice(&frame_datagram(&data));
    }
    group.throughput(Throughput::Bytes(stream.len() as u64));
    group.bench_function("scan_20_records", |b| {
        b.iter(|| scan_records(std::hint::black_box(&stream), true))
    });
    group.finish();
}

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let data = payload(1400);
    group.throughput(Throughput::Bytes(1400));
    group.bench_function("sha256_1400B", |b| {
        b.iter(|| sha256(std::hint::black_box(&data)))
    });
    group.bench_function("hmac_sha256_1400B", |b| {
        b.iter(|| hmac_sha256(b"key", std::hint::black_box(&data)))
    });
    group.finish();
}

fn bench_tls(c: &mut Criterion) {
    let mut group = c.benchmark_group("tls");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let data = payload(1400);
    let keys = (*b"0123456789abcdef", [7u8; 32]);
    group.throughput(Throughput::Bytes(1400));
    group.bench_function("seal_record_1400B", |b| {
        let mut tx = RecordProtection::new(
            CipherSuite::Aes128CbcExplicitIv,
            keys.0,
            keys.1,
            VERSION_TLS11,
        );
        let mut n = 0u64;
        b.iter(|| {
            let wire = tx.seal(n, CONTENT_APPLICATION_DATA, std::hint::black_box(&data));
            n += 1;
            wire
        })
    });
    // uTLS out-of-order recovery of a record after a hole.
    group.bench_function("utls_recover_after_hole", |b| {
        let mut tx = RecordProtection::new(
            CipherSuite::Aes128CbcExplicitIv,
            keys.0,
            keys.1,
            VERSION_TLS11,
        );
        let rx_prot = RecordProtection::new(
            CipherSuite::Aes128CbcExplicitIv,
            keys.0,
            keys.1,
            VERSION_TLS11,
        );
        let wires: Vec<Vec<u8>> = (0..4u64)
            .map(|n| tx.seal(n, CONTENT_APPLICATION_DATA, &data))
            .collect();
        let offset1 = wires[0].len() as u64;
        let offset3 = (wires[0].len() + wires[1].len() + wires[2].len()) as u64;
        b.iter(|| {
            let mut rx = UtlsReceiver::new(rx_prot.clone(), 8);
            rx.on_fragment(0, &wires[0]);
            let _ = offset1;
            rx.on_fragment(offset3, std::hint::black_box(&wires[3]))
        })
    });
    group.finish();
}

fn bench_tcp(c: &mut Criterion) {
    let mut group = c.benchmark_group("tcp");
    group
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300));
    let mut seg = TcpSegment::bare(443, 50000, SeqNum(123456), SeqNum(654321), TcpFlags::ACK);
    seg.payload = bytes::Bytes::from(payload(1400));
    group.throughput(Throughput::Bytes(1400));
    group.bench_function("segment_encode_1400B", |b| {
        b.iter(|| std::hint::black_box(&seg).encode())
    });
    let wire = seg.encode();
    group.bench_function("segment_decode_1400B", |b| {
        b.iter(|| TcpSegment::decode(std::hint::black_box(&wire)))
    });
    group.finish();
}

criterion_group!(benches, bench_cobs, bench_crypto, bench_tls, bench_tcp);
criterion_main!(benches);
