//! The msTCP connection: stream management, chunking, and per-stream
//! in-order reassembly over a uCOBS datagram connection.

use crate::proto::{Chunk, ChunkFlags};
use minion_core::{MinionConfig, UcobsSocket};
use minion_simnet::SimTime;
use minion_stack::{Host, HostError, SocketAddr};
use std::collections::BTreeMap;

/// Identifier of one message stream within an msTCP connection.
pub type StreamId = u32;

/// An event delivered to the application.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamEvent {
    /// The stream the data belongs to.
    pub stream: StreamId,
    /// In-order payload bytes for that stream.
    pub data: Vec<u8>,
    /// Whether this event completes a message.
    pub end_of_message: bool,
    /// Whether the stream is now finished.
    pub end_of_stream: bool,
}

/// Connection statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MsTcpStats {
    /// Chunks sent.
    pub chunks_sent: u64,
    /// Chunks received (before reordering).
    pub chunks_received: u64,
    /// Chunks that arrived out of order within their stream.
    pub chunks_out_of_order: u64,
    /// Streams opened locally.
    pub streams_opened: u64,
}

#[derive(Default)]
struct SendStream {
    next_sequence: u32,
}

#[derive(Default)]
struct RecvStream {
    next_sequence: u32,
    pending: BTreeMap<u32, Chunk>,
}

/// An msTCP connection multiplexing message streams over one uCOBS socket.
pub struct MsTcpConnection {
    transport: UcobsSocket,
    next_stream_id: StreamId,
    send_streams: BTreeMap<StreamId, SendStream>,
    recv_streams: BTreeMap<StreamId, RecvStream>,
    stats: MsTcpStats,
}

impl MsTcpConnection {
    /// Default chunk payload size (fits one MSS-sized segment after uCOBS
    /// framing and the chunk header).
    const DEFAULT_CHUNK_SIZE: usize = 1400;

    /// Open an msTCP connection to `remote`.
    pub fn connect(
        host: &mut Host,
        remote: SocketAddr,
        config: &MinionConfig,
        now: SimTime,
    ) -> Self {
        // Client-initiated streams get odd ids, server-initiated even ids, so
        // the two sides never collide.
        Self::from_socket(UcobsSocket::connect(host, remote, config, now), 1)
    }

    /// Listen for msTCP connections on `port`.
    pub fn listen(host: &mut Host, port: u16, config: &MinionConfig) -> Result<(), HostError> {
        UcobsSocket::listen(host, port, config)
    }

    /// Accept a pending msTCP connection.
    pub fn accept(host: &mut Host, port: u16) -> Option<Self> {
        UcobsSocket::accept(host, port).map(|s| Self::from_socket(s, 2))
    }

    fn from_socket(transport: UcobsSocket, first_stream_id: StreamId) -> Self {
        MsTcpConnection {
            transport,
            next_stream_id: first_stream_id,
            send_streams: BTreeMap::new(),
            recv_streams: BTreeMap::new(),
            stats: MsTcpStats::default(),
        }
    }

    /// Connection statistics.
    pub fn stats(&self) -> &MsTcpStats {
        &self.stats
    }

    /// Statistics of the underlying uCOBS endpoint.
    pub fn transport_stats(&self) -> &minion_core::DatagramStats {
        self.transport.stats()
    }

    /// Whether the underlying connection is established.
    pub fn is_established(&self, host: &Host) -> bool {
        self.transport.is_established(host)
    }

    /// Open a new outgoing stream.
    pub fn open_stream(&mut self) -> StreamId {
        let id = self.next_stream_id;
        self.next_stream_id += 2;
        self.send_streams.insert(id, SendStream::default());
        self.stats.streams_opened += 1;
        id
    }

    /// Send one message on a stream, optionally finishing the stream.
    ///
    /// The message is split into chunks; `priority` is passed to uTCP's send
    /// queue so an urgent stream's chunks can pass queued bulk data.
    pub fn send_message(
        &mut self,
        host: &mut Host,
        stream: StreamId,
        message: &[u8],
        end_of_stream: bool,
        priority: u32,
    ) -> Result<(), HostError> {
        let send_stream = self.send_streams.entry(stream).or_default();
        let mut offset = 0usize;
        loop {
            let end = (offset + Self::DEFAULT_CHUNK_SIZE).min(message.len());
            let last = end == message.len();
            let chunk = Chunk {
                stream_id: stream,
                sequence: send_stream.next_sequence,
                flags: ChunkFlags {
                    end_of_message: last,
                    end_of_stream: last && end_of_stream,
                },
                payload: message[offset..end].to_vec(),
            };
            send_stream.next_sequence += 1;
            self.stats.chunks_sent += 1;
            self.transport.send(host, &chunk.encode(), priority)?;
            if last {
                break;
            }
            offset = end;
        }
        Ok(())
    }

    /// Receive all stream data that can currently be delivered in order
    /// within each stream.
    pub fn recv(&mut self, host: &mut Host) -> Vec<StreamEvent> {
        let mut events = Vec::new();
        for datagram in self.transport.recv(host) {
            let Some(chunk) = Chunk::decode(&datagram.payload) else {
                continue;
            };
            self.stats.chunks_received += 1;
            let stream = self.recv_streams.entry(chunk.stream_id).or_default();
            if chunk.sequence != stream.next_sequence {
                self.stats.chunks_out_of_order += 1;
            }
            if chunk.sequence >= stream.next_sequence {
                stream.pending.insert(chunk.sequence, chunk);
            }
        }
        // Drain deliverable chunks per stream, in stream-id order (done after
        // ingesting all datagrams so a single recv call delivers as much as
        // possible).
        for (&id, stream) in &mut self.recv_streams {
            while let Some(chunk) = stream.pending.remove(&stream.next_sequence) {
                stream.next_sequence += 1;
                events.push(StreamEvent {
                    stream: id,
                    data: chunk.payload,
                    end_of_message: chunk.flags.end_of_message,
                    end_of_stream: chunk.flags.end_of_stream,
                });
            }
        }
        events
    }

    /// Free space in the underlying send buffer.
    pub fn send_buffer_free(&self, host: &Host) -> usize {
        self.transport.send_buffer_free(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_simnet::{LinkConfig, LossConfig, NodeId, SimDuration};
    use minion_stack::Sim;

    fn sim_pair(loss: LossConfig) -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(17);
        let a = sim.add_host("client");
        let b = sim.add_host("server");
        sim.link(
            a,
            b,
            LinkConfig::new(8_000_000, SimDuration::from_millis(30)).with_loss(loss),
        );
        (sim, a, b)
    }

    fn establish(
        sim: &mut Sim,
        a: NodeId,
        b: NodeId,
        config: &MinionConfig,
    ) -> (MsTcpConnection, MsTcpConnection) {
        MsTcpConnection::listen(sim.host_mut(b), 8080, config).unwrap();
        let now = sim.now();
        let client =
            MsTcpConnection::connect(sim.host_mut(a), SocketAddr::new(b, 8080), config, now);
        sim.run_for(SimDuration::from_millis(200));
        let server = MsTcpConnection::accept(sim.host_mut(b), 8080).expect("accepted");
        (client, server)
    }

    /// Reassemble per-stream message bytes from events.
    fn collect(events: &[StreamEvent]) -> BTreeMap<StreamId, Vec<u8>> {
        let mut map: BTreeMap<StreamId, Vec<u8>> = BTreeMap::new();
        for ev in events {
            map.entry(ev.stream)
                .or_default()
                .extend_from_slice(&ev.data);
        }
        map
    }

    #[test]
    fn multiple_streams_deliver_their_messages() {
        let (mut sim, a, b) = sim_pair(LossConfig::None);
        let config = MinionConfig::default();
        let (mut client, mut server) = establish(&mut sim, a, b, &config);
        let s1 = client.open_stream();
        let s2 = client.open_stream();
        assert_ne!(s1, s2);
        let m1: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        let m2: Vec<u8> = (0..3000u32).map(|i| (i % 13) as u8).collect();
        client
            .send_message(sim.host_mut(a), s1, &m1, true, 0)
            .unwrap();
        client
            .send_message(sim.host_mut(a), s2, &m2, true, 0)
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        let events = server.recv(sim.host_mut(b));
        let streams = collect(&events);
        assert_eq!(streams[&s1], m1);
        assert_eq!(streams[&s2], m2);
        for s in [s1, s2] {
            assert!(events.iter().any(|e| e.stream == s && e.end_of_stream));
        }
        assert!(events.iter().any(|e| e.end_of_message));
    }

    #[test]
    fn per_stream_order_is_preserved_even_with_loss() {
        let (mut sim, a, b) = sim_pair(LossConfig::Bernoulli { probability: 0.02 });
        let config = MinionConfig::default();
        let (mut client, mut server) = establish(&mut sim, a, b, &config);
        let streams: Vec<StreamId> = (0..4).map(|_| client.open_stream()).collect();
        let messages: Vec<Vec<u8>> = streams
            .iter()
            .enumerate()
            .map(|(i, _)| {
                (0..20_000u32)
                    .map(|j| ((i as u32 * 7 + j) % 251) as u8)
                    .collect()
            })
            .collect();
        for (s, m) in streams.iter().zip(&messages) {
            client
                .send_message(sim.host_mut(a), *s, m, true, 0)
                .unwrap();
        }
        let mut all_events = Vec::new();
        for _ in 0..60 {
            sim.run_for(SimDuration::from_millis(500));
            all_events.extend(server.recv(sim.host_mut(b)));
        }
        let collected = collect(&all_events);
        for (s, m) in streams.iter().zip(&messages) {
            assert_eq!(&collected[s], m, "stream {s} delivered intact and in order");
        }
    }

    #[test]
    fn a_lost_segment_does_not_block_other_streams() {
        // Drop exactly one data segment; chunks of other streams sent after
        // the loss must still be delivered before the retransmission.
        let (mut sim, a, b) = sim_pair(LossConfig::Explicit { indices: vec![5] });
        let config = MinionConfig::default();
        let (mut client, mut server) = establish(&mut sim, a, b, &config);
        let streams: Vec<StreamId> = (0..6).map(|_| client.open_stream()).collect();
        for (i, s) in streams.iter().enumerate() {
            client
                .send_message(sim.host_mut(a), *s, &vec![i as u8; 1000], true, 0)
                .unwrap();
        }
        sim.run_for(SimDuration::from_millis(120));
        let early = server.recv(sim.host_mut(b));
        let early_streams: std::collections::BTreeSet<StreamId> =
            early.iter().map(|e| e.stream).collect();
        assert!(
            early_streams.len() >= 4,
            "most streams delivered despite the lost segment (got {early_streams:?})"
        );
        assert!(
            early_streams.len() < 6,
            "the stream on the lost segment is still missing"
        );
        sim.run_for(SimDuration::from_secs(5));
        let late = server.recv(sim.host_mut(b));
        let all: std::collections::BTreeSet<StreamId> =
            early.iter().chain(late.iter()).map(|e| e.stream).collect();
        assert_eq!(all.len(), 6, "every stream eventually completes");
    }

    #[test]
    fn both_directions_can_open_streams_without_collision() {
        let (mut sim, a, b) = sim_pair(LossConfig::None);
        let config = MinionConfig::default();
        let (mut client, mut server) = establish(&mut sim, a, b, &config);
        let cs = client.open_stream();
        let ss = server.open_stream();
        assert_ne!(cs, ss);
        client
            .send_message(sim.host_mut(a), cs, b"from client", true, 0)
            .unwrap();
        server
            .send_message(sim.host_mut(b), ss, b"from server", true, 0)
            .unwrap();
        sim.run_for(SimDuration::from_secs(1));
        let at_server = server.recv(sim.host_mut(b));
        let at_client = client.recv(sim.host_mut(a));
        assert_eq!(at_server[0].data, b"from client");
        assert_eq!(at_client[0].data, b"from server");
    }

    #[test]
    fn large_message_is_chunked_and_reassembled() {
        let (mut sim, a, b) = sim_pair(LossConfig::None);
        let config = MinionConfig::default();
        let (mut client, mut server) = establish(&mut sim, a, b, &config);
        let s = client.open_stream();
        let msg: Vec<u8> = (0..28_000u32).map(|i| (i % 256) as u8).collect();
        client
            .send_message(sim.host_mut(a), s, &msg, false, 0)
            .unwrap();
        sim.run_for(SimDuration::from_secs(2));
        let events = server.recv(sim.host_mut(b));
        assert!(events.len() >= 20, "message split into many chunks");
        let collected = collect(&events);
        assert_eq!(collected[&s], msg);
        assert!(client.stats().chunks_sent >= 20);
        assert!(events.iter().all(|e| !e.end_of_stream));
    }
}
