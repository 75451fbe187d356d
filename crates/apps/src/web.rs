//! The web-browsing workload of §8.5.
//!
//! The paper replays a fragment of the UC Berkeley Home IP trace: each page
//! is one "primary" HTML request followed, once the primary object has fully
//! downloaded, by parallel "secondary" requests for embedded objects. It
//! compares pipelined HTTP/1.1 over one persistent TCP connection against
//! parallel HTTP/1.0-style requests multiplexed over msTCP, reporting total
//! page-load time and the average time until each object's first byte
//! arrives (when the browser could start rendering it).
//!
//! The original trace is not redistributable, so [`generate_trace`] produces
//! a synthetic trace with the same structure: pages bucketed by request count
//! (1–2, 3–8, 9+) and heavy-tailed object sizes (see README's
//! "Substitutions").

use minion_core::MinionConfig;
use minion_mstcp::MsTcpConnection;
use minion_simnet::{NodeId, SimDuration, SimRng};
use minion_stack::{Host, Reaction, Sim, SocketAddr, SocketHandle};
use minion_tcp::{SocketOptions, TcpConfig};
use std::collections::BTreeMap;

/// One web page: a primary object plus embedded secondary objects.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WebPage {
    /// Size of the primary (HTML) object in bytes.
    pub primary_size: usize,
    /// Sizes of the secondary objects in bytes.
    pub secondary_sizes: Vec<usize>,
}

impl WebPage {
    /// Total number of requests (primary + secondary).
    pub fn request_count(&self) -> usize {
        1 + self.secondary_sizes.len()
    }

    /// Total page weight in bytes.
    pub fn total_bytes(&self) -> usize {
        self.primary_size + self.secondary_sizes.iter().sum::<usize>()
    }

    /// Which of the paper's request-count buckets this page falls into.
    pub fn bucket(&self) -> &'static str {
        match self.request_count() {
            0..=2 => "1-2 requests",
            3..=8 => "3-8 requests",
            _ => "9+ requests",
        }
    }
}

/// Generate a synthetic page trace with the same structure as the paper's
/// Home-IP workload: one third of pages in each request-count bucket, object
/// sizes drawn from a bounded Pareto distribution.
pub fn generate_trace(pages: usize, seed: u64) -> Vec<WebPage> {
    let mut rng = SimRng::new(seed).fork("web-trace");
    let mut out = Vec::with_capacity(pages);
    for i in 0..pages {
        let secondary_count = match i % 3 {
            0 => rng.gen_range_usize(0, 2),  // 1-2 total requests
            1 => rng.gen_range_usize(2, 8),  // 3-8 total requests
            _ => rng.gen_range_usize(8, 20), // 9+ total requests
        };
        let primary_size = rng.bounded_pareto(1.3, 4_000.0, 60_000.0) as usize;
        let secondary_sizes = (0..secondary_count)
            .map(|_| rng.bounded_pareto(1.2, 1_500.0, 120_000.0) as usize)
            .collect();
        out.push(WebPage {
            primary_size,
            secondary_sizes,
        });
    }
    out
}

/// Timing results of loading one page.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageLoadMetrics {
    /// Number of requests the page issued.
    pub requests: usize,
    /// Total bytes downloaded.
    pub total_bytes: usize,
    /// Time from the page start until every object finished.
    pub page_load_time: SimDuration,
    /// Per-object time from the page start until the object's first byte.
    pub first_byte_times: Vec<SimDuration>,
}

impl PageLoadMetrics {
    /// Average time-to-first-byte across the page's objects.
    pub fn mean_first_byte(&self) -> SimDuration {
        if self.first_byte_times.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u64 = self.first_byte_times.iter().map(|d| d.as_micros()).sum();
        SimDuration::from_micros(sum / self.first_byte_times.len() as u64)
    }
}

const REQUEST_SIZE: usize = 120;
const MAX_PAGE_TIME: SimDuration = SimDuration::from_secs(120);

/// Whether a TCP socket holds bytes to read, looked at without touching the
/// host.
fn readable(sim: &Sim, node: NodeId, handle: SocketHandle) -> bool {
    sim.host(node)
        .tcp_readiness(handle)
        .is_ok_and(|r| r.readable)
}

/// Drive `sim` until `accept` has taken the server's end of a connection and
/// `established` says the client's end is up; returns the accepted end.
fn establish<T>(
    sim: &mut Sim,
    server: NodeId,
    mut accept: impl FnMut(&mut Host) -> Option<T>,
    established: impl Fn(&Sim) -> bool,
) -> T {
    let mut accepted = None;
    let deadline = sim.now() + MAX_PAGE_TIME;
    let up = sim.drive(deadline, |sim| {
        if accepted.is_none() {
            accepted = accept(sim.host_mut(server));
        }
        if accepted.is_some() && established(sim) {
            Reaction::Done
        } else {
            Reaction::Wait(None)
        }
    });
    assert!(up, "connection never established");
    accepted.expect("accepted")
}

/// Load a page using pipelined HTTP/1.1 over a single persistent TCP
/// connection (the paper's baseline).
///
/// The server writes each object as a 4-byte length followed by its bytes; in
/// a single in-order byte stream the first byte of object *k* cannot arrive
/// before objects `0..k` finish, which is the head-of-line penalty the
/// experiment measures.
pub fn load_page_pipelined_tcp(
    sim: &mut Sim,
    client: NodeId,
    server: NodeId,
    page: &WebPage,
    port: u16,
) -> PageLoadMetrics {
    let tcp_config = TcpConfig::default();
    sim.host_mut(server)
        .tcp_listen(port, tcp_config.clone(), SocketOptions::standard())
        .expect("listen");
    let now = sim.now();
    let ch = sim.host_mut(client).tcp_connect(
        SocketAddr::new(server, port),
        tcp_config,
        SocketOptions::standard(),
        now,
    );
    let sh = establish(
        sim,
        server,
        |host| host.accept(port),
        |sim| sim.host(client).tcp_established(ch).unwrap_or(false),
    );

    let start = sim.now();
    // Object sizes in the order the server will send them.
    let mut object_sizes = vec![page.primary_size];
    object_sizes.extend(&page.secondary_sizes);

    // Client request state.
    let mut sent_primary_request = false;
    let mut sent_secondary_requests = false;
    // Server state: how many request bytes seen, which objects queued.
    let mut server_request_bytes = 0usize;
    let mut server_sent_primary = false;
    let mut server_sent_secondaries = false;

    // Client parse state over the in-order byte stream.
    let mut stream = Vec::new();
    let mut parsed_upto = 0usize; // bytes consumed from `stream`
    let mut current_object = 0usize;
    let mut current_remaining: Option<usize> = None;
    let mut first_byte_times: Vec<Option<SimDuration>> = vec![None; object_sizes.len()];
    let mut completed = 0usize;

    let mut page_load_time = MAX_PAGE_TIME;
    sim.drive(start + MAX_PAGE_TIME, |sim| {
        let now = sim.now();
        // --- client side ---
        if !sent_primary_request {
            let _ = sim.host_mut(client).tcp_write(ch, &[1u8; REQUEST_SIZE]);
            sent_primary_request = true;
        }
        if readable(sim, client, ch) {
            let host = sim.host_mut(client);
            while let Ok(Some(chunk)) = host.tcp_read(ch) {
                stream.extend_from_slice(&chunk.data);
            }
        }
        // Parse objects from the in-order stream.
        loop {
            match current_remaining {
                None => {
                    if stream.len() - parsed_upto < 4 {
                        break;
                    }
                    let len = u32::from_be_bytes(
                        stream[parsed_upto..parsed_upto + 4]
                            .try_into()
                            .expect("4 bytes"),
                    ) as usize;
                    parsed_upto += 4;
                    current_remaining = Some(len);
                }
                Some(remaining) => {
                    let available = stream.len() - parsed_upto;
                    if available == 0 {
                        break;
                    }
                    if first_byte_times[current_object].is_none() {
                        first_byte_times[current_object] = Some(now - start);
                    }
                    let take = available.min(remaining);
                    parsed_upto += take;
                    if take == remaining {
                        current_remaining = None;
                        completed += 1;
                        current_object += 1;
                        // Primary object finished: issue the secondary requests.
                        if completed == 1 && !sent_secondary_requests {
                            for _ in 0..page.secondary_sizes.len() {
                                let _ = sim.host_mut(client).tcp_write(ch, &[2u8; REQUEST_SIZE]);
                            }
                            sent_secondary_requests = true;
                        }
                    } else {
                        current_remaining = Some(remaining - take);
                    }
                }
            }
        }
        if completed == object_sizes.len() {
            page_load_time = now - start;
            return Reaction::Done;
        }

        // --- server side ---
        if readable(sim, server, sh) {
            let host = sim.host_mut(server);
            while let Ok(Some(chunk)) = host.tcp_read(sh) {
                server_request_bytes += chunk.len();
            }
        }
        if !server_sent_primary && server_request_bytes >= REQUEST_SIZE {
            let mut data = (page.primary_size as u32).to_be_bytes().to_vec();
            data.extend(vec![0xEE; page.primary_size]);
            let _ = sim.host_mut(server).tcp_write(sh, &data);
            server_sent_primary = true;
        }
        if server_sent_primary
            && !server_sent_secondaries
            && server_request_bytes >= REQUEST_SIZE * (1 + page.secondary_sizes.len())
        {
            for &size in &page.secondary_sizes {
                let mut data = (size as u32).to_be_bytes().to_vec();
                data.extend(vec![0xDD; size]);
                let _ = sim.host_mut(server).tcp_write(sh, &data);
            }
            server_sent_secondaries = true;
        }
        Reaction::Wait(None)
    });

    let _ = sim.host_mut(client).tcp_close(ch);
    let _ = sim.host_mut(server).tcp_close(sh);
    PageLoadMetrics {
        requests: page.request_count(),
        total_bytes: page.total_bytes(),
        page_load_time,
        first_byte_times: first_byte_times
            .into_iter()
            .map(|t| t.unwrap_or(MAX_PAGE_TIME))
            .collect(),
    }
}

/// Load a page using parallel HTTP/1.0-style requests over msTCP: every
/// object gets its own message stream and the server interleaves object
/// chunks across streams, so the first bytes of all objects arrive early.
pub fn load_page_mstcp(
    sim: &mut Sim,
    client: NodeId,
    server: NodeId,
    page: &WebPage,
    port: u16,
) -> PageLoadMetrics {
    let config = MinionConfig::default();
    MsTcpConnection::listen(sim.host_mut(server), port, &config).expect("listen");
    let now = sim.now();
    let mut client_conn = MsTcpConnection::connect(
        sim.host_mut(client),
        SocketAddr::new(server, port),
        &config,
        now,
    );
    let mut server_conn = establish(
        sim,
        server,
        |host| MsTcpConnection::accept(host, port),
        |sim| client_conn.is_established(sim.host(client)),
    );

    let start = sim.now();
    let object_sizes: Vec<usize> = std::iter::once(page.primary_size)
        .chain(page.secondary_sizes.iter().copied())
        .collect();

    // Client: request streams. The request payload names the object index.
    let primary_stream = client_conn.open_stream();
    client_conn
        .send_message(
            sim.host_mut(client),
            primary_stream,
            &0u32.to_be_bytes(),
            false,
            0,
        )
        .expect("request");
    let mut request_stream_of_object: BTreeMap<u32, usize> = BTreeMap::new();
    request_stream_of_object.insert(primary_stream, 0);
    let mut secondary_requested = false;

    // Server: per-request response plan. Responses are sent on the *same*
    // stream the request arrived on, interleaved in fixed-size chunks.
    const CHUNK: usize = 1300;
    let mut response_remaining: BTreeMap<u32, usize> = BTreeMap::new();

    // Client receive bookkeeping.
    let mut received: BTreeMap<usize, usize> = BTreeMap::new();
    let mut first_byte_times: Vec<Option<SimDuration>> = vec![None; object_sizes.len()];
    let mut completed = 0usize;

    let mut page_load_time = MAX_PAGE_TIME;
    sim.drive(start + MAX_PAGE_TIME, |sim| {
        let now = sim.now();

        // Server: ingest requests, register responses.
        for ev in server_conn.recv(sim.host_mut(server)) {
            if ev.data.len() >= 4 {
                let object_index =
                    u32::from_be_bytes(ev.data[..4].try_into().expect("4 bytes")) as usize;
                if object_index < object_sizes.len() {
                    response_remaining.insert(ev.stream, object_sizes[object_index]);
                }
            }
        }
        // Server: interleave one chunk per pending response per round, as
        // long as the send buffer has room.
        loop {
            let mut sent_any = false;
            let streams: Vec<u32> = response_remaining
                .iter()
                .filter(|(_, &rem)| rem > 0)
                .map(|(&s, _)| s)
                .collect();
            for s in streams {
                if server_conn.send_buffer_free(sim.host(server)) < 4 * CHUNK {
                    break;
                }
                let rem = response_remaining[&s];
                let take = rem.min(CHUNK);
                let last = take == rem;
                server_conn
                    .send_message(sim.host_mut(server), s, &vec![0xCC; take], last, 0)
                    .ok();
                response_remaining.insert(s, rem - take);
                sent_any = true;
            }
            if !sent_any {
                break;
            }
        }

        // Client: receive stream data.
        for ev in client_conn.recv(sim.host_mut(client)) {
            let Some(&object) = request_stream_of_object.get(&ev.stream) else {
                continue;
            };
            if first_byte_times[object].is_none() && !ev.data.is_empty() {
                first_byte_times[object] = Some(now - start);
            }
            let entry = received.entry(object).or_insert(0);
            *entry += ev.data.len();
            if *entry >= object_sizes[object] {
                if *entry == object_sizes[object] {
                    completed += 1;
                }
                // Primary finished: request all secondary objects in parallel.
                if object == 0 && !secondary_requested {
                    for (i, _) in page.secondary_sizes.iter().enumerate() {
                        let s = client_conn.open_stream();
                        request_stream_of_object.insert(s, i + 1);
                        client_conn
                            .send_message(
                                sim.host_mut(client),
                                s,
                                &((i + 1) as u32).to_be_bytes(),
                                false,
                                0,
                            )
                            .ok();
                    }
                    secondary_requested = true;
                }
            }
        }

        if completed == object_sizes.len() {
            page_load_time = now - start;
            return Reaction::Done;
        }
        Reaction::Wait(None)
    });

    PageLoadMetrics {
        requests: page.request_count(),
        total_bytes: page.total_bytes(),
        page_load_time,
        first_byte_times: first_byte_times
            .into_iter()
            .map(|t| t.unwrap_or(MAX_PAGE_TIME))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minion_simnet::LinkConfig;

    fn web_sim() -> (Sim, NodeId, NodeId) {
        let mut sim = Sim::new(33);
        let client = sim.add_host("browser");
        let server = sim.add_host("webserver");
        sim.link(
            client,
            server,
            LinkConfig::new(1_500_000, SimDuration::from_millis(30)).with_queue_bytes(32 * 1024),
        );
        (sim, client, server)
    }

    #[test]
    fn trace_generation_is_deterministic_and_bucketed() {
        let a = generate_trace(30, 7);
        let b = generate_trace(30, 7);
        assert_eq!(a, b);
        let c = generate_trace(30, 8);
        assert_ne!(a, c);
        assert!(a.iter().any(|p| p.bucket() == "1-2 requests"));
        assert!(a.iter().any(|p| p.bucket() == "3-8 requests"));
        assert!(a.iter().any(|p| p.bucket() == "9+ requests"));
        for p in &a {
            assert!(p.primary_size >= 4_000);
            assert!(p.total_bytes() >= p.primary_size);
            assert_eq!(p.request_count(), 1 + p.secondary_sizes.len());
        }
    }

    #[test]
    fn pipelined_page_load_completes_and_orders_first_bytes() {
        let (mut sim, client, server) = web_sim();
        let page = WebPage {
            primary_size: 10_000,
            secondary_sizes: vec![20_000, 15_000, 25_000],
        };
        let metrics = load_page_pipelined_tcp(&mut sim, client, server, &page, 8080);
        assert!(metrics.page_load_time < SimDuration::from_secs(10));
        assert_eq!(metrics.first_byte_times.len(), 4);
        // In a single in-order stream, later objects cannot start earlier
        // than earlier ones.
        for w in metrics.first_byte_times.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert_eq!(metrics.requests, 4);
    }

    #[test]
    fn mstcp_page_load_completes_with_earlier_first_bytes() {
        let (mut sim, client, server) = web_sim();
        let page = WebPage {
            primary_size: 10_000,
            secondary_sizes: vec![20_000, 15_000, 25_000],
        };
        let pipelined = load_page_pipelined_tcp(&mut sim, client, server, &page, 8081);
        let mstcp = load_page_mstcp(&mut sim, client, server, &page, 8082);
        assert!(mstcp.page_load_time < SimDuration::from_secs(10));
        // The headline Figure 13 effect: msTCP does not hurt total page-load
        // time much, but the average time-to-first-byte across objects drops
        // because object chunks are interleaved.
        assert!(
            mstcp.mean_first_byte() < pipelined.mean_first_byte(),
            "msTCP {:?} vs pipelined {:?}",
            mstcp.mean_first_byte(),
            pipelined.mean_first_byte()
        );
    }
}
