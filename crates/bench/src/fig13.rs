//! Figure 13: trace-driven web transfers (§8.5).
//!
//! Each page from the synthetic trace is loaded twice over a 1.5 Mbps /
//! 60 ms-RTT path: once with pipelined HTTP/1.1 over a persistent TCP
//! connection, once with parallel HTTP/1.0-style requests over msTCP. The
//! table reports, per request-count bucket, the median total page-load time
//! and the median of each page's average time-to-first-byte.

use minion_apps::{
    generate_trace, load_page_mstcp, load_page_pipelined_tcp, PageLoadMetrics, WebPage,
};
use minion_simnet::{Distribution, LinkConfig, NodeId, SimDuration, Table};
use minion_stack::Sim;
use std::collections::BTreeMap;

fn web_sim(seed: u64) -> (Sim, NodeId, NodeId) {
    let mut sim = Sim::new(seed);
    let client = sim.add_host("browser");
    let server = sim.add_host("webserver");
    sim.link(
        client,
        server,
        LinkConfig::new(1_500_000, SimDuration::from_millis(30)).with_queue_bytes(32 * 1024),
    );
    (sim, client, server)
}

/// Results for one page under both transports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageComparison {
    /// The page loaded.
    pub page: WebPage,
    /// Metrics for pipelined HTTP/1.1 over TCP.
    pub pipelined: PageLoadMetrics,
    /// Metrics for parallel requests over msTCP.
    pub mstcp: PageLoadMetrics,
}

/// Load every page of a `pages`-page synthetic trace both ways.
pub fn run_trace(pages: usize, seed: u64) -> Vec<PageComparison> {
    let trace = generate_trace(pages, seed);
    let mut out = Vec::with_capacity(trace.len());
    for (i, page) in trace.iter().enumerate() {
        // A fresh simulator per load keeps pages independent, as in the
        // paper's per-page measurements.
        let (mut sim, client, server) = web_sim(seed + i as u64);
        let pipelined = load_page_pipelined_tcp(&mut sim, client, server, page, 8000);
        let (mut sim, client, server) = web_sim(seed + i as u64 + 1000);
        let mstcp = load_page_mstcp(&mut sim, client, server, page, 8000);
        out.push(PageComparison {
            page: page.clone(),
            pipelined,
            mstcp,
        });
    }
    out
}

/// Aggregate the per-page results into the figure's three buckets.
pub fn to_table(results: &[PageComparison]) -> Table {
    let mut table = Table::new(
        "Figure 13: web page loads, pipelined HTTP/1.1 over TCP vs parallel HTTP/1.0 over msTCP",
        &[
            "bucket",
            "pages",
            "plt_tcp_ms",
            "plt_mstcp_ms",
            "ttfb_tcp_ms",
            "ttfb_mstcp_ms",
        ],
    );
    let mut buckets: BTreeMap<&'static str, Vec<&PageComparison>> = BTreeMap::new();
    for r in results {
        buckets.entry(r.page.bucket()).or_default().push(r);
    }
    for (bucket, rs) in buckets {
        let mut plt_tcp = Distribution::new();
        let mut plt_ms = Distribution::new();
        let mut ttfb_tcp = Distribution::new();
        let mut ttfb_ms = Distribution::new();
        for r in &rs {
            plt_tcp.add(r.pipelined.page_load_time.as_millis_f64());
            plt_ms.add(r.mstcp.page_load_time.as_millis_f64());
            ttfb_tcp.add(r.pipelined.mean_first_byte().as_millis_f64());
            ttfb_ms.add(r.mstcp.mean_first_byte().as_millis_f64());
        }
        table.add_row(vec![
            bucket.to_string(),
            rs.len().to_string(),
            format!("{:.0}", plt_tcp.median()),
            format!("{:.0}", plt_ms.median()),
            format!("{:.0}", ttfb_tcp.median()),
            format!("{:.0}", ttfb_ms.median()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multi_object_pages_get_first_bytes_earlier_over_mstcp() {
        let results = run_trace(3, 21);
        assert_eq!(results.len(), 3);
        // For pages with several objects, msTCP's interleaving should lower
        // the average time-to-first-byte without exploding page-load time.
        let multi: Vec<&PageComparison> = results
            .iter()
            .filter(|r| r.page.request_count() >= 3)
            .collect();
        assert!(!multi.is_empty());
        for r in multi {
            assert!(
                r.mstcp.mean_first_byte() <= r.pipelined.mean_first_byte(),
                "page with {} requests: mstcp ttfb {:?} vs tcp {:?}",
                r.page.request_count(),
                r.mstcp.mean_first_byte(),
                r.pipelined.mean_first_byte()
            );
            assert!(
                r.mstcp.page_load_time.as_millis_f64()
                    < r.pipelined.page_load_time.as_millis_f64() * 1.5,
                "msTCP must not blow up total page-load time"
            );
        }
        let table = to_table(&results);
        assert!(table.row_count() >= 1);
    }

    /// The msTCP page load interleaves responses by walking its stream maps:
    /// two loads of the same trace must be the same load.
    #[test]
    fn trace_runs_repeat_exactly() {
        assert_eq!(run_trace(4, 23), run_trace(4, 23));
    }
}
