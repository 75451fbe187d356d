//! The conferencing (VoIP) application model of §8.2.
//!
//! The paper's experiment encodes a WAV file with SPEEX in ultra-wideband
//! mode (32 kHz, ≈256 kbps) and sends one voice frame every 20 ms, then
//! measures per-frame end-to-end latency, codec-perceived loss bursts under a
//! playout (jitter) buffer, and PESQ audio quality while competing TCP flows
//! congest a 3 Mbps / 60 ms-RTT path.
//!
//! Substitutions (README's section of that name): the codec is modelled as
//! a constant-bit-rate frame source; perceptual quality is estimated with an
//! E-model-style MOS that degrades with frame loss and loss bursts, rather
//! than PESQ waveform comparison. The quantities the figures plot — frame
//! latency CDFs, burst-length CDFs, and a quality score over time — are
//! computed the same way.
//!
//! Frame `n` is a [`Record`] of the delivery check's formula: its number
//! as an 8-byte big-endian header, then formula bytes standing in for the
//! codec's. The receiver hands each frame to a datagram [`DeliveryCheck`]
//! keyed by frame number, so a duplicate, a corrupted or an unparseable
//! frame is a counted violation, never silently dropped; a call ends by
//! asking the check for its verdict. A frame that never arrives is a
//! missed playout deadline, as any late frame is.

use minion_simnet::{Distribution, SimDuration, SimTime, TimeSeries};
use minion_tcp::{DeliveryCheck, Record};

/// Parameters of the voice source.
#[derive(Clone, Debug)]
pub struct VoipSourceConfig {
    /// Interval between frames (20 ms in the paper).
    pub frame_interval: SimDuration,
    /// Bytes per frame (256 kbps at 20 ms frames = 640 bytes).
    pub frame_size: usize,
    /// Total call duration.
    pub duration: SimDuration,
}

impl Default for VoipSourceConfig {
    fn default() -> Self {
        VoipSourceConfig {
            frame_interval: SimDuration::from_millis(20),
            frame_size: 640,
            duration: SimDuration::from_secs(60),
        }
    }
}

impl VoipSourceConfig {
    /// Number of frames the source will emit.
    fn total_frames(&self) -> u64 {
        self.duration.as_micros() / self.frame_interval.as_micros()
    }

    /// Frame `number` as sent.
    fn frame(&self, number: u64) -> Record {
        Record::keyed(number, 8, 0, self.frame_size as u64)
    }
}

/// The voice frame source: produces numbered frames on a fixed schedule.
#[derive(Clone, Debug)]
pub struct VoipSource {
    config: VoipSourceConfig,
    start: SimTime,
    next_frame: u64,
}

impl VoipSource {
    /// Create a source that starts emitting at `start`.
    pub fn new(config: VoipSourceConfig, start: SimTime) -> Self {
        VoipSource {
            config,
            start,
            next_frame: 0,
        }
    }

    /// The time the next frame should be sent, or `None` when the call ends:
    /// the source's wake time.
    pub fn next_send_time(&self) -> Option<SimTime> {
        if self.next_frame >= self.config.total_frames() {
            return None;
        }
        Some(self.start + self.config.frame_interval.saturating_mul(self.next_frame))
    }

    /// Emit the next frame if it is due at `now`. The payload begins with the
    /// frame number so the receiver can identify frames without any framing
    /// help from the transport.
    fn poll(&mut self, now: SimTime) -> Option<(u64, Vec<u8>)> {
        let due = self.next_send_time()?;
        if now < due {
            return None;
        }
        let number = self.next_frame;
        self.next_frame += 1;
        Some((number, self.config.frame(number).to_vec()))
    }

    /// Hand every frame due at `now` to `send`, which says whether the
    /// transport took it; returns how many it refused.
    pub fn send_due(&mut self, now: SimTime, mut send: impl FnMut(&[u8]) -> bool) -> u64 {
        let mut refused = 0;
        while let Some((_, frame)) = self.poll(now) {
            refused += u64::from(!send(&frame));
        }
        refused
    }

    /// Source configuration.
    pub fn config(&self) -> &VoipSourceConfig {
        &self.config
    }
}

/// The receiver: a playout (jitter) buffer plus the metrics the paper plots.
#[derive(Clone, Debug)]
pub struct VoipReceiver {
    config: VoipSourceConfig,
    /// Playout delay (jitter buffer depth): a frame sent at `t` must arrive
    /// by `t + jitter_buffer` to make its playout deadline.
    jitter_buffer: SimDuration,
    /// One-way frame latencies (for Figure 7).
    latencies: Distribution,
    /// Arrival time per frame (None = never arrived).
    arrivals: Vec<Option<SimTime>>,
    /// Source start time used to compute deadlines.
    source_start: SimTime,
    /// The check every arriving frame goes through.
    check: DeliveryCheck,
}

/// Aggregate quality metrics for one call.
#[derive(Clone, Debug)]
pub struct VoipReport {
    /// One-way latency distribution of frames that arrived.
    pub latencies_ms: Distribution,
    /// Fraction of frames that missed their playout deadline (lost or late).
    pub miss_fraction: f64,
    /// Burst lengths (consecutive frames missing playout), one entry per burst.
    pub burst_lengths: Vec<usize>,
    /// MOS estimate over time (window mean), for Figure 9.
    pub mos_timeline: TimeSeries,
    /// Overall MOS estimate for the whole call.
    pub overall_mos: f64,
}

impl VoipReceiver {
    /// Create a receiver with the given playout buffer depth.
    pub fn new(
        config: VoipSourceConfig,
        jitter_buffer: SimDuration,
        source_start: SimTime,
    ) -> Self {
        let frames = config.total_frames() as usize;
        VoipReceiver {
            config,
            jitter_buffer,
            latencies: Distribution::new(),
            arrivals: vec![None; frames],
            source_start,
            check: DeliveryCheck::datagrams(frames as u64, 8),
        }
    }

    /// Record the arrival of a frame payload at `now`, once the check has
    /// accepted it; a refused frame is the check's to count.
    pub fn on_frame(&mut self, payload: &[u8], now: SimTime) {
        let config = &self.config;
        let Ok(number) = self
            .check
            .on_datagram(payload, now.as_micros(), |n| config.frame(n))
        else {
            return;
        };
        self.arrivals[number as usize] = Some(now);
        let sent = self.source_start + self.config.frame_interval.saturating_mul(number);
        self.latencies
            .add(now.saturating_since(sent).as_millis_f64());
    }

    /// The check of the frames that arrived.
    pub fn check(&self) -> &DeliveryCheck {
        &self.check
    }

    /// Whether a frame made its playout deadline.
    fn made_deadline(&self, frame: usize) -> bool {
        let sent = self.source_start + self.config.frame_interval.saturating_mul(frame as u64);
        match self.arrivals[frame] {
            Some(arrival) => arrival <= sent + self.jitter_buffer,
            None => false,
        }
    }

    /// Produce the call report (Figures 7, 8, 9).
    pub fn report(&self, mos_window: SimDuration) -> VoipReport {
        let total = self.arrivals.len();
        let mut missed = 0usize;
        let mut burst_lengths = Vec::new();
        let mut run = 0usize;
        let mut per_frame_ok: Vec<bool> = Vec::with_capacity(total);
        for i in 0..total {
            let ok = self.made_deadline(i);
            per_frame_ok.push(ok);
            if ok {
                if run > 0 {
                    burst_lengths.push(run);
                    run = 0;
                }
            } else {
                missed += 1;
                run += 1;
            }
        }
        if run > 0 {
            burst_lengths.push(run);
        }

        // MOS timeline: an E-model-style score computed over sliding windows.
        let mut mos_timeline = TimeSeries::new();
        let window_frames =
            (mos_window.as_micros() / self.config.frame_interval.as_micros()).max(1) as usize;
        let mut i = 0usize;
        while i < total {
            let end = (i + window_frames).min(total);
            let window = &per_frame_ok[i..end];
            let mos = estimate_mos(window);
            let t = self.source_start + self.config.frame_interval.saturating_mul(i as u64);
            mos_timeline.push(t, mos);
            i = end;
        }

        VoipReport {
            latencies_ms: self.latencies.clone(),
            miss_fraction: if total == 0 {
                0.0
            } else {
                missed as f64 / total as f64
            },
            burst_lengths,
            mos_timeline,
            overall_mos: estimate_mos(&per_frame_ok),
        }
    }
}

/// An E-model-inspired MOS estimate from per-frame playout success.
///
/// Following the ITU-T G.107 E-model structure, the R factor starts from a
/// base value and is reduced by an impairment that grows with the effective
/// loss rate; bursty loss is penalised more than scattered loss (codecs can
/// interpolate over isolated losses but not blackouts). R is then mapped to
/// the 1–4.5 MOS scale.
fn estimate_mos(frame_ok: &[bool]) -> f64 {
    if frame_ok.is_empty() {
        return 4.4;
    }
    let total = frame_ok.len() as f64;
    let lost = frame_ok.iter().filter(|&&ok| !ok).count() as f64;
    let loss = lost / total;

    // Mean burst length among losses (1 = perfectly scattered).
    let mut bursts = Vec::new();
    let mut run = 0usize;
    for &ok in frame_ok {
        if !ok {
            run += 1;
        } else if run > 0 {
            bursts.push(run);
            run = 0;
        }
    }
    if run > 0 {
        bursts.push(run);
    }
    let mean_burst = if bursts.is_empty() {
        1.0
    } else {
        bursts.iter().sum::<usize>() as f64 / bursts.len() as f64
    };
    // Burstiness factor >= 1 amplifies the effective loss impairment.
    let burstiness = mean_burst.sqrt().clamp(1.0, 4.0);

    // E-model-style impairment: Ie-eff = Ie + (95 - Ie) * P / (P + Bpl/burstiness)
    let ie = 5.0; // codec's intrinsic impairment (wideband codec)
    let bpl = 25.0; // packet-loss robustness factor
    let ie_eff = ie + (95.0 - ie) * loss / (loss + bpl / (100.0 * burstiness));
    let r: f64 = 93.2 - ie_eff;

    // R -> MOS mapping (ITU-T G.107 Annex B).
    let r = r.clamp(0.0, 100.0);
    if r <= 0.0 {
        1.0
    } else if r >= 100.0 {
        4.5
    } else {
        1.0 + 0.035 * r + r * (r - 60.0) * (100.0 - r) * 7.0e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_emits_frames_on_schedule() {
        let cfg = VoipSourceConfig {
            duration: SimDuration::from_secs(1),
            ..Default::default()
        };
        assert_eq!(cfg.total_frames(), 50);
        let mut src = VoipSource::new(cfg, SimTime::ZERO);
        assert!(src.poll(SimTime::ZERO).is_some());
        // The next frame is not due yet.
        assert!(src.poll(SimTime::from_millis(10)).is_none());
        assert!(src.poll(SimTime::from_millis(20)).is_some());
        let mut count = 2;
        let mut t = SimTime::from_millis(40);
        while let Some((n, payload)) = src.poll(t) {
            assert_eq!(payload[..8], n.to_be_bytes());
            count += 1;
            t += SimDuration::from_millis(20);
        }
        assert_eq!(count, 50);
        assert!(src.next_send_time().is_none());
    }

    /// Every due frame is offered once; each one the transport refuses is
    /// counted, and none is offered again.
    #[test]
    fn refused_sends_are_counted() {
        let cfg = VoipSourceConfig {
            duration: SimDuration::from_secs(1),
            ..Default::default()
        };
        let mut src = VoipSource::new(cfg, SimTime::ZERO);
        let mut offered = Vec::new();
        // A transport that refuses its second send only.
        let refused = src.send_due(SimTime::from_millis(60), |frame| {
            offered.push(u64::from_be_bytes(frame[..8].try_into().unwrap()));
            offered.len() != 2
        });
        assert_eq!((refused, offered), (1, vec![0, 1, 2, 3]));
        assert_eq!(src.send_due(SimTime::from_millis(70), |_| false), 0);
    }

    #[test]
    fn receiver_latency_and_miss_accounting() {
        let cfg = VoipSourceConfig {
            duration: SimDuration::from_secs(1),
            ..Default::default()
        };
        let sent_at = |n: u64| SimTime::ZERO + cfg.frame_interval.saturating_mul(n);
        let mut rx = VoipReceiver::new(cfg.clone(), SimDuration::from_millis(200), SimTime::ZERO);
        // Frames 0..40 arrive 50 ms after sending; frames 40..45 arrive 500 ms
        // late (missing the 200 ms playout deadline); 45..50 never arrive.
        for n in 0..40u64 {
            let payload = cfg.frame(n).to_vec();
            rx.on_frame(&payload, sent_at(n) + SimDuration::from_millis(50));
        }
        for n in 40..45u64 {
            let payload = cfg.frame(n).to_vec();
            rx.on_frame(&payload, sent_at(n) + SimDuration::from_millis(500));
        }
        let report = rx.report(SimDuration::from_secs(2));
        assert_eq!(report.miss_fraction, 10.0 / 50.0);
        // The ten misses are consecutive: one burst of length 10.
        assert_eq!(report.burst_lengths, vec![10]);
        assert!((report.latencies_ms.mean() - 100.0).abs() < 1.0);
    }

    /// A duplicate and a frame too short to carry a number are counted
    /// violations; the frame counts once, at its first arrival.
    #[test]
    fn duplicate_and_garbage_frames_are_counted_violations() {
        let cfg = VoipSourceConfig {
            duration: SimDuration::from_secs(1),
            ..Default::default()
        };
        let payload = cfg.frame(3).to_vec();
        let mut rx = VoipReceiver::new(cfg, SimDuration::from_millis(200), SimTime::ZERO);
        rx.on_frame(&payload, SimTime::from_millis(70));
        assert_eq!(rx.check().verdict(), Ok(()));
        rx.on_frame(&payload, SimTime::from_millis(90));
        rx.on_frame(&[1, 2, 3], SimTime::from_millis(95));
        let check = rx.check();
        assert_eq!((check.violations(), check.duplicates()), (2, 1));
        let first = check.verdict().unwrap_err().to_string();
        assert_eq!(first, "at 90000 us, offset 3: datagram delivered twice");
        // Sent at 60 ms, heard at 70.
        let report = rx.report(SimDuration::from_secs(2));
        assert_eq!(report.latencies_ms.samples(), [10.0]);
    }

    /// A frame whose bytes differ from the sent frame's, even after an
    /// intact number, is refused and never heard.
    #[test]
    fn a_corrupted_frame_is_a_violation() {
        let cfg = VoipSourceConfig {
            duration: SimDuration::from_secs(1),
            ..Default::default()
        };
        let mut payload = cfg.frame(5).to_vec();
        payload[8] ^= 1;
        let mut rx = VoipReceiver::new(cfg, SimDuration::from_millis(200), SimTime::ZERO);
        rx.on_frame(&payload, SimTime::from_millis(120));
        let first = rx.check().verdict().unwrap_err().to_string();
        assert_eq!(
            first,
            "at 120000 us, offset 5: datagram differs from the one sent"
        );
        assert!(rx.report(SimDuration::from_secs(2)).latencies_ms.is_empty());
    }

    #[test]
    fn mos_degrades_with_loss_and_burstiness() {
        let clean = vec![true; 1000];
        let mos_clean = estimate_mos(&clean);
        assert!(
            mos_clean > 4.2,
            "clean call scores near the top: {mos_clean}"
        );

        // 5% scattered loss.
        let scattered: Vec<bool> = (0..1000).map(|i| i % 20 != 0).collect();
        let mos_scattered = estimate_mos(&scattered);

        // 5% loss concentrated in bursts of 10.
        let bursty: Vec<bool> = (0..1000).map(|i| i % 200 >= 10).collect();
        let mos_bursty = estimate_mos(&bursty);

        assert!(mos_scattered < mos_clean);
        assert!(
            mos_bursty < mos_scattered,
            "bursty loss hurts more: {mos_bursty} vs {mos_scattered}"
        );
        assert!(mos_bursty >= 1.0);
    }

    #[test]
    fn empty_window_scores_well() {
        assert!(estimate_mos(&[]) > 4.0);
    }
}
