//! The closed-loop replay workloads: a capture fed in-process through the
//! threaded `StreamEngine` as fast as it accepts, under
//! `OverflowPolicy::Block`, with `workers` = `nproc` and 8192-sample chunks.

use crate::inputs::{Capture, CHUNK_SAMPLES, SAMPLE_RATE_HZ};
use crate::stats::{median, pass_p50_p90, Summary};
use crate::truth::{Frame, Score, Truth};
use crate::{metric, procfs, Metric, Timed};
use netscatter::json::Json;
use netscatter_gateway::{OverflowPolicy, PipelineTelemetry, StreamEngine};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Capture loops per pass. A run alternates throughput passes, which feed
/// as fast as the engine accepts, with latency passes, which hold at most
/// [`LATENCY_WINDOW`] whole rounds undrained. Each pass is ≈ 1–1.5 s on two
/// cores, so a run holds a dozen of each and its figures are medians over
/// passes.
#[derive(Debug, Clone, Copy)]
pub struct Loops {
    /// Capture loops per throughput pass.
    pub throughput: u64,
    /// Capture loops per latency pass.
    pub latency: u64,
}

/// Passes on the dense capture (10 M samples, 171 rounds a loop).
pub const DENSE: Loops = Loops {
    throughput: 2,
    latency: 1,
};
/// Passes on the sparse capture (10 M samples, 20 rounds a loop).
pub const SPARSE: Loops = Loops {
    throughput: 8,
    latency: 8,
};
/// Passes of each kind a run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Whole rounds a latency pass lets stand undrained before it holds back
/// the next piece. The engine's decode queues are unbounded, so a closed
/// loop without such a window piles the pass into them and its frame
/// latency measures the pass length instead of the pipeline. With none
/// left standing, a frame's latency is the pipeline's own for one round:
/// a window of one let the next round's sync overlap the decode, and on a
/// shared two-core machine that overlap alone moved a run's p50 by ±20 %.
const LATENCY_WINDOW: u64 = 0;
/// Longest the bench holds a piece back for the window (a round the engine
/// never reports would otherwise stall the pass).
const WINDOW_PATIENCE: Duration = Duration::from_secs(1);

/// Piece `k` of `data` looped end to end (`total` items in all): a slice
/// of `data` itself, or a copy in `scratch` when the piece wraps.
pub fn looped_piece<'a, T: Copy>(
    data: &'a [T],
    k: u64,
    piece: u64,
    total: u64,
    scratch: &'a mut Vec<T>,
) -> &'a [T] {
    let len = data.len() as u64;
    let lo = k * piece;
    let hi = ((k + 1) * piece).min(total);
    let (a, b) = (lo % len, (hi - 1) % len + 1);
    if a < b && hi - lo == b - a {
        return &data[a as usize..b as usize];
    }
    scratch.clear();
    let mut at = lo;
    while at < hi {
        let off = at % len;
        let take = (hi - at).min(len - off);
        scratch.extend_from_slice(&data[off as usize..(off + take) as usize]);
        at += take;
    }
    scratch
}

/// One spawn → feed → shutdown pass.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    samples: u64,
    threads: f64,
    frames: Vec<Frame>,
    /// Closed-loop frame latency: round's last piece accepted → drained.
    latency_ms: Vec<f64>,
    /// Engine ingest stamp → drain, per timed packet.
    ingest_to_emit_ms: Vec<f64>,
    telemetry: PipelineTelemetry,
    ring_dropped: u64,
    /// Pieces fed only because the window's patience ran out.
    stalls: u64,
    samples_in: u64,
}

/// One pass of `loops` capture loops; `window` bounds the whole rounds left
/// undrained (`None`: feed as fast as the engine accepts).
fn pass(
    cap: &Capture,
    truth: &Truth,
    loops: u64,
    workers: usize,
    window: Option<u64>,
) -> Result<Pass, String> {
    let cfg = cap.gateway_config(OverflowPolicy::Block, workers);
    let total = cap.len() * loops;
    let pieces = total.div_ceil(CHUNK_SAMPLES as u64);
    let mut accepted: Vec<Instant> = Vec::with_capacity(pieces as usize);
    let mut drained = Vec::new();
    // Drained frames that carry devices: a spurious empty frame must not
    // widen the latency window.
    let mut reported = 0u64;
    let mut ingest_to_emit_ms = Vec::new();
    let mut scratch = Vec::with_capacity(CHUNK_SAMPLES);
    let mut threads = 0.0;
    let mut stalls = 0u64;

    // Piece by piece, how many offered rounds are whole once it is fed.
    let mut whole_after = vec![0u64; pieces as usize];
    for l in 0..loops {
        for r in &cap.truth {
            let last = l * cap.len() + r.start + cap.round_samples - 1;
            whole_after[(last / CHUNK_SAMPLES as u64) as usize] += 1;
        }
    }
    for k in 1..whole_after.len() {
        whole_after[k] += whole_after[k - 1];
    }

    let spawn_at = Instant::now();
    let mut engine =
        StreamEngine::spawn(&cfg, SAMPLE_RATE_HZ).map_err(|e| format!("engine spawn: {e}"))?;
    let setup_s = spawn_at.elapsed().as_secs_f64();
    let cpu0 = procfs::self_cpu_s()?;
    let t0 = Instant::now();
    let mut drain = |engine: &mut StreamEngine, drained: &mut Vec<_>, reported: &mut u64| {
        let now = Instant::now();
        for t in engine.drain_timed() {
            ingest_to_emit_ms
                .push(now.saturating_duration_since(t.ingested_at).as_secs_f64() * 1e3);
            *reported += u64::from(!t.packet.round.devices.is_empty());
            drained.push((t.packet, now));
        }
    };
    for k in 0..pieces {
        if let (Some(window), true) = (window, k > 0) {
            let held = Instant::now();
            while whole_after[k as usize - 1] > reported + window
                && held.elapsed() < WINDOW_PATIENCE
            {
                std::thread::sleep(Duration::from_micros(100));
                drain(&mut engine, &mut drained, &mut reported);
            }
            stalls += u64::from(whole_after[k as usize - 1] > reported + window);
        }
        let piece = looped_piece(&cap.samples, k, CHUNK_SAMPLES as u64, total, &mut scratch);
        engine
            .feed(piece)
            .map_err(|_| "engine closed mid-feed".to_string())?;
        accepted.push(Instant::now());
        drain(&mut engine, &mut drained, &mut reported);
        if k == pieces / 2 {
            threads = procfs::status_field(None, "Threads")?;
        }
    }
    let report = engine
        .shutdown()
        .map_err(|e| format!("engine shutdown: {e}"))?;
    let end = Instant::now();
    let cpu_s = procfs::self_cpu_s()? - cpu0;
    drained.extend(report.packets.into_iter().map(|p| (p, end)));

    let mut frames = Vec::with_capacity(drained.len());
    let mut latency_ms = Vec::with_capacity(drained.len());
    for (p, at) in drained {
        let frame = Frame::from(&p);
        let piece = (truth.last_sample(&frame) / CHUNK_SAMPLES as u64).min(pieces - 1);
        let due = accepted[piece as usize];
        latency_ms.push(signed_ms(at, due));
        frames.push(frame);
    }
    Ok(Pass {
        setup_s,
        wall_s: end.duration_since(t0).as_secs_f64(),
        cpu_s,
        samples: total,
        threads,
        frames,
        latency_ms,
        ingest_to_emit_ms,
        telemetry: report.telemetry,
        ring_dropped: report.ring_dropped,
        stalls,
        samples_in: report.samples_in,
    })
}

/// `later − earlier` in ms, negative when `later` precedes `earlier`.
pub fn signed_ms(later: Instant, earlier: Instant) -> f64 {
    match later.checked_duration_since(earlier) {
        Some(d) => d.as_secs_f64() * 1e3,
        None => -(earlier.duration_since(later).as_secs_f64() * 1e3),
    }
}

/// Runs throughput and latency passes in turn until `seconds` have passed
/// (at least [`MIN_PASSES`] of each).
pub fn run(cap: &Capture, loops: Loops, seconds: f64) -> Result<Timed, String> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let truth = Truth::of(cap);
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut score = Score::default();
    let mut problems = Vec::new();
    let mut failures = BTreeSet::new();
    let (mut setups, mut msps, mut threads) = (Vec::new(), Vec::new(), Vec::new());
    let (mut latency, mut ingest_to_emit) = (Vec::<Vec<f64>>::new(), Vec::new());
    let (mut cpu_s, mut samples) = (0.0, 0u64);
    let mut telemetry = PipelineTelemetry::default();
    let (mut full_events, mut block_wait_ms) = (Vec::new(), Vec::new());
    let mut stalls = 0u64;
    let mut n = 0usize;
    while n < 2 * MIN_PASSES || started.elapsed() < budget {
        let throughput = n.is_multiple_of(2);
        let (l, window) = if throughput {
            (loops.throughput, None)
        } else {
            (loops.latency, Some(LATENCY_WINDOW))
        };
        let p = pass(cap, &truth, l, workers, window)?;
        let mut notes = BTreeSet::new();
        score.add(&truth.score(&p.frames, l, &mut notes));
        failures.extend(notes.iter().map(|f| f.describe(cap)));
        if let Err(e) = crate::truth::check_order(&p.frames) {
            problems.push(format!("pass {n}: {e}"));
        }
        if p.ring_dropped != 0 {
            problems.push(format!("pass {n}: {} ring chunks dropped", p.ring_dropped));
        }
        if p.samples_in != p.samples {
            problems.push(format!(
                "pass {n}: engine consumed {} samples of {} fed",
                p.samples_in, p.samples
            ));
        }
        if let Some(l) = p.latency_ms.iter().find(|l| **l < 0.0) {
            problems.push(format!("pass {n}: negative frame latency {l} ms"));
        }
        setups.push(p.setup_s);
        stalls += p.stalls;
        n += 1;
        if !throughput {
            latency.push(p.latency_ms);
            ingest_to_emit.extend(p.ingest_to_emit_ms);
            continue;
        }
        msps.push(p.samples as f64 / p.wall_s / 1e6);
        threads.push(p.threads);
        cpu_s += p.cpu_s;
        samples += p.samples;
        full_events.push(p.telemetry.ring_full_events as f64);
        block_wait_ms.push(p.telemetry.ring_block_wait_ns.sum as f64 / 1e6);
        telemetry.merge(&p.telemetry);
    }
    let (p50, p90) = pass_p50_p90(&latency)?;
    let lat = Summary::of(&latency.concat()).ok_or("no frames decoded")?;
    let radio_s = samples as f64 / SAMPLE_RATE_HZ;
    let e2e = vec![
        metric("frame_p50_ms", p50, "ms"),
        metric("cores_per_channel", cpu_s / radio_s, "cores"),
        metric("replay_msps", median(&msps), "Msamples/s"),
        metric("setup_s", median(&setups), "s"),
    ];
    let rss_mb = procfs::status_field(None, "VmHWM")? / 1024.0;
    let e2e_ms = Summary::of(&ingest_to_emit).map_or(0.0, |s| s.p50);
    let report: Vec<Metric> = vec![
        metric("serve.ingest_to_emit_p50_ms", e2e_ms, "ms"),
        metric("serve.threads", median(&threads), "count"),
        metric("serve.peak_rss_mb", rss_mb, "MB"),
        metric(
            "ring.occupancy_hwm",
            telemetry.ring_occupancy_hwm as f64,
            "chunks",
        ),
        metric("ring.full_events", median(&full_events), "count"),
        metric("ring.block_wait_ms", median(&block_wait_ms), "ms"),
        metric(
            "detect.anchor_samples_p50",
            telemetry.detect_gate_to_anchor_samples.quantile(0.5),
            "samples",
        ),
        metric(
            "engine.queue_wait_p50_ms",
            telemetry.queue_wait_ns.quantile(0.5) / 1e6,
            "ms",
        ),
        metric(
            "engine.decode_p50_ms",
            telemetry.decode_ns.quantile(0.5) / 1e6,
            "ms",
        ),
    ];
    let mut stamp = vec![
        ("passes".to_string(), Json::Num(setups.len() as f64)),
        (
            "loops_per_pass".to_string(),
            Json::Array(vec![
                Json::Num(loops.throughput as f64),
                Json::Num(loops.latency as f64),
            ]),
        ),
        ("workers".to_string(), Json::Num(workers as f64)),
        ("window_stalls".to_string(), Json::Num(stalls as f64)),
        (
            "pass_msps".to_string(),
            Json::Array(msps.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ];
    stamp.extend(frame_stamp(&lat));
    stamp.push(("frame_p90_group_median_ms".to_string(), Json::Num(p90)));
    Ok(Timed {
        score,
        problems,
        e2e,
        report,
        msps: median(&msps),
        serving_cpu_s: cpu_s,
        samples_served: samples,
        stamp,
        failures,
    })
}

/// Frame-latency stamp entries, each only where the percentile rule allows.
pub fn frame_stamp(lat: &Summary) -> Vec<(String, Json)> {
    let opt = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    vec![
        ("frames".to_string(), Json::Num(lat.count as f64)),
        ("frame_p50_ms".to_string(), Json::Num(lat.p50)),
        ("frame_p90_ms".to_string(), opt(lat.p90)),
        ("frame_p99_ms".to_string(), opt(lat.p99)),
        ("frame_max_ms".to_string(), opt(lat.max)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn looped_pieces_cover_the_loop_in_order() {
        let data: Vec<u32> = (0..10).collect();
        let total: u64 = 25;
        let mut scratch = Vec::new();
        let mut all = Vec::new();
        for k in 0..total.div_ceil(4) {
            all.extend_from_slice(looped_piece(&data, k, 4, total, &mut scratch));
        }
        let want: Vec<u32> = (0..total as u32).map(|i| i % 10).collect();
        assert_eq!(all, want);
        // A piece inside one loop is borrowed, not copied.
        let p = looped_piece(&data, 3, 4, total, &mut scratch);
        assert_eq!(p, &[2, 3, 4, 5]);
    }

    #[test]
    fn signed_ms_keeps_the_sign() {
        let a = Instant::now();
        let b = a + Duration::from_millis(3);
        assert!((signed_ms(b, a) - 3.0).abs() < 1e-9);
        assert!((signed_ms(a, b) + 3.0).abs() < 1e-9);
    }
}
