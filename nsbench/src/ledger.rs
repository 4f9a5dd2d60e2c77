//! The stage ledger: one thread walks each capture through the pipeline's
//! public entry points in order — wire decode, ring handoff, detector push,
//! preamble detection, per-symbol decode, frame encode — timing each call
//! from outside, and compares the sum of the stage self-times with the
//! untraced single-thread facade (`Cf32Decoder` → `StreamGateway` →
//! `frame_json`) over the same capture.

use crate::inputs::{Capture, CHUNK_SAMPLES};
use crate::replay::looped_piece;
use crate::stats::median;
use crate::truth::{Frame, Score, Truth};
use crate::{metric, procfs, Metric};
use netscatter::json::Json;
use netscatter::receiver::{DecodedDevice, DecodedRound};
use netscatter_daemon::protocol::{frame_json, Cf32Decoder, SAMPLE_BYTES};
use netscatter_dsp::Complex64;
use netscatter_gateway::detect::DetectorState;
use netscatter_gateway::ring::spsc_ring;
use netscatter_gateway::{DecodedPacket, OverflowPolicy, StreamDetector, StreamGateway};
use netscatter_phy::distributed::DemodWorkspace;
use netscatter_phy::preamble::{PREAMBLE_SYMBOLS, PREAMBLE_UPCHIRPS};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Rounds of (facade pass, traced walk) per capture. The ledger's closure
/// is the median over rounds, each comparing a walk with the facade pass
/// run just before it, so slow stretches of a shared machine hit both.
const REPEATS: usize = 5;
/// The ledger's stages, in pipeline order.
pub const STAGES: [&str; 7] = [
    "wire", "ring", "gate", "sync", "preamble", "symbols", "emit",
];

/// One recorded span.
struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    /// Round id (the decoded span index) for spans of one round.
    round: Option<u64>,
    stream: usize,
    repeat: usize,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder, written out when the walk ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stream: usize,
    repeat: usize,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span and returns its result.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        round: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.push(name, parent, round, start_ns, end_ns);
        out
    }

    fn push(&mut self, name: &'static str, parent: u64, round: Option<u64>, s: u64, e: u64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            round,
            stream: self.stream,
            repeat: self.repeat,
            start_ns: s,
            end_ns: e,
        });
        id
    }

    /// Sets the end of span `id` (a parent opened before its children).
    fn close(&mut self, id: u64) {
        let end = self.now();
        self.spans[id as usize - 1].end_ns = end;
    }

    /// Self time of the spans called `name` (of one repeat, or all): each
    /// span's duration minus what its children cover.
    fn self_ns(&self, name: &str, repeat: Option<usize>) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        self.spans
            .iter()
            .filter(|s| s.name == name && repeat.is_none_or(|r| s.repeat == r))
            .map(|s| (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]))
            .sum()
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?,
        );
        for s in &self.spans {
            let doc = Json::object(vec![
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("name", Json::Str(s.name.to_string())),
                ("round", s.round.map_or(Json::Null, |r| Json::Num(r as f64))),
                ("stream", Json::Num(s.stream as f64)),
                ("repeat", Json::Num(s.repeat as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{}", doc.to_string_line()).map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())
    }
}

/// One untraced facade pass; returns (wall s, thread CPU s, packets).
fn facade(cap: &Capture, wire: &[u8]) -> Result<(f64, f64, Vec<DecodedPacket>), String> {
    let cfg = cap.gateway_config(OverflowPolicy::Block, 1);
    let mut gw = StreamGateway::new(&cfg).map_err(|e| e.to_string())?;
    let mut decoder = Cf32Decoder::new();
    let mut samples: Vec<Complex64> = Vec::with_capacity(CHUNK_SAMPLES);
    let mut packets = Vec::new();
    let piece = (CHUNK_SAMPLES * SAMPLE_BYTES) as u64;
    let mut scratch = Vec::new();
    let cpu0 = procfs::thread_cpu_s()?;
    let t0 = Instant::now();
    for k in 0..(wire.len() as u64).div_ceil(piece) {
        let bytes = looped_piece(wire, k, piece, wire.len() as u64, &mut scratch);
        samples.clear();
        decoder.push(bytes, &mut samples);
        for p in gw.feed(&samples).map_err(|e| e.to_string())? {
            black_box(frame_json(&cap.name, &p, None).to_string_line());
            packets.push(p);
        }
    }
    gw.finish();
    let wall = t0.elapsed().as_secs_f64();
    Ok((wall, procfs::thread_cpu_s()? - cpu0, packets))
}

/// Totals of one traced walk.
#[derive(Default)]
struct Walk {
    packets: Vec<DecodedPacket>,
    pieces: u64,
    gate_samples: u64,
    frame_bytes: u64,
    empty_spans: u64,
    round_check_ns: u64,
    mismatched_rounds: u64,
    wall_ns: u64,
}

/// The traced walk of one capture on this thread.
fn walk(cap: &Capture, wire: &[u8], tracer: &mut Tracer) -> Result<Walk, String> {
    let cfg = cap.gateway_config(OverflowPolicy::Block, 1);
    let mut detector = StreamDetector::new(&cfg).map_err(|e| e.to_string())?;
    let receiver = detector.receiver().clone();
    let n = cfg.profile.modulation.num_bins();
    let (tx, rx) = spsc_ring::<Vec<Complex64>>(cfg.ring_slots);
    let mut decoder = Cf32Decoder::new();
    let mut bits = Vec::new();
    let mut spans = Vec::new();
    let mut buf: Vec<Complex64> = Vec::with_capacity(CHUNK_SAMPLES);
    let mut w = Walk::default();
    let piece = (CHUNK_SAMPLES * SAMPLE_BYTES) as u64;
    let mut scratch = Vec::new();
    let walk_start = tracer.now();
    for k in 0..(wire.len() as u64).div_ceil(piece) {
        let bytes = looped_piece(wire, k, piece, wire.len() as u64, &mut scratch);
        let piece_start = tracer.now();
        let piece_id = tracer.push("piece", 0, None, piece_start, piece_start);
        buf.clear();
        tracer.span("wire", piece_id, None, || decoder.push(bytes, &mut buf));
        let chunk = tracer.span("ring", piece_id, None, || {
            tx.push(std::mem::take(&mut buf))
                .map_err(|_| "ring consumer gone".to_string())?;
            rx.pop().ok_or_else(|| "ring closed".to_string())
        })?;
        let before = detector.state();
        let s = tracer.now();
        detector.push(&chunk, &mut spans);
        let e = tracer.now();
        let gate = before == DetectorState::Hunting
            && detector.state() == DetectorState::Hunting
            && spans.is_empty();
        if gate {
            w.gate_samples += chunk.len() as u64;
        }
        tracer.push(if gate { "gate" } else { "sync" }, piece_id, None, s, e);
        buf = chunk;
        w.pieces += 1;
        tracer.close(piece_id);
        for span in spans.drain(..) {
            let round = Some(span.index as u64);
            let rs = tracer.now();
            let round_id = tracer.push("round", 0, round, rs, rs);
            // A fresh workspace per round, as `decode_round` makes one.
            let mut ws = DemodWorkspace::new();
            let detected = tracer.span("preamble", round_id, round, || {
                receiver.detect_devices_with(
                    &span.samples[..PREAMBLE_UPCHIRPS * n],
                    &cfg.assigned_bins,
                    &mut ws,
                )
            });
            let detected = detected.map_err(|e| e.to_string())?;
            let mut devices: Vec<DecodedDevice> = detected
                .iter()
                .map(|d| DecodedDevice {
                    chirp_bin: d.chirp_bin,
                    preamble_power: d.average_power,
                    bits: Vec::with_capacity(cfg.payload_symbols),
                })
                .collect();
            for sym in 0..cfg.payload_symbols {
                let lo = (PREAMBLE_SYMBOLS + sym) * n;
                tracer
                    .span("symbols", round_id, round, || {
                        receiver
                            .decode_payload_symbol_with(
                                &span.samples[lo..lo + n],
                                &detected,
                                &mut ws,
                                &mut bits,
                            )
                            .map(|()| {
                                for (dev, &b) in devices.iter_mut().zip(&bits) {
                                    dev.bits.push(b);
                                }
                            })
                    })
                    .map_err(|e| e.to_string())?;
            }
            if devices.is_empty() {
                w.empty_spans += 1;
            }
            let packet = DecodedPacket {
                index: span.index,
                start_sample: span.start_sample,
                round: DecodedRound { devices },
            };
            let line = tracer.span("emit", round_id, round, || {
                frame_json(&cap.name, &packet, None).to_string_line()
            });
            w.frame_bytes += line.len() as u64 + 1;
            tracer.close(round_id);
            // The whole-round entry point, timed on its own and kept out of
            // the ledger: it must decode exactly what the stages did.
            let s = tracer.now();
            let whole = receiver
                .decode_round(&span.samples, 0, &cfg.assigned_bins, cfg.payload_symbols)
                .map_err(|e| e.to_string())?;
            let e = tracer.now();
            tracer.push("decode_round", 0, round, s, e);
            w.round_check_ns += e - s;
            if whole != packet.round {
                w.mismatched_rounds += 1;
            }
            w.packets.push(packet);
        }
    }
    detector.finish();
    w.wall_ns = tracer.now() - walk_start - w.round_check_ns;
    Ok(w)
}

/// The ledger's per-layer metrics and checks.
pub struct Ledger {
    /// Traced per-layer metrics and the ledger itself.
    pub metrics: Vec<Metric>,
    /// Single-thread facade CPU per sample.
    pub facade_cpu_s_per_sample: f64,
    /// Single-thread facade rate, Msamples/s.
    pub facade_msps: f64,
    /// Ground truth of one facade pass over every capture.
    pub score: Score,
    /// Violated properties.
    pub problems: Vec<String>,
    /// Every distinct failed operation of the facade pass.
    pub failures: BTreeSet<String>,
    /// Run-stamp entries.
    pub stamp: Vec<(String, Json)>,
}

/// Runs the facade and the traced walk over every capture and writes the
/// spans to `spans_path`.
pub fn run(caps: &[Capture], spans_path: &Path) -> Result<Ledger, String> {
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
        stream: 0,
        repeat: 0,
    };
    let mut score = Score::default();
    let mut problems = Vec::new();
    let mut failures = BTreeSet::new();
    let wires: Vec<Vec<u8>> = caps.iter().map(Capture::wire_bytes).collect();
    let samples: u64 = caps.iter().map(Capture::len).sum();
    let mut facade_walls = [0.0f64; REPEATS];
    let mut facade_cpu = 0.0;
    let mut walks = Vec::new();
    // One untimed facade pass per capture first: the timed run has just
    // freed its buffers, and the first pass after it pays for fresh pages.
    for (cap, wire) in caps.iter().zip(&wires) {
        facade(cap, wire)?;
    }
    for (rep, facade_wall) in facade_walls.iter_mut().enumerate() {
        tracer.repeat = rep;
        for (i, (cap, wire)) in caps.iter().zip(&wires).enumerate() {
            let (wall, cpu, packets) = facade(cap, wire)?;
            *facade_wall += wall;
            facade_cpu += cpu;
            if rep == 0 {
                let frames: Vec<Frame> = packets.iter().map(Frame::from).collect();
                let mut notes = BTreeSet::new();
                score.add(&Truth::of(cap).score(&frames, 1, &mut notes));
                failures.extend(notes.iter().map(|f| f.describe(cap)));
            }
            tracer.stream = i;
            let w = walk(cap, wire, &mut tracer)?;
            if w.packets != packets {
                problems.push(format!(
                    "{}: traced walk decoded differently from the facade",
                    cap.name
                ));
            }
            if w.mismatched_rounds > 0 {
                problems.push(format!(
                    "{}: {} rounds differ between the stages and decode_round",
                    cap.name, w.mismatched_rounds
                ));
            }
            walks.push(w);
        }
    }
    tracer.write(spans_path)?;

    let reps = REPEATS as f64;
    let stage_sum =
        |rep: Option<usize>| -> f64 { STAGES.iter().map(|s| tracer.self_ns(s, rep) as f64).sum() };
    let closures: Vec<f64> = (0..REPEATS)
        .map(|rep| stage_sum(Some(rep)) / 1e9 / facade_walls[rep])
        .collect();
    let closure = median(&closures);
    let facade_wall = median(&facade_walls);
    // Per-repeat averages from here on.
    let stage_ns: Vec<f64> = STAGES
        .iter()
        .map(|s| tracer.self_ns(s, None) as f64 / reps)
        .collect();
    let total_ns: f64 = stage_ns.iter().sum();
    let sum = |f: fn(&Walk) -> u64| walks.iter().map(f).sum::<u64>() as f64 / reps;
    let spans = sum(|w| w.packets.len() as u64);
    let payload_symbols = crate::inputs::PAYLOAD_BITS as f64;
    let ns = |stage: &str| stage_ns[STAGES.iter().position(|s| *s == stage).expect("stage")];
    let facade_msps = samples as f64 / facade_wall / 1e6;
    let mut metrics = vec![
        metric(
            "protocol.wire_decode_ns_per_sample",
            ns("wire") / samples as f64,
            "ns",
        ),
        metric("protocol.frame_encode_us", ns("emit") / spans / 1e3, "us"),
        metric(
            "protocol.frame_bytes",
            sum(|w| w.frame_bytes) / spans,
            "bytes",
        ),
        metric(
            "ring.handoff_ns_per_chunk",
            ns("ring") / sum(|w| w.pieces),
            "ns",
        ),
        metric(
            "detect.gate_ns_per_sample",
            ns("gate") / sum(|w| w.gate_samples),
            "ns",
        ),
        metric("detect.sync_ms_per_span", ns("sync") / spans / 1e6, "ms"),
        metric("detect.spans", spans, "count"),
        metric("detect.empty_spans", sum(|w| w.empty_spans), "count"),
        metric("receiver.preamble_ms", ns("preamble") / spans / 1e6, "ms"),
        metric(
            "receiver.symbol_us",
            ns("symbols") / (spans * payload_symbols) / 1e3,
            "us",
        ),
        metric(
            "receiver.round_ms",
            sum(|w| w.round_check_ns) / spans / 1e6,
            "ms",
        ),
        metric("ledger.facade_msps", facade_msps, "Msamples/s"),
    ];
    for (stage, v) in STAGES.iter().zip(&stage_ns) {
        metrics.push(metric(
            &format!("ledger.{stage}_share"),
            v / total_ns,
            "ratio",
        ));
    }
    metrics.push(metric("ledger.closure", closure, "ratio"));
    let traced_wall_s = sum(|w| w.wall_ns) / 1e9;
    let stamp = vec![
        ("ledger_facade_wall_s".to_string(), Json::Num(facade_wall)),
        (
            "ledger_closures".to_string(),
            Json::Array(closures.iter().map(|c| Json::Num(*c)).collect()),
        ),
        ("ledger_stage_sum_s".to_string(), Json::Num(total_ns / 1e9)),
        ("ledger_traced_wall_s".to_string(), Json::Num(traced_wall_s)),
        (
            "ledger_trace_overhead_s".to_string(),
            Json::Num(traced_wall_s - facade_wall),
        ),
        (
            "ledger_closes".to_string(),
            Json::Bool((0.9..=1.1).contains(&closure)),
        ),
    ];
    Ok(Ledger {
        metrics,
        facade_cpu_s_per_sample: facade_cpu / reps / samples as f64,
        facade_msps,
        score,
        problems,
        failures,
        stamp,
    })
}
