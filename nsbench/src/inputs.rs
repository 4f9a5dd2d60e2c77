//! Benchmark inputs: pristine sample-level round-arrival streams synthesized
//! from a seed with the default deployment, quantized through the wire's
//! f32 precision once, before any clock starts.

use netscatter_channel::noise::AwgnChannel;
use netscatter_daemon::protocol::{encode_cf32le, quantize_cf32, StreamHeader};
use netscatter_dsp::Complex64;
use netscatter_gateway::{GatewayConfig, OverflowPolicy, StreamSource};
use netscatter_sim::deployment::{Deployment, DeploymentConfig};
use netscatter_sim::fullround::ChannelModel;
use netscatter_sim::stream::{ArrivalConfig, RoundArrivalSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Placement seed of the default deployment (the one `netscatter stress`
/// uses): every stream of one device count shares its bin assignment.
pub const DEPLOYMENT_SEED: u64 = 17;
/// The fixed stream whose round at truth start 4,819,184 the streaming
/// detector anchors 12 samples early (see the README's program faults).
pub const MISANCHOR_SEED: u64 = 43;
/// Its companion in the same two-stream stress reproduction, decoded clean.
pub const COMPANION_SEED: u64 = 42;
/// Payload bits per device per round.
pub const PAYLOAD_BITS: usize = 40;
/// Engine feed and daemon chunk size, in samples.
pub const CHUNK_SAMPLES: usize = 8192;
/// Complex baseband sample rate of the default profile (SF 9 / 500 kHz).
pub const SAMPLE_RATE_HZ: f64 = 500e3;
/// Devices per round on the dense streams.
pub const DENSE_DEVICES: usize = 256;
/// Devices per round on the sparse capture.
pub const SPARSE_DEVICES: usize = 16;

/// Length and arrival rate of one dense stream (≈ 9.3 rounds per
/// radio-second behind the recharge dead time).
const DENSE_SECS: f64 = 10.0;
const DENSE_RATE_HZ: f64 = 100.0;
/// The sparse capture is this many 1 s streams back to back, one round
/// each: 1 round/s with a fixed round count and length on every seed.
const SPARSE_SEGMENTS: u64 = 20;
const SPARSE_SEGMENT_SECS: f64 = 1.0;
const SPARSE_RATE_HZ: f64 = 1.0;
/// Offset of the sparse capture's trial seeds.
const SPARSE_SEED_BASE: u64 = 0x5EED_0000_0000;
/// Salt of the noise put under a silenced tail.
const TAIL_NOISE_SALT: u64 = 0x7A11_0000_5EED;

/// What one round put on the air.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Sample index of the round's first sample within its capture.
    pub start: u64,
    /// Per device (deployment order, aligned with [`Capture::bins`]): the
    /// payload bits it sent, or `None` if it sat the round out.
    pub sent: Vec<Option<Vec<bool>>>,
}

/// One synthesized, wire-quantized capture plus its ground truth.
pub struct Capture {
    /// Stream name used in headers and frame records.
    pub name: String,
    /// The f32-quantized samples: exactly what crosses the wire.
    pub samples: Vec<Complex64>,
    /// Rounds in stream order.
    pub truth: Vec<Round>,
    /// Cyclic-shift assignment, in deployment order.
    pub bins: Vec<usize>,
    /// Presence-test floor the synthesizer's receiver uses.
    pub detection_floor: f64,
    /// Samples of one round waveform.
    pub round_samples: u64,
    /// Index, in the capture as synthesized, of this capture's first
    /// sample (non-zero once [`rotate`] has moved its start).
    pub origin: u64,
}

impl Capture {
    /// The capture's length in samples.
    pub fn len(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Maps a sample index of this capture back to the capture as
    /// synthesized, so a fault reads the same whatever the rotation.
    pub fn synthesized_index(&self, at: u64) -> u64 {
        (at + self.origin) % self.len()
    }

    /// Whether every device transmits in every round.
    pub fn fully_loaded(&self) -> bool {
        self.truth
            .iter()
            .all(|r| r.sent.iter().all(Option::is_some))
    }

    /// The gateway configuration a decoder of this capture runs with.
    pub fn gateway_config(&self, overflow: OverflowPolicy, workers: usize) -> GatewayConfig {
        let profile = DeploymentConfig::office(self.bins.len().max(16)).profile;
        let mut cfg = GatewayConfig::new(profile, self.bins.clone(), PAYLOAD_BITS);
        cfg.chunk_samples = CHUNK_SAMPLES;
        cfg.workers = workers;
        cfg.overflow = overflow;
        cfg.detection_floor_fraction = Some(self.detection_floor);
        cfg
    }

    /// The ingest header naming this capture's decode parameters.
    pub fn header(&self) -> StreamHeader {
        let mut h = StreamHeader::named(&self.name);
        h.sample_rate_hz = Some(SAMPLE_RATE_HZ);
        h.bins = Some(self.bins.clone());
        h.payload_bits = Some(PAYLOAD_BITS);
        h.detection_floor = Some(self.detection_floor);
        h
    }

    /// The capture as `cf32le` wire bytes.
    pub fn wire_bytes(&self) -> Vec<u8> {
        encode_cf32le(&self.samples)
    }
}

fn deployment(devices: usize) -> Deployment {
    Deployment::generate(
        DeploymentConfig::office(devices.max(16)),
        &mut StdRng::seed_from_u64(DEPLOYMENT_SEED),
    )
}

/// Drains one pristine [`RoundArrivalSource`] into a capture.
fn synthesize(
    dep: &Deployment,
    devices: usize,
    rate_hz: f64,
    secs: f64,
    trial_seed: u64,
) -> Capture {
    let mut source = RoundArrivalSource::new(
        dep,
        devices,
        &ChannelModel::pristine(),
        ArrivalConfig {
            rate_hz,
            stream_secs: secs,
            payload_bits: PAYLOAD_BITS,
        },
        trial_seed,
    );
    let truth = source.truth();
    let mut samples = Vec::with_capacity(source.total_samples() as usize);
    let mut buf = vec![Complex64::ZERO; CHUNK_SAMPLES];
    loop {
        let got = source.fill(&mut buf);
        samples.extend_from_slice(&buf[..got]);
        if got < buf.len() {
            break;
        }
    }
    let truth = truth
        .lock()
        .expect("truth lock: the source lives on this thread")
        .iter()
        .map(|r| Round {
            start: r.start_sample,
            sent: r.sent.clone(),
        })
        .collect();
    Capture {
        name: format!("seed{trial_seed}"),
        samples,
        truth,
        bins: source.assigned_bins().to_vec(),
        detection_floor: source.detection_floor_fraction(),
        round_samples: source.round_samples(),
        origin: 0,
    }
}

/// Silences everything from the start of round `keep` on, so the capture
/// carries exactly `keep` rounds at its full length. The silenced tail
/// gets fresh unit-power AWGN (seeded by `noise_seed`), the same thermal
/// floor the synthesizer put under the rest of the stream: a noiseless
/// stretch would let the energy gate's floor estimate collapse.
fn keep_rounds(mut cap: Capture, keep: usize, noise_seed: u64) -> Result<Capture, String> {
    if cap.truth.len() < keep {
        return Err(format!(
            "{} holds {} rounds, fewer than the {keep} the workload offers",
            cap.name,
            cap.truth.len()
        ));
    }
    if let Some(cut) = cap.truth.get(keep).map(|r| r.start as usize) {
        let tail = &mut cap.samples[cut..];
        tail.fill(Complex64::ZERO);
        AwgnChannel::with_noise_power(1.0).apply(
            &mut StdRng::seed_from_u64(noise_seed ^ TAIL_NOISE_SALT),
            tail,
        );
        cap.truth.truncate(keep);
    }
    Ok(cap)
}

fn quantized(mut cap: Capture, name: String) -> Capture {
    cap.samples = quantize_cf32(&cap.samples);
    cap.name = name;
    cap
}

/// One fixed 256-device dense stream (10 s, every round it synthesizes).
pub fn dense_stream(trial_seed: u64) -> Capture {
    let cap = synthesize(
        &deployment(DENSE_DEVICES),
        DENSE_DEVICES,
        DENSE_RATE_HZ,
        DENSE_SECS,
        trial_seed,
    );
    quantized(cap, format!("dense{trial_seed}"))
}

/// A seed-derived pick in `0..n` (splitmix64 of `seed` and `salt`).
pub fn pick(seed: u64, salt: u64, n: usize) -> usize {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % n.max(1) as u64) as usize
}

/// Starts `cap` half way through the idle gap before its round `first`:
/// looped, the rotated capture is the same stream entered at another
/// point, so every pass still offers every round once and no round is cut.
pub fn rotate(mut cap: Capture, first: usize) -> Capture {
    let Some(round) = cap.truth.get(first) else {
        return cap;
    };
    let gap_start = match first {
        0 => 0,
        _ => cap.truth[first - 1].start + cap.round_samples,
    };
    let cut = (gap_start + round.start) / 2;
    let len = cap.len();
    cap.samples.rotate_left(cut as usize);
    for r in &mut cap.truth {
        r.start = (r.start + len - cut) % len;
    }
    cap.truth.rotate_left(first);
    cap.origin = (cap.origin + cut) % len;
    cap
}

/// Joins captures back to back into one (all must share bins and floor).
pub fn concat(parts: Vec<Capture>, name: String) -> Result<Capture, String> {
    let mut parts = parts.into_iter();
    let mut out = parts.next().ok_or("no captures to join")?;
    for part in parts {
        if part.bins != out.bins || part.detection_floor != out.detection_floor {
            return Err(format!(
                "{} and {} disagree on bins or detection floor",
                out.name, part.name
            ));
        }
        let offset = out.len();
        out.truth.extend(part.truth.into_iter().map(|mut r| {
            r.start += offset;
            r
        }));
        out.samples.extend_from_slice(&part.samples);
    }
    out.name = name;
    Ok(out)
}

/// The sparse capture: [`SPARSE_SEGMENTS`] one-second 16-device streams,
/// each carrying exactly its first round.
pub fn sparse_capture(seed: u64) -> Result<Capture, String> {
    let dep = deployment(SPARSE_DEVICES);
    let parts = (0..SPARSE_SEGMENTS)
        .map(|i| {
            let trial = SPARSE_SEED_BASE
                .wrapping_add(seed.wrapping_mul(SPARSE_SEGMENTS))
                .wrapping_add(i);
            let cap = synthesize(
                &dep,
                SPARSE_DEVICES,
                SPARSE_RATE_HZ,
                SPARSE_SEGMENT_SECS,
                trial,
            );
            keep_rounds(cap, 1, trial)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let cap = concat(parts, String::new())?;
    Ok(quantized(cap, format!("sparse-s{seed}")))
}

/// Runs two set-up jobs on two threads, before any clock starts.
pub fn in_parallel<A: Send, B: Send>(
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    std::thread::scope(|s| {
        let hb = s.spawn(b);
        let ra = a();
        (ra, hb.join().expect("synthesis thread panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 100 samples numbered 0..100, rounds of 10 samples at 20, 50 and 80.
    fn toy() -> Capture {
        Capture {
            name: "toy".to_string(),
            samples: (0..100).map(|i| Complex64::new(i as f64, 0.0)).collect(),
            truth: [20, 50, 80]
                .iter()
                .map(|&start| Round {
                    start,
                    sent: vec![Some(vec![true])],
                })
                .collect(),
            bins: vec![7],
            detection_floor: 1e-4,
            round_samples: 10,
            origin: 0,
        }
    }

    #[test]
    fn rotation_enters_the_loop_mid_gap_and_keeps_every_round() {
        let cap = toy();
        // Round 1 first: the gap before it is [30, 50), so the cut is at 40.
        let r = rotate(toy(), 1);
        assert_eq!(r.origin, 40);
        assert_eq!(r.samples[0], cap.samples[40]);
        let starts: Vec<u64> = r.truth.iter().map(|x| x.start).collect();
        assert_eq!(starts, vec![10, 40, 80]);
        for round in &r.truth {
            let orig = r.synthesized_index(round.start);
            assert_eq!(r.samples[round.start as usize], cap.samples[orig as usize]);
        }
        // Round 0 first: the cut is half way into the leading gap.
        assert_eq!(rotate(toy(), 0).origin, 10);
        // Rotating twice composes.
        assert_eq!(rotate(rotate(toy(), 1), 2).origin, (40 + 65) % 100);
    }

    #[test]
    fn picks_are_in_range_and_follow_the_seed() {
        for seed in 0..50 {
            assert!(pick(seed, 0, 7) < 7);
            assert_eq!(pick(seed, 3, 91), pick(seed, 3, 91));
        }
        assert_ne!(
            (0..20).map(|s| pick(s, 0, 91)).collect::<Vec<_>>(),
            (0..20).map(|s| pick(s, 1, 91)).collect::<Vec<_>>()
        );
    }
}
