//! The open-loop live workload: two ingest connections to a `netscatterd`
//! child process (8192-sample chunks), each uploading its looped capture in
//! 2048-sample pieces on a fixed schedule at 8× the radio rate, from one
//! generator thread per connection.

use crate::inputs::{Capture, CHUNK_SAMPLES, SAMPLE_RATE_HZ};
use crate::replay::{frame_stamp, looped_piece};
use crate::stats::{median, pass_p50_p90, Schedule, Summary};
use crate::truth::{check_order, Frame, Score, Truth};
use crate::{metric, procfs, Metric, Timed};
use netscatter::json::Json;
use netscatter_daemon::protocol::SAMPLE_BYTES;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Upload speed as a multiple of the 500 kHz radio rate.
pub const PACE: f64 = 8.0;
/// Samples per upload write (the repository client's paced granularity).
/// The daemon publishes decoded frames only when a socket read returns, so
/// frame receipt is quantized to the piece period: with 8192-sample pieces
/// (2.048 ms at 8×) the decode time sat on a step and the run's p50 flipped
/// between 4.5 and 6.6 ms; 2048-sample pieces make the step 0.5 ms. The
/// daemon still coalesces them into its 8192-sample chunks.
const UPLOAD_PIECE_SAMPLES: u64 = 2048;
/// Daemon set-ups per run; `setup_s` is their median and the last one
/// serves the timed upload. The daemon's 1 ms poll tick puts each set-up
/// on one of a few steps (4.5–7 ms), so eleven of them left the run's
/// median jumping between steps; 41 cost ≈ 0.3 s.
const SETUPS: usize = 41;
/// Loops of both streams whose frames form one latency group: the run's
/// `frame_p50_ms` is the median over groups of each group's p50 (the stamp
/// adds the same for p90), and two loops give each group ≈ 370 frames.
const LATENCY_GROUP_LOOPS: u64 = 2;
/// Ring slots per stream. The default 64 chunks hold 131 ms of a stream at
/// 8×; with them one run in fifteen on a shared two-core machine failed its
/// checks with hundreds of failed rounds, as an overflow would leave. 512
/// hold ≈ 1 s.
const RING_SLOTS: usize = 512;
/// How long the run waits for a daemon to answer before giving up.
const ANSWER_DEADLINE: Duration = Duration::from_secs(60);

/// A running daemon child with its ingest connections.
struct Daemon {
    child: Child,
    /// Kept open (and unread after start-up) so the daemon's log writes
    /// never fail; its few lines per stream fit the pipe buffer.
    _stderr: BufReader<ChildStderr>,
    metrics: SocketAddr,
    conns: Vec<Conn>,
}

impl Daemon {
    /// Kills the daemon and waits for it to end.
    fn stop(self) {
        drop(self);
    }
}

impl Drop for Daemon {
    /// Whatever path the run leaves by, the child does not outlive it.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One ingest connection and what the daemon sent back on it.
struct Conn {
    sock: TcpStream,
    rx: Received,
}

/// Every byte the daemon sent on a connection, with the receipt instant of
/// each line end.
#[derive(Default)]
struct Received {
    bytes: Vec<u8>,
    line_ends: Vec<(usize, Instant)>,
}

impl Received {
    fn absorb(&mut self, data: &[u8], at: Instant) {
        let base = self.bytes.len();
        self.bytes.extend_from_slice(data);
        for (i, b) in data.iter().enumerate() {
            if *b == b'\n' {
                self.line_ends.push((base + i, at));
            }
        }
    }

    /// Reads `sock` once (blocking up to its read timeout) and stamps the
    /// bytes on return; `Ok(false)` at end of stream.
    fn read_from(&mut self, mut sock: &TcpStream, buf: &mut [u8]) -> Result<bool, String> {
        match sock.read(buf) {
            Ok(0) => Ok(false),
            Ok(n) => {
                self.absorb(&buf[..n], Instant::now());
                Ok(true)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(true),
            Err(e) => Err(format!("ingest read: {e}")),
        }
    }

    /// The received lines with their receipt instants.
    fn lines(&self) -> Vec<(&str, Instant)> {
        let mut start = 0;
        self.line_ends
            .iter()
            .map(|&(end, at)| {
                let line = std::str::from_utf8(&self.bytes[start..end]).unwrap_or("");
                start = end + 1;
                (line, at)
            })
            .collect()
    }
}

/// Reads `addr=<socket address>` out of a daemon log line with `marker`.
fn logged_addr(line: &str, marker: &str) -> Option<SocketAddr> {
    if !line.contains(marker) {
        return None;
    }
    line.split_whitespace()
        .find_map(|w| w.strip_prefix("addr="))
        .and_then(|a| a.parse().ok())
}

/// Spawns the daemon and opens one ready connection per capture; returns
/// it with the set-up time (spawn until every connection has `ready`).
fn start(daemon: &Path, caps: &[Capture]) -> Result<(Daemon, f64), String> {
    let t = Instant::now();
    let mut child = Command::new(daemon)
        .args(["--listen", "127.0.0.1:0", "--metrics", "127.0.0.1:0"])
        .args(["--chunk-samples", &CHUNK_SAMPLES.to_string()])
        .args(["--ring-slots", &RING_SLOTS.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", daemon.display()))?;
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
    let (mut ingest, mut metrics) = (None, None);
    let mut line = String::new();
    while ingest.is_none() || metrics.is_none() {
        line.clear();
        if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err("netscatterd exited before listening".to_string());
        }
        ingest = ingest.or(logged_addr(&line, "ingest listening"));
        metrics = metrics.or(logged_addr(&line, "metrics listening"));
    }
    let mut d = Daemon {
        child,
        _stderr: stderr,
        metrics: metrics.expect("loop ends with both addresses"),
        conns: Vec::new(),
    };
    let ingest = ingest.expect("loop ends with both addresses");
    let opened = caps.iter().try_for_each(|cap| -> Result<(), String> {
        let mut sock = TcpStream::connect(ingest).map_err(|e| format!("connect: {e}"))?;
        let _ = sock.set_nodelay(true);
        // A daemon that stops answering fails the run instead of hanging it.
        sock.set_read_timeout(Some(ANSWER_DEADLINE))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let mut header = cap.header().to_json_line();
        header.push('\n');
        sock.write_all(header.as_bytes())
            .map_err(|e| format!("header: {e}"))?;
        d.conns.push(Conn {
            sock,
            rx: Received::default(),
        });
        Ok(())
    });
    let ready = opened.and_then(|()| {
        let mut buf = [0u8; 4096];
        for conn in &mut d.conns {
            while conn.rx.line_ends.is_empty() {
                if !conn.rx.read_from(&conn.sock, &mut buf)? {
                    return Err("no ready record".to_string());
                }
            }
        }
        Ok(())
    });
    let setup_s = t.elapsed().as_secs_f64();
    match ready {
        Ok(()) => Ok((d, setup_s)),
        Err(e) => {
            d.stop();
            Err(e)
        }
    }
}

/// Uploads `wire` looped to `total` samples on the schedule, then
/// half-closes; returns each piece's send lateness in ms.
fn drive(
    mut sock: &TcpStream,
    wire: &[u8],
    total: u64,
    schedule: Schedule,
    t0: Instant,
) -> Result<Vec<f64>, String> {
    let piece_bytes = schedule.piece * SAMPLE_BYTES as u64;
    let total_bytes = total * SAMPLE_BYTES as u64;
    let pieces = total.div_ceil(schedule.piece);
    let mut scratch = Vec::with_capacity(piece_bytes as usize);
    let mut lateness_ms = Vec::with_capacity(pieces as usize);
    for k in 0..pieces {
        let due = t0 + schedule.piece_due(k);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        lateness_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        let piece = looped_piece(wire, k, piece_bytes, total_bytes, &mut scratch);
        sock.write_all(piece).map_err(|e| format!("upload: {e}"))?;
    }
    sock.shutdown(Shutdown::Write)
        .map_err(|e| format!("half-close: {e}"))?;
    Ok(lateness_ms)
}

/// Reads a connection's records until the daemon closes it; returns when
/// the last record arrived.
fn receive(sock: &TcpStream, rx: &mut Received) -> Result<Instant, String> {
    let mut buf = vec![0u8; 1 << 16];
    while rx.read_from(sock, &mut buf)? {}
    rx.line_ends
        .last()
        .map(|&(_, at)| at)
        .ok_or_else(|| "no records received".to_string())
}

/// One metrics-document value, looked up by its full series name.
fn series(doc: &str, name: &str) -> Result<f64, String> {
    doc.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("metrics document lacks {name}"))
}

fn scrape(addr: SocketAddr) -> Result<String, String> {
    let mut sock = TcpStream::connect(addr).map_err(|e| format!("metrics connect: {e}"))?;
    let mut doc = String::new();
    sock.read_to_string(&mut doc)
        .map_err(|e| format!("metrics read: {e}"))?;
    Ok(doc)
}

/// A connection's transcript checked and turned into frames with receipt
/// offsets from `t0`.
struct Transcript {
    frames: Vec<(Frame, Duration)>,
    problems: Vec<String>,
}

fn transcript(rx: &Received, name: &str, samples_sent: u64, t0: Instant) -> Transcript {
    let mut frames = Vec::new();
    let mut problems = Vec::new();
    let lines = rx.lines();
    let kind = |doc: &Json| doc.get("type").and_then(Json::as_str).map(String::from);
    let mut end = None;
    for (i, (line, at)) in lines.iter().enumerate() {
        let doc = match Json::parse(line) {
            Ok(d) => d,
            Err(e) => {
                problems.push(format!("{name}: record {i} does not parse: {e}"));
                continue;
            }
        };
        match kind(&doc).as_deref() {
            Some("ready") if i == 0 => {}
            Some("frame") => match frame_of(&doc) {
                Some(f) => frames.push((f, at.saturating_duration_since(t0))),
                None => problems.push(format!("{name}: malformed frame record {i}")),
            },
            Some("end") if i + 1 == lines.len() => end = Some(doc),
            other => problems.push(format!("{name}: unexpected record {other:?} at {i}")),
        }
    }
    match end {
        None => problems.push(format!("{name}: no end record")),
        Some(end) => {
            let num = |k: &str| end.get(k).and_then(Json::as_u64);
            if end.get("complete") != Some(&Json::Bool(true)) {
                problems.push(format!("{name}: end record not complete"));
            }
            if num("samples_in") != Some(samples_sent) {
                problems.push(format!(
                    "{name}: end record samples_in {:?} != {samples_sent} sent",
                    num("samples_in")
                ));
            }
            if num("ring_dropped") != Some(0) {
                problems.push(format!("{name}: ring_dropped {:?}", num("ring_dropped")));
            }
            if num("frames") != Some(frames.len() as u64) {
                problems.push(format!("{name}: end record frame count disagrees"));
            }
        }
    }
    Transcript { frames, problems }
}

fn frame_of(doc: &Json) -> Option<Frame> {
    let devices = doc
        .get("devices")?
        .as_array()?
        .iter()
        .map(|d| {
            let bin = d.get("bin")?.as_u64()? as usize;
            let bits = d.get("bits")?.as_str()?.chars().map(|c| c == '1').collect();
            Some((bin, bits))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Frame {
        index: doc.get("index")?.as_u64()?,
        start: doc.get("start_sample")?.as_u64()?,
        devices,
    })
}

/// Drives every connection from `t0` on a generator thread while a reader
/// thread collects its records; returns per-connection piece lateness,
/// when the last record arrived, the daemon's CPU seconds from `t0` until
/// then, and its thread count half way through the schedule.
fn upload(
    d: &mut Daemon,
    caps: &[Capture],
    wires: &[Vec<u8>],
    passes: u64,
    schedule: Schedule,
    t0: Instant,
) -> Result<(Vec<f64>, Instant, f64, f64), String> {
    let pid = d.child.id();
    let conns = &mut d.conns;
    std::thread::scope(|s| {
        let mut senders = Vec::new();
        let mut readers = Vec::new();
        for (conn, (cap, wire)) in conns.iter_mut().zip(caps.iter().zip(wires)) {
            let total = cap.len() * passes;
            let Conn { sock, rx } = conn;
            let sock: &TcpStream = sock;
            senders.push(s.spawn(move || drive(sock, wire, total, schedule, t0)));
            readers.push(s.spawn(move || receive(sock, rx)));
        }
        std::thread::sleep(t0.saturating_duration_since(Instant::now()));
        let cpu0 = procfs::process_cpu_s(pid);
        let half = schedule.sample_due(caps[0].len() * passes / 2);
        std::thread::sleep((t0 + half).saturating_duration_since(Instant::now()));
        let threads = procfs::status_field(Some(pid), "Threads");
        let mut lateness = Vec::new();
        for h in senders {
            lateness.extend(h.join().expect("generator thread panicked")?);
        }
        let mut ended = t0;
        for h in readers {
            ended = ended.max(h.join().expect("reader thread panicked")?);
        }
        let cpu_s = procfs::process_cpu_s(pid)? - cpu0?;
        Ok((lateness, ended, cpu_s, threads?))
    })
}

/// Runs the live workload for `seconds` of upload schedule.
pub fn run(caps: &[Capture], daemon: &Path, seconds: f64) -> Result<Timed, String> {
    let wires: Vec<Vec<u8>> = caps.iter().map(Capture::wire_bytes).collect();
    let rate = PACE * SAMPLE_RATE_HZ;
    let schedule = Schedule {
        piece: UPLOAD_PIECE_SAMPLES,
        rate,
    };
    // Whole passes of every stream, the same count on each: the failure
    // share of a run is then fixed whatever its length.
    let passes = caps
        .iter()
        .map(|c| ((seconds * rate) as u64 / c.len()).max(1))
        .min()
        .expect("live256 has two streams");

    let mut setups = Vec::with_capacity(SETUPS);
    let mut d = None;
    for i in 0..SETUPS {
        let (started, setup_s) = start(daemon, caps)?;
        setups.push(setup_s);
        if i + 1 < SETUPS {
            started.stop();
        } else {
            d = Some(started);
        }
    }
    let mut d = d.expect("SETUPS > 0");
    let pid = d.child.id();

    let t0 = Instant::now() + Duration::from_millis(20);
    let timed = upload(&mut d, caps, &wires, passes, schedule, t0);
    // Read the daemon's own view before stopping it, whatever the upload did.
    let doc = scrape(d.metrics);
    let rss_mb = procfs::status_field(Some(pid), "VmHWM").map(|kb| kb / 1024.0);
    let conns = std::mem::take(&mut d.conns);
    d.stop();
    let (lateness, ended, cpu_s, threads) = timed?;
    let doc = doc?;
    let rss_mb = rss_mb?;

    let mut score = Score::default();
    let mut problems = Vec::new();
    let mut failures = BTreeSet::new();
    let groups = passes.div_ceil(LATENCY_GROUP_LOOPS);
    let mut latency = vec![Vec::new(); groups as usize];
    let mut samples = 0u64;
    for (conn, cap) in conns.iter().zip(caps) {
        let sent = cap.len() * passes;
        samples += sent;
        let mut t = transcript(&conn.rx, &cap.name, sent, t0);
        let truth = Truth::of(cap);
        let frames: Vec<Frame> = t.frames.iter().map(|(f, _)| f.clone()).collect();
        if let Err(e) = check_order(&frames) {
            problems.push(format!("{}: {e}", cap.name));
        }
        let mut notes = BTreeSet::new();
        score.add(&truth.score(&frames, passes, &mut notes));
        failures.extend(notes.iter().map(|f| f.describe(cap)));
        for (f, at) in &t.frames {
            let last = truth.last_sample(f);
            let ms = schedule.latency_ms(last, *at);
            if ms < 0.0 {
                problems.push(format!("{}: frame {} latency {ms} ms", cap.name, f.index));
            }
            let group = (last / cap.len() / LATENCY_GROUP_LOOPS).min(groups - 1);
            latency[group as usize].push(ms);
        }
        problems.append(&mut t.problems);
    }
    let wall_s = ended.duration_since(t0).as_secs_f64();
    let (p50, p90) = pass_p50_p90(&latency)?;
    let lat = Summary::of(&latency.concat()).ok_or("no frames received")?;
    let radio_s = samples as f64 / SAMPLE_RATE_HZ;
    let msps = samples as f64 / wall_s / 1e6;
    let e2e = vec![
        metric("frame_p50_ms", p50, "ms"),
        metric("cores_per_channel", cpu_s / radio_s, "cores"),
        metric("replay_msps", msps, "Msamples/s"),
        metric("setup_s", median(&setups), "s"),
    ];
    let ch = |name: &str, labels: &str| series(&doc, &format!("{name}{{channel=\"0\"{labels}}}"));
    let stage = |s: &str| {
        ch(
            "netscatterd_channel_stage_seconds",
            &format!(",stage=\"{s}\",quantile=\"0.5\""),
        )
    };
    let report: Vec<Metric> =
        vec![
        metric(
            "serve.ingest_to_emit_p50_ms",
            series(&doc, "netscatterd_frame_latency_seconds{quantile=\"0.5\"}")? * 1e3,
            "ms",
        ),
        metric("serve.threads", threads, "count"),
        metric("serve.peak_rss_mb", rss_mb, "MB"),
        metric(
            "ring.occupancy_hwm",
            ch("netscatterd_channel_ring_occupancy_hwm", "")?,
            "chunks",
        ),
        metric(
            "ring.full_events",
            ch("netscatterd_channel_ring_full_events_total", "")?,
            "count",
        ),
        metric(
            "ring.block_wait_ms",
            series(
                &doc,
                "netscatterd_channel_stage_seconds_sum{channel=\"0\",stage=\"ring_block_wait\"}",
            )? * 1e3,
            "ms",
        ),
        metric(
            "detect.anchor_samples_p50",
            ch("netscatterd_channel_gate_to_anchor_samples", ",quantile=\"0.5\"")?,
            "samples",
        ),
        metric("engine.queue_wait_p50_ms", stage("queue_wait")? * 1e3, "ms"),
        metric("engine.decode_p50_ms", stage("decode")? * 1e3, "ms"),
    ];
    let late = Summary::of(&lateness).ok_or("no pieces sent")?;
    let mut stamp = vec![
        ("passes".to_string(), Json::Num(passes as f64)),
        ("pace".to_string(), Json::Num(PACE)),
        (
            "setups_s".to_string(),
            Json::Array(setups.iter().map(|v| Json::Num(*v)).collect()),
        ),
        ("generator_late_p50_ms".to_string(), Json::Num(late.p50)),
        (
            "generator_late_max_ms".to_string(),
            Json::Num(lateness.iter().copied().fold(0.0, f64::max)),
        ),
        ("served_wall_s".to_string(), Json::Num(wall_s)),
        ("daemon_cpu_s".to_string(), Json::Num(cpu_s)),
    ];
    stamp.extend(frame_stamp(&lat));
    stamp.push(("frame_p90_group_median_ms".to_string(), Json::Num(p90)));
    Ok(Timed {
        score,
        problems,
        e2e,
        report,
        msps,
        serving_cpu_s: cpu_s,
        samples_served: samples,
        stamp,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_addresses_come_from_its_listening_lines() {
        let line =
            "2026-10-18T01:41:21.100Z INFO  netscatterd: ingest listening addr=127.0.0.1:45017";
        assert_eq!(
            logged_addr(line, "ingest listening"),
            Some("127.0.0.1:45017".parse().unwrap())
        );
        assert_eq!(logged_addr(line, "metrics listening"), None);
    }

    #[test]
    fn series_lookup_wants_the_exact_label_set() {
        let doc = "x_sum{channel=\"0\"} 2.5\nx{channel=\"0\",quantile=\"0.5\"} 0.25\n";
        assert_eq!(series(doc, "x{channel=\"0\",quantile=\"0.5\"}"), Ok(0.25));
        assert_eq!(series(doc, "x_sum{channel=\"0\"}"), Ok(2.5));
        assert!(series(doc, "x{channel=\"1\"}").is_err());
    }
}
