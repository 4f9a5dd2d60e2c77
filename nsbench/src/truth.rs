//! The ground-truth checker: matches every decoded frame to the round the
//! synthesizer offered and compares every device's bits with what it sent.

use crate::inputs::{Capture, Round};
use netscatter_gateway::DecodedPacket;

/// A decoded frame as the checker sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Sequence number in stream order.
    pub index: u64,
    /// Absolute sample index the decoder anchored the round at.
    pub start: u64,
    /// Decoded devices: (chirp bin, payload bits).
    pub devices: Vec<(usize, Vec<bool>)>,
}

impl From<&DecodedPacket> for Frame {
    fn from(p: &DecodedPacket) -> Self {
        Self {
            index: p.index as u64,
            start: p.start_sample,
            devices: p
                .round
                .devices
                .iter()
                .map(|d| (d.chirp_bin, d.bits.clone()))
                .collect(),
        }
    }
}

/// Outcome counts of one scored stream. A failed operation is a missed
/// round, a garbled round (any device's bits wrong, missing or extra) or a
/// spurious frame (one that matches no offered round).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Score {
    /// Rounds offered.
    pub offered: u64,
    /// Rounds decoded with every device's bits right.
    pub clean: u64,
    /// Rounds matched by a frame whose bits differ from the truth.
    pub garbled: u64,
    /// Rounds no frame matched.
    pub missed: u64,
    /// Frames that matched no offered round (or a round already matched).
    pub spurious: u64,
    /// Payload bits wrong, missing or extra over all matched rounds.
    pub bit_errors: u64,
}

/// One failed operation, located within the capture (not the pass), so the
/// same fault on every pass reads the same.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Failure {
    /// A matched round whose bits are wrong: its true start, where it was
    /// anchored, and the bit errors.
    Garbled {
        /// True start of the round.
        truth: u64,
        /// Where the decoder anchored it.
        anchored: u64,
        /// Bits wrong, missing or extra.
        bit_errors: u64,
    },
    /// An offered round no frame matched.
    Missed {
        /// True start of the round.
        truth: u64,
    },
    /// A frame matching no round: where it was anchored, and its devices.
    Spurious {
        /// Where the decoder anchored it.
        anchored: u64,
        /// Devices the frame reported.
        devices: usize,
    },
}

impl Score {
    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.garbled + self.missed + self.spurious
    }

    /// Adds `other`'s counts into `self`.
    pub fn add(&mut self, other: &Score) {
        self.offered += other.offered;
        self.clean += other.clean;
        self.garbled += other.garbled;
        self.missed += other.missed;
        self.spurious += other.spurious;
        self.bit_errors += other.bit_errors;
    }
}

/// The truth of one capture replayed back to back, pass after pass.
pub struct Truth<'a> {
    rounds: &'a [Round],
    bins: &'a [usize],
    period: u64,
    round_samples: u64,
}

impl<'a> Truth<'a> {
    /// The truth of `cap` looped with period `cap.len()`.
    pub fn of(cap: &'a Capture) -> Self {
        Self {
            rounds: &cap.truth,
            bins: &cap.bins,
            period: cap.len(),
            round_samples: cap.round_samples,
        }
    }

    /// The (pass, round) whose true start lies within half a round of
    /// `start`, if any.
    pub fn locate(&self, start: u64) -> Option<(u64, usize)> {
        let (pass, offset) = (start / self.period, start % self.period);
        let i = self.rounds.partition_point(|r| r.start <= offset);
        [i.checked_sub(1), Some(i)]
            .into_iter()
            .flatten()
            .filter(|&j| j < self.rounds.len())
            .find(|&j| self.rounds[j].start.abs_diff(offset) <= self.round_samples / 2)
            .map(|j| (pass, j))
    }

    /// Absolute index of the last sample of the round `frame` decodes: the
    /// true round's when the frame matches one, else the frame's own span.
    pub fn last_sample(&self, frame: &Frame) -> u64 {
        match self.locate(frame.start) {
            Some((pass, j)) => pass * self.period + self.rounds[j].start + self.round_samples - 1,
            None => frame.start + self.round_samples - 1,
        }
    }

    /// Scores `frames` decoded from `passes` back-to-back passes of the
    /// capture, adding every distinct failure to `notes`.
    pub fn score(
        &self,
        frames: &[Frame],
        passes: u64,
        notes: &mut std::collections::BTreeSet<Failure>,
    ) -> Score {
        let per_pass = self.rounds.len();
        let mut matched = vec![false; passes as usize * per_pass];
        let mut score = Score {
            offered: matched.len() as u64,
            ..Score::default()
        };
        for frame in frames {
            let spurious = Failure::Spurious {
                anchored: frame.start % self.period,
                devices: frame.devices.len(),
            };
            let Some((pass, j)) = self.locate(frame.start).filter(|&(p, _)| p < passes) else {
                score.spurious += 1;
                notes.insert(spurious);
                continue;
            };
            let slot = &mut matched[pass as usize * per_pass + j];
            if *slot {
                score.spurious += 1;
                notes.insert(spurious);
                continue;
            }
            *slot = true;
            let errors = self.bit_errors(&self.rounds[j], frame);
            score.bit_errors += errors;
            if errors == 0 {
                score.clean += 1;
            } else {
                score.garbled += 1;
                notes.insert(Failure::Garbled {
                    truth: self.rounds[j].start,
                    anchored: frame.start % self.period,
                    bit_errors: errors,
                });
            }
        }
        for (k, _) in matched.iter().enumerate().filter(|(_, m)| !**m) {
            score.missed += 1;
            notes.insert(Failure::Missed {
                truth: self.rounds[k % per_pass].start,
            });
        }
        score
    }

    /// Bits wrong, missing or extra in `frame` against `round`.
    fn bit_errors(&self, round: &Round, frame: &Frame) -> u64 {
        let mut errors = 0u64;
        let mut used = vec![false; frame.devices.len()];
        for (bin, sent) in self.bins.iter().zip(&round.sent) {
            let Some(sent) = sent else { continue };
            match frame.devices.iter().position(|(b, _)| b == bin) {
                Some(k) => {
                    used[k] = true;
                    let got = &frame.devices[k].1;
                    let differing = sent.iter().zip(got).filter(|(a, b)| a != b).count();
                    errors += (differing + sent.len().abs_diff(got.len())) as u64;
                }
                None => errors += sent.len() as u64,
            }
        }
        for (k, (_, bits)) in frame.devices.iter().enumerate() {
            if !used[k] {
                errors += bits.len().max(1) as u64;
            }
        }
        errors
    }
}

impl Failure {
    /// One line naming the failure within `cap`, at sample indices of the
    /// capture as synthesized.
    pub fn describe(&self, cap: &Capture) -> String {
        let name = &cap.name;
        let at = |x: &u64| cap.synthesized_index(*x);
        match self {
            Failure::Garbled {
                truth,
                anchored,
                bit_errors,
            } => format!(
                "{name}: round at {} anchored at {}, {bit_errors} bit errors",
                at(truth),
                at(anchored)
            ),
            Failure::Missed { truth } => format!("{name}: round at {} missed", at(truth)),
            Failure::Spurious { anchored, devices } => format!(
                "{name}: spurious frame at {} with {devices} devices",
                at(anchored)
            ),
        }
    }
}

/// Checks that frames carry consecutive indices from 0 in stream order.
pub fn check_order(frames: &[Frame]) -> Result<(), String> {
    for (i, pair) in frames.windows(2).enumerate() {
        if pair[1].start <= pair[0].start {
            return Err(format!(
                "frame {} does not follow frame {} in stream order",
                i + 1,
                i
            ));
        }
    }
    match frames
        .iter()
        .enumerate()
        .find(|(i, f)| f.index != *i as u64)
    {
        Some((i, f)) => Err(format!("frame at position {i} carries index {}", f.index)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(s: &str) -> Vec<bool> {
        s.chars().map(|c| c == '1').collect()
    }

    /// Two rounds of two devices on bins 10 and 20, period 1000, rounds of
    /// 100 samples.
    fn truth_parts() -> (Vec<Round>, Vec<usize>) {
        (
            vec![
                Round {
                    start: 200,
                    sent: vec![Some(bits("101")), Some(bits("011"))],
                },
                Round {
                    start: 600,
                    sent: vec![Some(bits("111")), None],
                },
            ],
            vec![10, 20],
        )
    }

    fn truth<'a>(rounds: &'a [Round], bins: &'a [usize]) -> Truth<'a> {
        Truth {
            rounds,
            bins,
            period: 1000,
            round_samples: 100,
        }
    }

    fn frame(index: u64, start: u64, devices: &[(usize, &str)]) -> Frame {
        Frame {
            index,
            start,
            devices: devices.iter().map(|&(b, s)| (b, bits(s))).collect(),
        }
    }

    #[test]
    fn frames_match_within_half_a_round_on_every_pass() {
        let (rounds, bins) = truth_parts();
        let t = truth(&rounds, &bins);
        assert_eq!(t.locate(200), Some((0, 0)));
        assert_eq!(t.locate(150), Some((0, 0)));
        assert_eq!(t.locate(250), Some((0, 0)));
        assert_eq!(t.locate(149), None);
        assert_eq!(t.locate(251), None);
        assert_eq!(t.locate(1588), Some((1, 1)));
        assert_eq!(t.locate(2212), Some((2, 0)));
    }

    #[test]
    fn clean_garbled_missed_and_spurious_are_told_apart() {
        let (rounds, bins) = truth_parts();
        let t = truth(&rounds, &bins);
        let frames = [
            // pass 0: round 0 clean (anchor 3 samples late), round 1 has a
            // device that never sent, and a zero-device frame follows.
            frame(0, 203, &[(10, "101"), (20, "011")]),
            frame(1, 600, &[(10, "111"), (20, "000")]),
            frame(2, 700, &[]),
            // pass 1: round 0 has one flipped bit, round 1 is missed.
            frame(3, 1200, &[(10, "100"), (20, "011")]),
        ];
        let mut notes = std::collections::BTreeSet::new();
        let s = t.score(&frames, 2, &mut notes);
        assert_eq!(s.offered, 4);
        assert_eq!(s.clean, 1);
        assert_eq!(s.garbled, 2);
        assert_eq!(s.missed, 1);
        assert_eq!(s.spurious, 1);
        assert_eq!(s.bit_errors, 3 + 1);
        assert_eq!(s.failed(), 4);
        let notes: Vec<Failure> = notes.into_iter().collect();
        assert_eq!(
            notes,
            vec![
                Failure::Garbled {
                    truth: 200,
                    anchored: 200,
                    bit_errors: 1
                },
                Failure::Garbled {
                    truth: 600,
                    anchored: 600,
                    bit_errors: 3
                },
                Failure::Missed { truth: 600 },
                Failure::Spurious {
                    anchored: 700,
                    devices: 0
                },
            ]
        );
    }

    #[test]
    fn a_second_frame_on_one_round_is_spurious_and_a_frame_past_the_passes_too() {
        let (rounds, bins) = truth_parts();
        let t = truth(&rounds, &bins);
        let frames = [
            frame(0, 200, &[(10, "101"), (20, "011")]),
            frame(1, 210, &[(10, "101"), (20, "011")]),
            frame(2, 600, &[(10, "111")]),
            frame(3, 1200, &[(10, "101"), (20, "011")]),
        ];
        let s = t.score(&frames, 1, &mut std::collections::BTreeSet::new());
        assert_eq!((s.clean, s.spurious, s.missed), (2, 2, 0));
    }

    #[test]
    fn last_sample_follows_the_true_round_not_the_anchor() {
        let (rounds, bins) = truth_parts();
        let t = truth(&rounds, &bins);
        // A frame anchored 12 samples early still ends where the round does.
        assert_eq!(t.last_sample(&frame(0, 1588, &[])), 1000 + 600 + 99);
        // An unmatched frame ends where its own span does.
        assert_eq!(t.last_sample(&frame(0, 420, &[])), 420 + 99);
    }

    #[test]
    fn order_check_wants_consecutive_indices_in_stream_order() {
        assert!(check_order(&[frame(0, 5, &[]), frame(1, 9, &[])]).is_ok());
        assert!(check_order(&[frame(0, 5, &[]), frame(2, 9, &[])]).is_err());
        assert!(check_order(&[frame(0, 9, &[]), frame(1, 5, &[])]).is_err());
        assert!(check_order(&[frame(1, 5, &[])]).is_err());
    }
}
