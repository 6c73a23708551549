//! Generated request streams and the seeded generators behind them.
//!
//! Generation is *open-loop*: arrival times are drawn once, up front, from
//! the spec's arrival process — they do not react to how fast the server
//! drains the queue. That is what makes policy scorecards comparable: two
//! governors are offered bit-identical load.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::spec::{TrafficErrors, TrafficShape, TrafficSpec};

/// One request offered to the device.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Arrival instant (ms from scenario start).
    pub arrival_ms: f64,
    /// Work amount, expressed as service time at the device's reference
    /// (maximum) frequency (ms). Lower clocks stretch it proportionally.
    pub work_ms: f64,
    /// Absolute completion deadline (ms from scenario start), if any.
    pub deadline_ms: Option<f64>,
}

impl Request {
    /// Whether a completion at `t_ms` misses this request's deadline.
    pub fn missed_at(&self, t_ms: f64) -> bool {
        self.deadline_ms.is_some_and(|d| t_ms > d)
    }
}

/// A fully generated scenario: the spec's name plus its request stream,
/// sorted by arrival time.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficTrace {
    /// Scenario name (from the spec).
    pub name: String,
    /// Shape tag (from the spec).
    pub shape: String,
    /// Generator seed the stream was drawn under.
    pub seed: u64,
    /// The offered requests, ascending by `arrival_ms`.
    pub requests: Vec<Request>,
}

impl TrafficTrace {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Last arrival instant (ms), 0 for an empty trace.
    pub fn last_arrival_ms(&self) -> f64 {
        self.requests.last().map_or(0.0, |r| r.arrival_ms)
    }

    /// How many requests carry a deadline.
    pub fn with_deadline(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| r.deadline_ms.is_some())
            .count()
    }
}

/// Exponential inter-arrival sample for `rate_hz` (ms). `f64::INFINITY`
/// when the rate is zero (no arrivals in this regime).
fn exp_interarrival_ms(rng: &mut ChaCha8Rng, rate_hz: f64) -> f64 {
    if rate_hz <= 0.0 {
        return f64::INFINITY;
    }
    // Inverse-CDF sampling; 1-u keeps the argument in (0, 1].
    let u: f64 = rng.gen();
    -(1.0 - u).ln() * 1_000.0 / rate_hz
}

/// Per-request work sample: uniform jitter of relative half-width
/// `jitter` around `mean_ms`, floored away from zero.
fn sample_work_ms(rng: &mut ChaCha8Rng, mean_ms: f64, jitter: f64) -> f64 {
    if jitter <= 0.0 {
        return mean_ms;
    }
    let u: f64 = rng.gen_range(-1.0..1.0);
    (mean_ms * (1.0 + jitter * u)).max(0.05)
}

impl TrafficSpec {
    /// Generate the request stream this spec describes. Validates first;
    /// the stream is a pure function of the spec (seed included).
    pub fn generate(&self) -> Result<TrafficTrace, TrafficErrors> {
        self.validate()?;
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut requests = match &self.shape {
            TrafficShape::Steady { rate_hz } => self.poisson_arrivals(&mut rng, *rate_hz),
            TrafficShape::Bursty {
                burst_rate_hz,
                gap_rate_hz,
                burst_ms,
                gap_ms,
            } => self.bursty_arrivals(&mut rng, *burst_rate_hz, *gap_rate_hz, *burst_ms, *gap_ms),
            TrafficShape::Diurnal {
                peak_rate_hz,
                trough_rate_hz,
                period_ms,
            } => self.diurnal_arrivals(&mut rng, *peak_rate_hz, *trough_rate_hz, *period_ms),
            TrafficShape::Gaming {
                frame_rate_hz,
                heavy_every,
                heavy_factor,
            } => self.gaming_arrivals(&mut rng, *frame_rate_hz, *heavy_every, *heavy_factor),
            TrafficShape::Deadline {
                rate_hz,
                deadline_ms,
            } => {
                let mut reqs = self.poisson_arrivals(&mut rng, *rate_hz);
                for r in &mut reqs {
                    r.deadline_ms = Some(r.arrival_ms + deadline_ms);
                }
                reqs
            }
        };
        // Generic slack-based deadlines for shapes without an intrinsic
        // deadline rule.
        if let Some(slack) = self.deadline_slack {
            if !matches!(
                self.shape,
                TrafficShape::Gaming { .. } | TrafficShape::Deadline { .. }
            ) {
                for r in &mut requests {
                    r.deadline_ms = Some(r.arrival_ms + slack * r.work_ms);
                }
            }
        }
        Ok(TrafficTrace {
            name: self.name.clone(),
            shape: self.shape.kind().to_string(),
            seed: self.seed,
            requests,
        })
    }

    fn poisson_arrivals(&self, rng: &mut ChaCha8Rng, rate_hz: f64) -> Vec<Request> {
        let mut requests = Vec::new();
        let mut t = 0.0;
        loop {
            t += exp_interarrival_ms(rng, rate_hz);
            if t >= self.duration_ms {
                break;
            }
            requests.push(Request {
                arrival_ms: t,
                work_ms: sample_work_ms(rng, self.work_ms, self.work_jitter),
                deadline_ms: None,
            });
        }
        requests
    }

    fn bursty_arrivals(
        &self,
        rng: &mut ChaCha8Rng,
        burst_rate_hz: f64,
        gap_rate_hz: f64,
        burst_ms: f64,
        gap_ms: f64,
    ) -> Vec<Request> {
        let cycle_ms = burst_ms + gap_ms;
        let mut requests = Vec::new();
        let mut t: f64 = 0.0;
        while t < self.duration_ms {
            // The cycle starts with a burst; the gap follows.
            let phase = t.rem_euclid(cycle_ms);
            let (rate, window_end) = if phase < burst_ms {
                (burst_rate_hz, t - phase + burst_ms)
            } else {
                (gap_rate_hz, t - phase + cycle_ms)
            };
            let dt = exp_interarrival_ms(rng, rate);
            if t + dt >= window_end {
                // Crossed into the next window: the exponential is
                // memoryless, so resampling at the new rate is exact.
                t = window_end;
                continue;
            }
            t += dt;
            if t >= self.duration_ms {
                break;
            }
            requests.push(Request {
                arrival_ms: t,
                work_ms: sample_work_ms(rng, self.work_ms, self.work_jitter),
                deadline_ms: None,
            });
        }
        requests
    }

    fn diurnal_arrivals(
        &self,
        rng: &mut ChaCha8Rng,
        peak_rate_hz: f64,
        trough_rate_hz: f64,
        period_ms: f64,
    ) -> Vec<Request> {
        // Non-homogeneous Poisson by thinning against the peak rate. The
        // cycle starts at the trough (night) and peaks half a period in.
        let rate_at = |t_ms: f64| {
            let phase = (t_ms / period_ms) * std::f64::consts::TAU;
            trough_rate_hz + (peak_rate_hz - trough_rate_hz) * 0.5 * (1.0 - phase.cos())
        };
        let mut requests = Vec::new();
        let mut t = 0.0;
        loop {
            t += exp_interarrival_ms(rng, peak_rate_hz);
            if t >= self.duration_ms {
                break;
            }
            let keep: f64 = rng.gen();
            if keep * peak_rate_hz >= rate_at(t) {
                continue;
            }
            requests.push(Request {
                arrival_ms: t,
                work_ms: sample_work_ms(rng, self.work_ms, self.work_jitter),
                deadline_ms: None,
            });
        }
        requests
    }

    fn gaming_arrivals(
        &self,
        rng: &mut ChaCha8Rng,
        frame_rate_hz: f64,
        heavy_every: u64,
        heavy_factor: f64,
    ) -> Vec<Request> {
        let frame_ms = 1_000.0 / frame_rate_hz;
        let budget = self.deadline_slack.map_or(frame_ms, |s| s * self.work_ms);
        let mut requests = Vec::new();
        let mut frame: u64 = 0;
        loop {
            let nominal = frame as f64 * frame_ms;
            if nominal >= self.duration_ms {
                break;
            }
            // Frame-paced with a small (±10 % of the interval) jitter;
            // arrivals never precede the scenario start.
            let jitter: f64 = rng.gen_range(-0.1..0.1) * frame_ms;
            let arrival = (nominal + jitter).max(0.0);
            let heavy = heavy_every > 0 && frame % heavy_every == heavy_every - 1;
            let mut work = sample_work_ms(rng, self.work_ms, self.work_jitter);
            if heavy {
                work *= heavy_factor;
            }
            requests.push(Request {
                arrival_ms: arrival,
                work_ms: work,
                // The frame budget is the deadline: a late frame is a
                // dropped frame.
                deadline_ms: Some(arrival + budget),
            });
            frame += 1;
        }
        requests.sort_by(|a, b| a.arrival_ms.partial_cmp(&b.arrival_ms).unwrap());
        requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TrafficShape;

    fn spec(shape: TrafficShape) -> TrafficSpec {
        TrafficSpec {
            name: shape.kind().to_string(),
            shape,
            duration_ms: 5_000.0,
            seed: 42,
            ..TrafficSpec::default()
        }
    }

    fn all_shapes() -> Vec<TrafficSpec> {
        vec![
            spec(TrafficShape::Steady { rate_hz: 80.0 }),
            spec(TrafficShape::Bursty {
                burst_rate_hz: 150.0,
                gap_rate_hz: 4.0,
                burst_ms: 260.0,
                gap_ms: 420.0,
            }),
            spec(TrafficShape::Diurnal {
                peak_rate_hz: 120.0,
                trough_rate_hz: 5.0,
                period_ms: 2_000.0,
            }),
            spec(TrafficShape::Gaming {
                frame_rate_hz: 60.0,
                heavy_every: 48,
                heavy_factor: 3.0,
            }),
            spec(TrafficShape::Deadline {
                rate_hz: 40.0,
                deadline_ms: 25.0,
            }),
        ]
    }

    #[test]
    fn every_shape_generates_a_sorted_bounded_stream() {
        for s in all_shapes() {
            let trace = s.generate().unwrap();
            assert!(!trace.is_empty(), "{} generated nothing", s.name);
            let mut last = 0.0;
            for r in &trace.requests {
                assert!(r.arrival_ms >= last, "{}: unsorted arrivals", s.name);
                assert!(r.arrival_ms < s.duration_ms, "{}: arrival past end", s.name);
                assert!(r.work_ms > 0.0);
                last = r.arrival_ms;
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for s in all_shapes() {
            let a = s.generate().unwrap();
            let b = s.generate().unwrap();
            assert_eq!(a, b, "{}: same seed must reproduce", s.name);
            let reseeded = TrafficSpec {
                seed: 43,
                ..s.clone()
            }
            .generate()
            .unwrap();
            assert_ne!(
                a.requests, reseeded.requests,
                "{}: different seed must differ",
                s.name
            );
        }
    }

    #[test]
    fn steady_rate_is_approximately_honoured() {
        let s = spec(TrafficShape::Steady { rate_hz: 100.0 });
        let trace = s.generate().unwrap();
        // 100 Hz over 5 s ⇒ ~500 arrivals; Poisson 5σ ≈ 112.
        assert!(
            (trace.len() as f64 - 500.0).abs() < 120.0,
            "got {} arrivals",
            trace.len()
        );
    }

    #[test]
    fn bursty_concentrates_arrivals_in_bursts() {
        let s = spec(TrafficShape::Bursty {
            burst_rate_hz: 150.0,
            gap_rate_hz: 4.0,
            burst_ms: 260.0,
            gap_ms: 420.0,
        });
        let trace = s.generate().unwrap();
        let cycle = 680.0;
        let in_burst = trace
            .requests
            .iter()
            .filter(|r| r.arrival_ms.rem_euclid(cycle) < 260.0)
            .count();
        assert!(
            in_burst as f64 > 0.85 * trace.len() as f64,
            "{in_burst} of {} in bursts",
            trace.len()
        );
    }

    #[test]
    fn diurnal_peak_outweighs_trough() {
        let s = spec(TrafficShape::Diurnal {
            peak_rate_hz: 120.0,
            trough_rate_hz: 5.0,
            period_ms: 2_000.0,
        });
        let trace = s.generate().unwrap();
        // Peak half of each cycle is [500, 1500) of the 2 s period.
        let peak_half = trace
            .requests
            .iter()
            .filter(|r| {
                let phase = r.arrival_ms.rem_euclid(2_000.0);
                (500.0..1_500.0).contains(&phase)
            })
            .count();
        assert!(
            peak_half as f64 > 0.7 * trace.len() as f64,
            "{peak_half} of {}",
            trace.len()
        );
    }

    #[test]
    fn gaming_paces_frames_and_marks_heavy_ones() {
        let s = spec(TrafficShape::Gaming {
            frame_rate_hz: 60.0,
            heavy_every: 10,
            heavy_factor: 3.0,
        });
        let trace = s.generate().unwrap();
        // 60 fps over 5 s ⇒ 300 frames exactly (frame pacing, not Poisson).
        assert_eq!(trace.len(), 300);
        assert_eq!(trace.with_deadline(), trace.len());
        let heavy = trace
            .requests
            .iter()
            .filter(|r| r.work_ms > 2.0 * s.work_ms)
            .count();
        assert_eq!(heavy, 30, "every 10th frame is heavy");
    }

    #[test]
    fn deadline_shape_stamps_absolute_offsets() {
        let s = spec(TrafficShape::Deadline {
            rate_hz: 40.0,
            deadline_ms: 25.0,
        });
        let trace = s.generate().unwrap();
        assert_eq!(trace.with_deadline(), trace.len());
        for r in &trace.requests {
            assert!((r.deadline_ms.unwrap() - r.arrival_ms - 25.0).abs() < 1e-9);
        }
    }

    #[test]
    fn slack_deadlines_scale_with_sampled_work() {
        let s = TrafficSpec {
            deadline_slack: Some(6.0),
            ..spec(TrafficShape::Steady { rate_hz: 50.0 })
        };
        let trace = s.generate().unwrap();
        for r in &trace.requests {
            let d = r.deadline_ms.expect("slack stamps deadlines");
            assert!((d - r.arrival_ms - 6.0 * r.work_ms).abs() < 1e-9);
        }
    }

    #[test]
    fn missed_at_respects_the_deadline() {
        let r = Request {
            arrival_ms: 10.0,
            work_ms: 5.0,
            deadline_ms: Some(40.0),
        };
        assert!(!r.missed_at(39.9));
        assert!(r.missed_at(40.1));
        let no_deadline = Request {
            deadline_ms: None,
            ..r
        };
        assert!(!no_deadline.missed_at(1e9));
    }

    #[test]
    fn invalid_spec_refuses_to_generate() {
        let s = TrafficSpec {
            duration_ms: 0.0,
            ..spec(TrafficShape::Steady { rate_hz: 10.0 })
        };
        assert!(s.generate().is_err());
    }
}
