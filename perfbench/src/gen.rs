//! The seeded report generator. The benchmark derives every input from
//! the workload seed; the program under test receives only the
//! generated reports.
//!
//! Each report is drawn so that exactly one of the four live diagnosis
//! paths of the host rule base (`host_rules_fair`) applies to it:
//!
//! | path | frame rate | buffer | jitter | rule fired |
//! |---|---|---|---|---|
//! | starvation | below 23 | above the 1000-byte cutoff | < 1.25 | `local-cpu-starvation` (adjust-cpu) |
//! | fallback | below 23 | at most the cutoff | < 1.25 | `local-fallback` (adjust-cpu) |
//! | over-achieving | above 27 | any | < 1.25 | `over-achieving` (relax-cpu) |
//! | unhandled | inside 23..27 | any | ≥ 1.25 | `unhandled-violation` |
//!
//! The last path is a real violation of the paper's Example 1 policy
//! (`frame_rate = 25(+2)(-2) AND jitter_rate < 1.25`) that no diagnosis
//! rule claims.
//!
//! The four paths are drawn with equal shares. No measured mix of
//! diagnosis paths exists to copy, so the even split is a stated
//! assumption, not a model of real traffic.

use qos_core::instrument::ViolationReport;

/// The policy every generated report violates.
pub const POLICY: &str = "NotifyQoSViolation";

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// The diagnosis path a generated report takes through the live rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Starvation,
    Fallback,
    OverAchieving,
    Unhandled,
}

impl Path {
    pub const ALL: [Path; 4] = [
        Path::Starvation,
        Path::Fallback,
        Path::OverAchieving,
        Path::Unhandled,
    ];

    /// The rule of `host_rules_fair` that diagnoses this path.
    pub fn rule(self) -> &'static str {
        match self {
            Path::Starvation => "local-cpu-starvation",
            Path::Fallback => "local-fallback",
            Path::OverAchieving => "over-achieving",
            Path::Unhandled => "unhandled-violation",
        }
    }

    /// The live manager's `boost_level` step for this path: +10 per
    /// adjust-cpu, -5 per relax-cpu.
    pub fn boost(self) -> i64 {
        match self {
            Path::Starvation | Path::Fallback => 10,
            Path::OverAchieving => -5,
            Path::Unhandled => 0,
        }
    }

    fn index(self) -> usize {
        match self {
            Path::Starvation => 0,
            Path::Fallback => 1,
            Path::OverAchieving => 2,
            Path::Unhandled => 3,
        }
    }
}

/// One generated violation: the sensor readings a coordinator would
/// gather for it.
#[derive(Debug, Clone, Copy)]
pub struct GenReport {
    pub path: Path,
    pub fps: f64,
    pub jitter: f64,
    pub buffer: f64,
}

impl GenReport {
    /// Draw one report. Each path has an equal share; the readings
    /// inside each path vary with the seed.
    pub fn draw(rng: &mut Rng) -> Self {
        let path = Path::ALL[(rng.next_u64() % Path::ALL.len() as u64) as usize];
        let calm = rng.range(0.0, 1.2);
        let (fps, jitter, buffer) = match path {
            Path::Starvation => (rng.range(5.0, 22.5), calm, rng.range(1500.0, 60_000.0)),
            Path::Fallback => (rng.range(5.0, 22.5), calm, rng.range(0.0, 1000.0)),
            Path::OverAchieving => (rng.range(27.5, 60.0), calm, rng.range(0.0, 60_000.0)),
            Path::Unhandled => (
                rng.range(23.5, 26.5),
                rng.range(1.25, 3.0),
                rng.range(0.0, 60_000.0),
            ),
        };
        GenReport {
            path,
            fps,
            jitter,
            buffer,
        }
    }

    /// The coordinator's notification for this report, in the reading
    /// order of the Example 1 policy's actions.
    pub fn to_report(self, process: &str, at_us: u64, corr: u64) -> ViolationReport {
        ViolationReport {
            policy: POLICY.into(),
            process: process.into(),
            at_us,
            corr,
            readings: vec![
                ("frame_rate".into(), self.fps),
                ("jitter_rate".into(), self.jitter),
                ("buffer_size".into(), self.buffer),
            ],
        }
    }
}

/// A seeded report stream with a running tally of the paths it handed
/// out.
pub struct Gen {
    rng: Rng,
    mix: Mix,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: Rng::new(seed),
            mix: Mix::default(),
        }
    }

    pub fn next_report(&mut self) -> GenReport {
        let r = GenReport::draw(&mut self.rng);
        self.mix.add(r.path);
        r
    }

    pub fn mix(&self) -> Mix {
        self.mix
    }
}

/// Reports per diagnosis path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Mix {
    counts: [u64; 4],
}

impl Mix {
    pub fn add(&mut self, p: Path) {
        self.counts[p.index()] += 1;
    }

    pub fn merge(&mut self, other: Mix) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
    }

    pub fn count(&self, p: Path) -> u64 {
        self.counts[p.index()]
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `boost_level` change the live manager must show for this mix.
    pub fn expected_boost(&self) -> i64 {
        Path::ALL
            .iter()
            .map(|&p| p.boost() * self.count(p) as i64)
            .sum()
    }

    /// `rule=share` for each path, for the run log.
    pub fn shares(&self) -> String {
        let total = self.total().max(1) as f64;
        Path::ALL
            .iter()
            .map(|&p| format!("{}={:.3}", p.rule(), self.count(p) as f64 / total))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Gen::new(7);
        let mut b = Gen::new(7);
        for _ in 0..1000 {
            let (x, y) = (a.next_report(), b.next_report());
            assert_eq!(x.path, y.path);
            assert_eq!(x.fps.to_bits(), y.fps.to_bits());
        }
        assert_eq!(a.mix(), b.mix());
    }

    #[test]
    fn every_path_is_drawn() {
        let mut g = Gen::new(1);
        for _ in 0..1000 {
            g.next_report();
        }
        for p in Path::ALL {
            assert!(g.mix().count(p) > 100, "{p:?} under-drawn");
        }
    }
}
