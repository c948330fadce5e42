//! Order statistics over timing samples.

/// The `q`-quantile (0.0..=1.0) of `xs` by linear interpolation between
/// closest ranks; `NaN` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of the positive entries (`NaN` when there are none).
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|x| **x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        return f64::NAN;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Latency samples kept per operation.
const RESERVOIR: usize = 1024;

/// A fixed-size uniform sample of a stream (Vitter's algorithm R). Its
/// memory stays the same however many samples arrive, so the process's
/// peak memory does not depend on how fast the host ran.
pub struct Reservoir {
    seen: u64,
    rng: u64,
    pub samples: Vec<f64>,
}

impl Reservoir {
    pub fn new(seed: u64) -> Reservoir {
        Reservoir {
            seen: 0,
            rng: seed,
            samples: Vec::with_capacity(RESERVOIR),
        }
    }

    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.samples.len() < RESERVOIR {
            self.samples.push(x);
        } else if let Ok(j) = usize::try_from(splitmix64(&mut self.rng) % self.seen) {
            if j < RESERVOIR {
                self.samples[j] = x;
            }
        }
    }
}

/// One step of the splitmix64 generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n=…  q1/median/q3 = …` provenance text for one sample set.
pub fn describe(xs: &[f64]) -> String {
    format!(
        "n={} q1={:.4} median={:.4} q3={:.4} p90={:.4}",
        xs.len(),
        quantile(xs, 0.25),
        median(xs),
        quantile(xs, 0.75),
        quantile(xs, 0.9)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(7);
        for i in 0..100_000 {
            r.push(f64::from(i));
        }
        assert_eq!(r.samples.len(), RESERVOIR);
        let m = median(&r.samples);
        assert!((40_000.0..60_000.0).contains(&m), "median {m}");
    }
}
