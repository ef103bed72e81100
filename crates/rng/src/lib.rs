#![warn(missing_docs)]
//! The workspace's one random-number generator: SplitMix64.
//!
//! The paper's NOISE pass adds `rand()/RAND_MAX`; the scheduler needs
//! nothing more than a deterministic uniform stream, so that NOISE,
//! the random workload generators and the fuzz case stream replay
//! bit for bit from a seed. [`Rng`] is that stream; [`splitmix64`] is
//! its step function for callers that keep a bare `u64` state.
//!
//! [`Rng::fill_f64`] draws a block of the same stream at once. The
//! `k`-th step of SplitMix64 from state `s` mixes `s + (k+1)·γ`, so
//! the block's draws are independent of one another; on an x86-64
//! host that reports AVX-512 (F, DQ and VL) the fill computes them in
//! that counter form with 64-bit vector multiplies and exact
//! integer-to-`f64` conversions. Every other host, and any run under
//! miri, takes the sequential [`Rng::next_f64`] loop. Both write the
//! same bits and leave the same state.

/// SplitMix64's increment, γ.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Advances `state` by one SplitMix64 step and returns the next 64
/// random bits.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix(*state)
}

/// SplitMix64's output function.
#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 53 bits of `bits` as a uniform `f64` in `[0, 1)`.
#[inline(always)]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
}

/// The portable block fill: `out.len()` sequential steps.
fn fill_f64_sequential(rng: &mut Rng, out: &mut [f64]) {
    for o in out {
        *o = rng.next_f64();
    }
}

/// The block fill in counter form: draw `k` mixes
/// `state + (k+1)·γ`, and the state advances by `out.len()·γ` once.
/// Every step is a lane-wise wrapping integer operation, so the loop
/// vectorizes; the feature set gives it `vpmullq` and the exact
/// `u64 → f64` conversion. Calling it is sound only on a CPU with all
/// three features, which [`Rng::fill_f64`] detects first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn fill_f64_avx512(state: &mut u64, out: &mut [f64]) {
    let base = *state;
    for (k, o) in (1u64..).zip(out.iter_mut()) {
        *o = unit_f64(mix(base.wrapping_add(k.wrapping_mul(GAMMA))));
    }
    *state = base.wrapping_add((out.len() as u64).wrapping_mul(GAMMA));
}

/// A seeded SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates the stream for `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng {
            state: seed ^ 0x5DEE_CE66_D0F1_5A25,
        }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// A uniform `f64` in `[0, 1)` from 53 mantissa bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Fills `out` with the next `out.len()` draws of
    /// [`Rng::next_f64`], bit for bit, leaving the stream where those
    /// calls would. See the crate docs for the two bodies.
    pub fn fill_f64(&mut self, out: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx512f")
            && std::is_x86_feature_detected!("avx512dq")
            && std::is_x86_feature_detected!("avx512vl")
        {
            // SAFETY: the body is compiled for exactly the three
            // features just detected on this CPU.
            unsafe { fill_f64_avx512(&mut self.state, out) };
            return;
        }
        fill_f64_sequential(self, out);
    }

    /// An integer in `[0, n)`: `next_u64() % n`, with the modulo bias
    /// that implies (negligible for the small `n` in use).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::{fill_f64_sequential, Rng};

    /// The first draws for seeds 0 and 7. Every convergent schedule,
    /// workload graph and recorded digest depends on this stream, so
    /// any change to the generator must fail here.
    #[test]
    fn stream_is_pinned() {
        let draws = |seed, f: fn(&mut Rng) -> String| {
            let mut rng = Rng::seed_from_u64(seed);
            (0..4).map(|_| f(&mut rng)).collect::<Vec<_>>().join(" ")
        };
        let u64s = |r: &mut Rng| format!("{:016x}", r.next_u64());
        let f64s = |r: &mut Rng| format!("{:?}", r.next_f64());
        let below = |r: &mut Rng| r.below(100).to_string();
        let bools = |r: &mut Rng| format!("{}{}", r.gen_bool(0.3) as u8, r.gen_bool(0.3) as u8);
        assert_eq!(
            draws(0, u64s),
            "da3fe1051cacc53f b502107f2f855949 1b88f7dac8f146ff 0aca93a1aee046f4"
        );
        assert_eq!(
            draws(7, u64s),
            "6bec8a86d11a1b0f caa0360763f3e6f6 f752d93f7e2b4d9f 1b4247c8491c7b80"
        );
        assert_eq!(
            draws(0, f64s),
            "0.8525372159462448 0.7070627508651531 0.10755871859959587 0.042153574918189385"
        );
        assert_eq!(
            draws(7, f64s),
            "0.42157808104921235 0.7915071266215388 0.9661079196941219 0.10648010864052704"
        );
        assert_eq!(draws(0, below), "91 33 39 12");
        assert_eq!(draws(7, below), "27 66 59 56");
        assert_eq!(draws(0, bools), "00 11 00 00");
        assert_eq!(draws(7, bools), "00 01 01 00");
    }

    /// `n` draws of `next_f64` from `rng`'s current state.
    fn singles(rng: &Rng, n: usize) -> Vec<u64> {
        let mut r = rng.clone();
        (0..n).map(|_| r.next_f64().to_bits()).collect()
    }

    /// Both block bodies against single draws, for every length up to
    /// 64 (a partial vector at each) and one long row; the next draw
    /// after the fill must continue the stream.
    #[test]
    fn block_fill_equals_single_draws() {
        type Fill = fn(&mut Rng, &mut [f64]);
        let bodies: [(&str, Fill); 2] = [
            ("dispatched", Rng::fill_f64),
            ("sequential", fill_f64_sequential),
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let lens = (0..=64).chain([10_000]);
        for (n, seed) in lens.flat_map(|n| [(n, 0), (n, 7), (n, u64::MAX)]) {
            for (name, fill) in bodies {
                let mut rng = Rng::seed_from_u64(seed);
                let want = singles(&rng, n + 1);
                let mut out = vec![0.0; n];
                fill(&mut rng, &mut out);
                assert_eq!(bits(&out), want[..n], "{name}, n {n}, seed {seed}");
                assert_eq!(rng.next_f64().to_bits(), want[n], "{name}, n {n}");
            }
        }
    }

    /// Fills, single draws of every kind and empty fills interleaved
    /// read one stream.
    #[test]
    fn block_fills_and_single_draws_interleave() {
        let mut rng = Rng::seed_from_u64(3);
        let mut reference = rng.clone();
        for (round, n) in [0, 1, 5, 8, 0, 13, 64, 3].into_iter().enumerate() {
            let mut out = vec![0.0; n];
            rng.fill_f64(&mut out);
            for (k, &x) in out.iter().enumerate() {
                let want = reference.next_f64();
                assert_eq!(x.to_bits(), want.to_bits(), "round {round}, draw {k}");
            }
            assert_eq!(rng.next_u64(), reference.next_u64(), "round {round}");
            assert_eq!(rng.below(10), reference.below(10), "round {round}");
            assert_eq!(rng.gen_bool(0.5), reference.gen_bool(0.5), "round {round}");
        }
    }
}
