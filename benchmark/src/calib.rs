//! Host-speed calibration: timing that survives a shared, drifting box.
//!
//! This box's speed moves with its neighbours — the same binary has run
//! the commit phase at 765 tx/s and, minutes later, at 430 tx/s for
//! minutes on end, CPU time inflating exactly like wall time (no steal is
//! reported: the slowdown is micro-architectural). No estimator over
//! slices survives a regime that outlasts the run, so every timed
//! interval also measures *how fast the host was while it ran*: a fixed
//! arithmetic kernel of the harness's own runs for about half a
//! millisecond every [`PERIOD_NS`] of wall time, uniformly in time. An
//! interval's **speed** is the mean of its samples' rates over
//! [`REFERENCE_RATE`], the rate of this box when quiet; its duration in
//! **reference seconds** is its wall time (less the time the samples
//! took) times that speed. On a quiet box the speed is 1 and nothing
//! changes; on a slowed box the slow-down cancels. Raw wall-clock values
//! and the speed itself are reported next to the scaled ones
//! (`driver.total_tx_per_s`, `driver.host_speed_frac`).
//!
//! The kernel is a double-and-add walk on edwards25519 in extended
//! coordinates over 51-bit limbs — the computation Ed25519 verification
//! spends its time in, and verification is nine tenths of every
//! workload's CPU — written here from the textbook formulas, sharing no
//! code with the product: a change to the product cannot move it. How a
//! neighbour slows a program depends on the program's instruction mix, so
//! the kernel has to have the workload's. Measured on this box over nine
//! minutes in which the product's `PublicKey::verify` rate swung between
//! 3 200/s and 6 000/s, in half-second windows: verify rate over this
//! kernel's rate stayed within 2.0 % (quartiles) / 3.3 % (95th percentile)
//! / 5.9 % (worst) of its median; over a kernel of bare multiplication
//! chains 2.6 % / 8.4 % / 15 %; over hash-map churn 12 % / 19 % / 36 %.

use std::time::Instant;

/// Wall time between two samples.
pub const PERIOD_NS: u64 = 25_000_000;
/// Kernel iterations per second on this box when nothing else runs.
pub const REFERENCE_RATE: f64 = 4.4e6;
/// Iterations per sample (about half a millisecond).
const SAMPLE_ITERS: u32 = 2_000;
/// Samples [`Calibrator::timed`] takes at either end of its interval: a
/// phase that is one long call into the product has no others.
const BRACKET_SAMPLES: usize = 8;

const MASK51: u64 = (1 << 51) - 1;

/// An element of GF(2^255 − 19) on five 51-bit limbs.
type Fe = [u64; 5];

/// Carry-propagate so every limb is below 2^52.
#[inline(always)]
fn fe_weak(mut l: Fe) -> Fe {
    let carry = [l[0] >> 51, l[1] >> 51, l[2] >> 51, l[3] >> 51, l[4] >> 51];
    for limb in &mut l {
        *limb &= MASK51;
    }
    l[0] += carry[4] * 19;
    l[1] += carry[0];
    l[2] += carry[1];
    l[3] += carry[2];
    l[4] += carry[3];
    l
}

#[inline(always)]
fn fe_add(a: &Fe, b: &Fe) -> Fe {
    fe_weak([
        a[0] + b[0],
        a[1] + b[1],
        a[2] + b[2],
        a[3] + b[3],
        a[4] + b[4],
    ])
}

/// `a − b`, adding 2p first so no limb underflows.
#[inline(always)]
fn fe_sub(a: &Fe, b: &Fe) -> Fe {
    fe_weak([
        a[0] + 0xf_ffff_ffff_ffda - b[0],
        a[1] + 0xf_ffff_ffff_fffe - b[1],
        a[2] + 0xf_ffff_ffff_fffe - b[2],
        a[3] + 0xf_ffff_ffff_fffe - b[3],
        a[4] + 0xf_ffff_ffff_fffe - b[4],
    ])
}

#[inline(always)]
fn fe_mul(a: &Fe, b: &Fe) -> Fe {
    let m = |x: u64, y: u64| x as u128 * y as u128;
    let b1_19 = b[1] * 19;
    let b2_19 = b[2] * 19;
    let b3_19 = b[3] * 19;
    let b4_19 = b[4] * 19;
    let c0 = m(a[0], b[0]) + m(a[4], b1_19) + m(a[3], b2_19) + m(a[2], b3_19) + m(a[1], b4_19);
    let mut c1 = m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2_19) + m(a[3], b3_19) + m(a[2], b4_19);
    let mut c2 = m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3_19) + m(a[3], b4_19);
    let mut c3 = m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4_19);
    let mut c4 = m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]);
    c1 += (c0 >> 51) as u64 as u128;
    c2 += (c1 >> 51) as u64 as u128;
    c3 += (c2 >> 51) as u64 as u128;
    c4 += (c3 >> 51) as u64 as u128;
    let carry = (c4 >> 51) as u64;
    let mut out = [
        c0 as u64 & MASK51,
        c1 as u64 & MASK51,
        c2 as u64 & MASK51,
        c3 as u64 & MASK51,
        c4 as u64 & MASK51,
    ];
    out[0] += carry * 19;
    out[1] += out[0] >> 51;
    out[0] &= MASK51;
    out
}

/// `2·d` of edwards25519.
const D2: Fe = [
    0x6_9b94_26b2_f159,
    0x3_5050_762a_dd7a,
    0x3_cf44_c003_8052,
    0x6_738c_c740_7977,
    0x2_406d_9dc5_6dff,
];

/// A point in extended twisted-Edwards coordinates `(X : Y : Z : T)`.
/// The kernel's start point is not on the curve; the formulas cost the
/// same on any input, and only their cost matters here.
#[derive(Clone, Copy)]
struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

impl Point {
    const START: Point = Point {
        x: [3, 1, 4, 1, 5],
        y: [9, 2, 6, 5, 3],
        z: [1, 0, 0, 0, 0],
        t: [5, 8, 9, 7, 9],
    };

    /// Unified addition (add-2008-hwcd-3): nine multiplications.
    #[inline(never)]
    fn add(&self, o: &Point) -> Point {
        let a = fe_mul(&fe_sub(&self.y, &self.x), &fe_sub(&o.y, &o.x));
        let b = fe_mul(&fe_add(&self.y, &self.x), &fe_add(&o.y, &o.x));
        let c = fe_mul(&fe_mul(&self.t, &D2), &o.t);
        let d = fe_mul(&fe_add(&self.z, &self.z), &o.z);
        let (e, f, g, h) = (
            fe_sub(&b, &a),
            fe_sub(&d, &c),
            fe_add(&d, &c),
            fe_add(&b, &a),
        );
        Point {
            x: fe_mul(&e, &f),
            y: fe_mul(&g, &h),
            z: fe_mul(&f, &g),
            t: fe_mul(&e, &h),
        }
    }

    /// Doubling (dbl-2008-hwcd): four squarings, four multiplications.
    #[inline(never)]
    fn double(&self) -> Point {
        let a = fe_mul(&self.x, &self.x);
        let b = fe_mul(&self.y, &self.y);
        let zz = fe_mul(&self.z, &self.z);
        let c = fe_add(&zz, &zz);
        let h = fe_add(&a, &b);
        let xy = fe_add(&self.x, &self.y);
        let e = fe_sub(&h, &fe_mul(&xy, &xy));
        let g = fe_sub(&a, &b);
        let f = fe_add(&c, &g);
        Point {
            x: fe_mul(&e, &f),
            y: fe_mul(&g, &h),
            z: fe_mul(&f, &g),
            t: fe_mul(&e, &h),
        }
    }
}

/// The kernel: an endless double-and-add walk driven by xorshift bits.
struct Kernel {
    acc: Point,
    bits: u64,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            acc: Point::START,
            bits: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// One iteration: a doubling, and an addition on every other one
    /// (decided by the next pseudo-random bit, as a scalar's bits do).
    #[inline(always)]
    fn iterate(&mut self) {
        self.acc = self.acc.double();
        self.bits ^= self.bits << 13;
        self.bits ^= self.bits >> 7;
        self.bits ^= self.bits << 17;
        if self.bits & 1 == 1 {
            self.acc = self.acc.add(&Point::START);
        }
    }
}

/// One measured interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    pub wall_ns: u64,
    /// CPU of every thread of the process over the interval.
    pub cpu_ns: u64,
    /// Part of the interval spent in calibration samples.
    pub spent_ns: u64,
    pub samples: usize,
    /// Mean sample rate over [`REFERENCE_RATE`] (1 = the quiet box).
    speed: f64,
}

impl Timed {
    /// Host speed during the interval relative to the reference.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Wall seconds the work took (calibration samples excluded).
    pub fn wall_work_s(&self) -> f64 {
        (self.wall_ns - self.spent_ns) as f64 / 1e9
    }

    /// Seconds the work would have taken at the reference speed.
    pub fn work_s(&self) -> f64 {
        self.wall_work_s() * self.speed
    }

    /// CPU seconds of the work at the reference speed.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_ns.saturating_sub(self.spent_ns) as f64 / 1e9 * self.speed
    }
}

/// Start of an interval (see [`Calibrator::since`]).
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    t_ns: u64,
    cpu_ns: u64,
    samples: usize,
    rate_sum: f64,
    spent_ns: u64,
}

/// The time-triggered sampler. Callers `poll` it between the steps of
/// whatever they drive; intervals are cut with `mark`/`since` or `timed`.
pub struct Calibrator {
    kernel: Kernel,
    epoch: Instant,
    next_due_ns: u64,
    samples: usize,
    rate_sum: f64,
    spent_ns: u64,
}

impl Calibrator {
    pub fn new() -> Self {
        let mut cal = Calibrator {
            kernel: Kernel::new(),
            epoch: Instant::now(),
            next_due_ns: 0,
            samples: 0,
            rate_sum: 0.0,
            spent_ns: 0,
        };
        cal.sample(); // first run of the kernel's code, outside every interval
        cal
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A clock that stands still while calibration samples run: request
    /// latencies are measured on it.
    pub fn work_clock_ns(&self) -> u64 {
        self.now_ns() - self.spent_ns
    }

    /// Take a sample if one is due.
    #[inline]
    pub fn poll(&mut self) {
        if self.now_ns() >= self.next_due_ns {
            self.sample();
        }
    }

    fn sample(&mut self) {
        let start = self.now_ns();
        for _ in 0..SAMPLE_ITERS {
            self.kernel.iterate();
        }
        std::hint::black_box(&self.kernel.acc);
        let end = self.now_ns();
        let took = (end - start).max(1);
        self.samples += 1;
        self.rate_sum += SAMPLE_ITERS as f64 * 1e9 / took as f64;
        self.spent_ns += took;
        self.next_due_ns = end + PERIOD_NS;
    }

    pub fn mark(&self) -> Mark {
        Mark {
            t_ns: self.now_ns(),
            cpu_ns: crate::sys::process_cpu_ns(),
            samples: self.samples,
            rate_sum: self.rate_sum,
            spent_ns: self.spent_ns,
        }
    }

    /// The interval since `mark`. An interval too short to hold a sample
    /// takes one now.
    pub fn since(&mut self, mark: Mark) -> Timed {
        if self.samples == mark.samples {
            self.sample();
        }
        let samples = self.samples - mark.samples;
        Timed {
            wall_ns: self.now_ns() - mark.t_ns,
            cpu_ns: crate::sys::process_cpu_ns().saturating_sub(mark.cpu_ns),
            spent_ns: self.spent_ns - mark.spent_ns,
            samples,
            speed: (self.rate_sum - mark.rate_sum) / samples as f64 / REFERENCE_RATE,
        }
    }

    /// Rates (iterations per second) of `n` back-to-back samples: how the
    /// reference rate of a box is found (`--calibrate`).
    pub fn sample_rates(&mut self, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| {
                let before = self.rate_sum;
                self.sample();
                self.rate_sum - before
            })
            .collect()
    }

    /// Time `f`, bracketed by [`BRACKET_SAMPLES`] samples at either end
    /// (plus whatever samples `f` polls for in between).
    pub fn timed<T>(&mut self, f: impl FnOnce(&mut Calibrator) -> T) -> (T, Timed) {
        let mark = self.mark();
        for _ in 0..BRACKET_SAMPLES {
            self.sample();
        }
        let out = f(self);
        for _ in 0..BRACKET_SAMPLES {
            self.sample();
        }
        (out, self.since(mark))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_arithmetic_matches_small_cases() {
        assert_eq!(fe_mul(&[3, 0, 0, 0, 0], &[5, 0, 0, 0, 0]), [15, 0, 0, 0, 0]);
        // 2^204 · 2^51 = 2^255 ≡ 19 (mod 2^255 − 19).
        assert_eq!(fe_mul(&[0, 0, 0, 0, 1], &[0, 1, 0, 0, 0]), [19, 0, 0, 0, 0]);
        let x = fe_mul(&[MASK51; 5], &[MASK51; 5]);
        assert!(x.iter().all(|l| *l <= MASK51 + 1));
        assert_eq!(fe_add(&[1, 2, 3, 4, 5], &[5, 4, 3, 2, 1]), [6; 5]);
        assert_eq!(
            canonical(&fe_sub(&[6; 5], &[5, 4, 3, 2, 1])),
            [1, 2, 3, 4, 5]
        );
        // 0 − 1 ≡ p − 1 = 2^255 − 20.
        let minus_one = canonical(&fe_sub(&[0; 5], &[1, 0, 0, 0, 0]));
        assert_eq!(minus_one, [MASK51 - 19, MASK51, MASK51, MASK51, MASK51]);
    }

    /// Fully reduced limbs of `a` (test only: the kernel never needs them).
    fn canonical(a: &Fe) -> Fe {
        let mut l = fe_weak(fe_weak(*a));
        // q = 1 iff the value is >= p; then value − p = value + 19 − 2^255.
        let mut q = (l[0] + 19) >> 51;
        for limb in &l[1..] {
            q = (limb + q) >> 51;
        }
        l[0] += 19 * q;
        for i in 0..4 {
            l[i + 1] += l[i] >> 51;
            l[i] &= MASK51;
        }
        l[4] &= MASK51;
        l
    }

    /// The formulas are edwards25519's: on the standard base point,
    /// doubling and unified addition give the same point (projectively),
    /// and it is not the point they started from.
    #[test]
    fn doubling_agrees_with_addition_on_the_base_point() {
        let b = Point {
            x: [
                1738742601995546,
                1146398526822698,
                2070867633025821,
                562264141797630,
                587772402128613,
            ],
            y: [
                1801439850948184,
                1351079888211148,
                450359962737049,
                900719925474099,
                1801439850948198,
            ],
            z: [1, 0, 0, 0, 0],
            t: [
                1841354044333475,
                16398895984059,
                755974180946558,
                900171276175154,
                1821297809914039,
            ],
        };
        assert_eq!(canonical(&fe_mul(&b.x, &b.y)), canonical(&b.t), "T = X·Y");
        let (d, a) = (b.double(), b.add(&b));
        let same = |u: &Fe, uz: &Fe, v: &Fe, vz: &Fe| {
            canonical(&fe_mul(u, vz)) == canonical(&fe_mul(v, uz))
        };
        assert!(same(&d.x, &d.z, &a.x, &a.z), "x of 2B");
        assert!(same(&d.y, &d.z, &a.y, &a.z), "y of 2B");
        assert!(!same(&d.x, &d.z, &b.x, &b.z), "2B != B");
    }

    #[test]
    fn intervals_subtract_sample_time_and_scale_by_speed() {
        let t = Timed {
            wall_ns: 1_100_000_000,
            cpu_ns: 1_050_000_000,
            spent_ns: 100_000_000,
            samples: 40,
            speed: 0.5,
        };
        assert_eq!(t.wall_work_s(), 1.0);
        assert_eq!(t.work_s(), 0.5);
        assert_eq!(t.cpu_s(), 0.475);
    }

    #[test]
    fn timed_brackets_with_samples_and_work_clock_skips_them() {
        let mut cal = Calibrator::new();
        let before = cal.work_clock_ns();
        let ((), t) = cal.timed(|_| ());
        assert_eq!(t.samples, 2 * BRACKET_SAMPLES);
        assert!(t.spent_ns > 0 && t.spent_ns <= t.wall_ns);
        assert!(t.speed() > 0.0);
        // The samples ran, yet the work clock barely moved.
        assert!(cal.work_clock_ns() - before < t.spent_ns);
        // A sample is not due again right away.
        let n = cal.samples;
        cal.poll();
        assert_eq!(cal.samples, n);
    }
}
