//! Queueing-theoretic latency model (the mechanism behind Fig. 1).
//!
//! A latency-critical server is modeled as an M/M/c queue whose service
//! time depends on where its data lives: every request performs some CPU
//! work plus a number of memory accesses, each costing the FMem latency
//! (~73 ns) when the touched page is resident in FMem and the SMem
//! latency (~202 ns) otherwise. As the offered load approaches the
//! capacity `c/S(h)`, the waiting time — and with it the 99th-percentile
//! response time — diverges. This produces exactly the hockey-stick
//! curves of Fig. 1, with the knee moving left as the FMem hit ratio `h`
//! falls.
//!
//! All times are in **seconds** unless a name says otherwise.

/// Service-time model parameters for one workload class.
///
/// `service_time` computes `S(h) = cpu + n·(h·L_f + (1−h)·L_s)` — the
/// expected time to serve one request when a fraction `h` of its memory
/// accesses hit FMem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Pure CPU time per request (seconds).
    pub cpu_secs: f64,
    /// Memory accesses (LLC misses reaching DRAM) per request.
    pub accesses_per_req: f64,
    /// FMem access latency (seconds).
    pub fmem_latency_secs: f64,
    /// SMem access latency (seconds).
    pub smem_latency_secs: f64,
}

impl ServiceModel {
    /// Creates a service model with the paper's measured tier latencies
    /// (73 ns / 202 ns).
    pub fn with_paper_latencies(cpu_secs: f64, accesses_per_req: f64) -> Self {
        Self {
            cpu_secs,
            accesses_per_req,
            fmem_latency_secs: crate::FMEM_LATENCY_NS * 1e-9,
            smem_latency_secs: crate::SMEM_LATENCY_NS * 1e-9,
        }
    }

    /// Expected service time at FMem hit ratio `h ∈ [0, 1]`.
    ///
    /// ```
    /// use mtat_tiermem::latency::ServiceModel;
    /// let m = ServiceModel::with_paper_latencies(10e-6, 30.0);
    /// assert!(m.service_time(1.0) < m.service_time(0.0));
    /// ```
    pub fn service_time(&self, hit_ratio: f64) -> f64 {
        let h = hit_ratio.clamp(0.0, 1.0);
        self.cpu_secs
            + self.accesses_per_req
                * (h * self.fmem_latency_secs + (1.0 - h) * self.smem_latency_secs)
    }
}

/// Erlang-B blocking probability for `c` servers at offered load `a`
/// Erlangs, computed by the numerically stable recurrence.
pub fn erlang_b(c: usize, a: f64) -> f64 {
    if a <= 0.0 {
        return 0.0;
    }
    let mut b = 1.0;
    for k in 1..=c {
        b = a * b / (k as f64 + a * b);
    }
    b
}

/// Erlang-C probability that an arriving request must wait, for `c`
/// servers at offered load `a = λ·S` Erlangs. Returns 1.0 when the
/// system is saturated (`a ≥ c`).
pub fn erlang_c(c: usize, a: f64) -> f64 {
    if c == 0 {
        return 1.0;
    }
    if a >= c as f64 {
        return 1.0;
    }
    if a <= 0.0 {
        return 0.0;
    }
    let b = erlang_b(c, a);
    let rho = a / c as f64;
    b / (1.0 - rho + rho * b)
}

/// `ln(100)`: the multiplier relating an exponential distribution's mean
/// to its 99th percentile.
pub const P99_FACTOR: f64 = 4.605_170_185_988_091;

/// 99th-percentile response time of an M/M/c queue with arrival rate
/// `lambda` (req/s), mean service time `s` (seconds), and `c` servers.
///
/// Uses the standard tail approximation
/// `P(W_q > t) = P_wait · exp(−(cμ − λ)t)` for the waiting time plus the
/// service-time P99 (`s·ln 100`). Returns `f64::INFINITY` when the queue
/// is unstable (`λ·s ≥ c`).
pub fn p99_response(lambda: f64, s: f64, c: usize) -> f64 {
    if lambda <= 0.0 {
        return P99_FACTOR * s;
    }
    if s <= 0.0 || c == 0 {
        return f64::INFINITY;
    }
    let a = lambda * s;
    if a >= c as f64 {
        return f64::INFINITY;
    }
    let pw = erlang_c(c, a);
    let drain_rate = (c as f64 - a) / s; // cμ − λ
    let wait_p99 = if pw <= 0.01 {
        0.0
    } else {
        (pw / 0.01).ln() / drain_rate
    };
    wait_p99 + P99_FACTOR * s
}

/// Throughput actually achieved when `lambda` req/s are offered to `c`
/// servers with service time `s`: `min(λ, c/s)`. An overloaded server
/// completes work at its capacity; the excess queues and times out.
pub fn achieved_throughput(lambda: f64, s: f64, c: usize) -> f64 {
    if s <= 0.0 {
        return lambda.max(0.0);
    }
    lambda.max(0.0).min(c as f64 / s)
}

/// The maximum arrival rate (req/s) sustainable without the P99 response
/// time exceeding `slo_secs`, found by bisection. Returns 0.0 if even an
/// idle system violates the SLO.
///
/// This is the paper's definition of *maximum load*: "the maximum KRPS at
/// which the workload can reliably handle the load without an exponential
/// increase in latency" (§5).
pub fn max_load_for_p99(s: f64, c: usize, slo_secs: f64) -> f64 {
    if s <= 0.0 || c == 0 || p99_response(0.0, s, c) > slo_secs {
        return 0.0;
    }
    let mut lo = 0.0;
    let mut hi = c as f64 / s; // capacity; p99 → ∞ here
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if p99_response(mid, s, c) <= slo_secs {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_monotone_in_hit_ratio() {
        let m = ServiceModel::with_paper_latencies(5e-6, 100.0);
        let mut prev = f64::INFINITY;
        for i in 0..=10 {
            let h = i as f64 / 10.0;
            let s = m.service_time(h);
            assert!(s < prev, "service time must fall as hit ratio rises");
            prev = s;
        }
        // Endpoints match the closed form.
        assert!((m.service_time(1.0) - (5e-6 + 100.0 * 73e-9)).abs() < 1e-15);
        assert!((m.service_time(0.0) - (5e-6 + 100.0 * 202e-9)).abs() < 1e-15);
        // Clamping.
        assert_eq!(m.service_time(2.0), m.service_time(1.0));
        assert_eq!(m.service_time(-1.0), m.service_time(0.0));
    }

    #[test]
    fn erlang_c_known_values() {
        // M/M/1: P_wait = rho.
        for rho in [0.1, 0.5, 0.9] {
            assert!((erlang_c(1, rho) - rho).abs() < 1e-12);
        }
        // Saturation and idle edges.
        assert_eq!(erlang_c(2, 2.0), 1.0);
        assert_eq!(erlang_c(2, 0.0), 0.0);
        assert_eq!(erlang_c(0, 1.0), 1.0);
        // Erlang-C for c=2, a=1: B = 1/(1+2/1·(1+1/1))⁻¹… use known value 1/3.
        let c2 = erlang_c(2, 1.0);
        assert!((c2 - 1.0 / 3.0).abs() < 1e-12, "{c2}");
    }

    #[test]
    fn erlang_b_recurrence_matches_closed_form() {
        // B(1, a) = a / (1 + a).
        for a in [0.2, 1.0, 5.0] {
            assert!((erlang_b(1, a) - a / (1.0 + a)).abs() < 1e-12);
        }
        assert_eq!(erlang_b(3, 0.0), 0.0);
    }

    #[test]
    fn p99_has_hockey_stick_shape() {
        let s = 12.3e-6;
        let c = 1;
        let cap = c as f64 / s;
        let p_low = p99_response(0.2 * cap, s, c);
        let p_mid = p99_response(0.8 * cap, s, c);
        let p_high = p99_response(0.99 * cap, s, c);
        assert!(p_low < p_mid && p_mid < p_high);
        // The knee: latency at 99 % of capacity is orders of magnitude
        // beyond the latency at 20 %.
        assert!(p_high / p_low > 20.0, "{p_high} vs {p_low}");
        assert_eq!(p99_response(cap, s, c), f64::INFINITY);
        assert_eq!(p99_response(cap * 1.5, s, c), f64::INFINITY);
    }

    #[test]
    fn p99_at_zero_load_is_service_tail() {
        let s = 1e-3;
        assert!((p99_response(0.0, s, 4) - P99_FACTOR * s).abs() < 1e-12);
    }

    #[test]
    fn achieved_throughput_saturates() {
        let s = 1e-3;
        assert_eq!(achieved_throughput(100.0, s, 1), 100.0);
        assert_eq!(achieved_throughput(5000.0, s, 1), 1000.0);
        assert_eq!(achieved_throughput(5000.0, s, 4), 4000.0);
        assert_eq!(achieved_throughput(-5.0, s, 1), 0.0);
    }

    #[test]
    fn max_load_close_to_capacity_for_loose_slo() {
        let s = 12.3e-6;
        let max = max_load_for_p99(s, 1, 20e-3);
        let cap = 1.0 / s;
        assert!(max > 0.95 * cap && max < cap, "max {max}, cap {cap}");
        // P99 at that load satisfies the SLO; slightly above violates it.
        assert!(p99_response(max * 0.999, s, 1) <= 20e-3);
        assert!(p99_response(max * 1.01, s, 1) > 20e-3);
    }

    #[test]
    fn max_load_zero_when_slo_unattainable() {
        // Service P99 alone exceeds the SLO.
        let s = 1e-2;
        assert_eq!(max_load_for_p99(s, 1, 1e-3), 0.0);
        assert_eq!(max_load_for_p99(0.0, 1, 1e-3), 0.0);
        assert_eq!(max_load_for_p99(1e-3, 0, 1.0), 0.0);
    }

    #[test]
    fn max_load_grows_with_hit_ratio() {
        // The Fig. 1 premise: more FMem -> higher sustainable load.
        let m = ServiceModel::with_paper_latencies(10e-6, 30.0);
        let slo = 20e-3;
        let mut prev = 0.0;
        for i in 0..=4 {
            let h = i as f64 / 4.0;
            let max = max_load_for_p99(m.service_time(h), 8, slo);
            assert!(max > prev);
            prev = max;
        }
    }
}
