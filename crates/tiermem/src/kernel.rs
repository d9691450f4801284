//! The run-time choice between a hot loop's scalar form and its AVX-512
//! form.
//!
//! The sampler's draws and per-page bookkeeping passes
//! ([`crate::sampler::AccessSampler::draw_kernel`]) and the histogram's
//! count update ([`crate::histogram::AccessHistogram::kernel`]) each
//! have an AVX-512 form, picked once from the CPU when their owner is
//! built. The scalar
//! loops stay the only path on other CPUs and are the tests' reference.
//! Each vector form gives the same results as its scalar loop, bit for
//! bit, so digests do not depend on the CPU; only time does
//! (DESIGN.md §4h). The SAC layers' wide tile (`mtat_nn::linear::Kernel`)
//! is picked by a copy of `Kernel::detect`'s check; its doc says why.

/// Which form of a vectorised hot loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// The portable scalar loop.
    Scalar,
    /// The `#[target_feature(enable = "avx512f,avx512dq,avx512vl")]`
    /// form.
    Avx512,
}

impl Kernel {
    /// The fastest kernel this CPU runs: `Avx512` where it reports
    /// AVX-512F, DQ and VL, `Scalar` everywhere else. Every vector form
    /// in this crate is compiled for exactly those three features, so
    /// this is the one check that licenses calling any of them.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
        {
            return Self::Avx512;
        }
        Self::Scalar
    }

    /// The kernels this CPU runs, for tests that replay every form
    /// against the scalar reference: `Scalar` always, `Avx512` where
    /// [`Self::detect`] picks it (which the sampler's and the tracker's
    /// kernel-choice tests pin to the CPU's flags).
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Self> {
        let mut ks = vec![Self::Scalar];
        if Self::detect() == Self::Avx512 {
            ks.push(Self::Avx512);
        }
        ks
    }

    /// `"avx512"` or `"scalar"`.
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Avx512 => "avx512",
        }
    }
}
