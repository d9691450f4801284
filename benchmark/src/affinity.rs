//! Which CPUs the calling thread may run on, through glibc's
//! `sched_getaffinity` and `sched_setaffinity`.
//!
//! Other tenants of a shared machine often slow one of its CPUs and not
//! the other: `paper_memtis` runs pinned to one CPU of a 2-CPU VM took
//! 2.9–3.5 ms for their p99 tick, and 2.6–3.0 ms on the other. The
//! scheduler keeps a single-threaded run on one CPU, so a whole run
//! could land on the slow one; pinning successive repetitions to
//! successive CPUs lets each tick's fastest repetition come from the
//! quieter CPU.

use std::os::raw::c_int;

/// 64-bit words of glibc's `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

type Mask = [u64; WORDS];

fn get() -> Option<Mask> {
    let mut mask = [0u64; WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

fn set(mask: &Mask) -> bool {
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

/// The CPUs the calling thread may run on, in ascending order (none
/// when the kernel does not say).
#[derive(Debug, Clone)]
pub struct Cpus(Vec<usize>);

impl Cpus {
    #[must_use]
    pub fn allowed() -> Self {
        Self(get().map_or_else(Vec::new, |mask| {
            (0..WORDS * 64)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        }))
    }

    /// Runs `f` with the calling thread pinned to the `i`-th CPU (`i`
    /// taken modulo the number of CPUs), then restores the thread's
    /// CPUs. Threads and processes `f` starts inherit the pin. If the
    /// pin cannot be set, `f` runs unpinned.
    pub fn run_on<T>(&self, i: usize, f: impl FnOnce() -> T) -> T {
        let (Some(before), false) = (get(), self.0.is_empty()) else {
            return f();
        };
        let cpu = self.0[i % self.0.len()];
        let mut only = [0u64; WORDS];
        only[cpu / 64] = 1 << (cpu % 64);
        let pinned = set(&only);
        let out = f();
        if pinned {
            set(&before);
        }
        out
    }
}
