//! `Cpus::run_on` pins the calling thread to one CPU for the closure and
//! restores its CPUs afterwards, as the kernel reports them.

use mtat_benchmark::affinity::Cpus;

/// The calling thread's allowed CPUs as the kernel lists them.
fn allowed_list() -> String {
    std::fs::read_to_string("/proc/thread-self/status")
        .expect("thread status")
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .expect("Cpus_allowed_list")
        .trim()
        .to_string()
}

/// Expands a kernel CPU list such as `0-2,5` into CPU ids.
fn expand(list: &str) -> Vec<usize> {
    list.split(',')
        .flat_map(|part| match part.split_once('-') {
            Some((a, b)) => (a.parse().unwrap()..=b.parse().unwrap()).collect::<Vec<usize>>(),
            None => vec![part.parse().unwrap()],
        })
        .collect()
}

#[test]
fn run_on_pins_each_index_to_one_cpu_then_restores() {
    let before = allowed_list();
    let ids = expand(&before);
    let cpus = Cpus::allowed();
    for i in 0..ids.len() + 1 {
        let inside = cpus.run_on(i, allowed_list);
        assert_eq!(inside, ids[i % ids.len()].to_string(), "index {i}");
        assert_eq!(allowed_list(), before, "restored after index {i}");
    }
}

#[test]
fn threads_started_inside_inherit_the_pin() {
    let ids = expand(&allowed_list());
    let cpus = Cpus::allowed();
    let inside = cpus.run_on(1, || std::thread::spawn(allowed_list).join().unwrap());
    assert_eq!(inside, ids[1 % ids.len()].to_string());
}
