//! A deterministic fork-join harness shared by the serving fleet and the
//! reproduction experiments.
//!
//! [`run_indexed`] executes a list of independent jobs on scoped worker
//! threads ([`std::thread::scope`], no external dependencies) and returns
//! their results **in job order**, so callers that serialise the results
//! (e.g. the fleet simulator writing `serve_report.json`, or `repro_all`
//! writing `repro_summary.json`) produce byte-identical output whether the
//! jobs ran sequentially or on any number of workers.
//!
//! The worker budget defaults to the machine's available parallelism and
//! can be capped (or forced to 1) with the `REPRO_THREADS` environment
//! variable. The budget is resolved once per process, on first use, so
//! changing `REPRO_THREADS` mid-process has no effect: the fleet asks for
//! it on every event-loop iteration, and looking up the hardware default
//! (cgroup file reads plus an affinity syscall) each time would dominate
//! the loop. With one worker, or at most one job, the jobs run inline on
//! the calling thread — no threads are spawned at all.
//!
//! Only *result order* is deterministic: jobs that print to stdout may
//! interleave their lines when more than one worker runs.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Parses a `REPRO_THREADS`-style value: a positive worker count, or
/// `None` when the value is not one.
fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// The process's worker budget: `REPRO_THREADS` if it is a valid count,
/// otherwise the machine's available parallelism; resolved on first use.
/// An invalid value is reported loudly on stderr (once, since the budget
/// is resolved once) instead of silently falling back — a typo'd
/// `REPRO_THREADS=fulll` should not quietly change the worker count.
fn budget() -> usize {
    static BUDGET: OnceLock<usize> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        if let Ok(raw) = std::env::var("REPRO_THREADS") {
            if let Some(n) = parse_threads(&raw) {
                return n;
            }
            eprintln!(
                "warning: ignoring invalid REPRO_THREADS={raw:?} \
                 (expected a positive integer); using the hardware default"
            );
        }
        std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
    })
}

/// The number of workers [`run_indexed`] will use for `jobs` jobs: the
/// process's worker budget, never more than the job count and never
/// less than 1.
#[must_use]
pub fn worker_count(jobs: usize) -> usize {
    budget().min(jobs.max(1))
}

/// Runs every job and returns the results in the jobs' original order.
///
/// Jobs are claimed work-stealing style (an atomic next-job counter), so
/// a slow job never blocks the others, and each result is stored in the
/// slot matching its job index — the output `Vec` is independent of
/// scheduling. A panicking job propagates its panic to the caller when
/// the scope joins.
pub fn run_indexed<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let workers = worker_count(n);
    if workers <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = slots[i]
                    .lock()
                    .expect("job mutex never poisoned: each slot is taken exactly once")
                    .take()
                    .expect("each job index is claimed by exactly one worker");
                let out = job();
                *results[i].lock().expect("result mutex never poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result mutex never poisoned")
                .expect("every claimed job stored its result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 2 "), Some(2));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-3"), None);
        assert_eq!(parse_threads("lots"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn results_keep_job_order() {
        // Jobs finish in scrambled order (later jobs sleep less), but the
        // output must stay index-aligned.
        let jobs: Vec<_> = (0..16u64)
            .map(|i| {
                move || {
                    std::thread::sleep(std::time::Duration::from_millis((16 - i) % 5));
                    i * i
                }
            })
            .collect();
        let got = run_indexed(jobs);
        let want: Vec<u64> = (0..16).map(|i| i * i).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let jobs: Vec<fn() -> u32> = Vec::new();
        assert!(run_indexed(jobs).is_empty());
        assert_eq!(worker_count(0), 1);
    }

    #[test]
    fn boxed_jobs_run() {
        let jobs: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new(|| "a".to_string()),
            Box::new(|| "b".to_string()),
            Box::new(|| "c".to_string()),
        ];
        assert_eq!(run_indexed(jobs), vec!["a", "b", "c"]);
    }

    #[test]
    fn worker_count_never_exceeds_jobs() {
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(2) <= 2);
        assert!(worker_count(1000) >= 1);
    }
}
