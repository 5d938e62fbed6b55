//! A small scoped-thread worker pool for fanning independent simulation
//! jobs across cores.
//!
//! The build environment has no crates.io access, so instead of `rayon`
//! this is ~80 lines over [`std::thread::scope`]: workers pull job
//! indices from a shared atomic counter and write results into the slot
//! matching the job's input position. Output order therefore equals input
//! order regardless of scheduling, which — together with each job
//! carrying its own RNG seed — makes parallel runs bit-identical to
//! serial ones.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker-thread count: `DRAIN_THREADS` when set (0 counts as 1),
/// otherwise the machine's available parallelism. A value that is not a
/// whole number is a one-line error and exit code 2.
pub fn worker_threads() -> usize {
    crate::env_parsed("DRAIN_THREADS", parse_threads).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

fn parse_threads(value: &str) -> Result<usize, &'static str> {
    match value.trim().parse::<usize>() {
        Ok(n) => Ok(n.max(1)),
        Err(_) => Err("a whole number of worker threads (0 counts as 1)"),
    }
}

/// Per-job timing reported by the pool alongside each result.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobTiming {
    /// Wall-clock duration of the job body itself.
    pub wall: Duration,
    /// Queue wait: time between the pool starting and a worker picking
    /// this job up. With more jobs than workers, later jobs wait longer;
    /// the sweep engine aggregates this into a queue-pressure metric.
    pub wait: Duration,
}

/// Runs `f` over every job on up to `threads` workers; `results[i]`
/// always corresponds to `jobs[i]`. Each result is paired with the job's
/// [`JobTiming`].
///
/// With `threads <= 1` (or ≤ 1 job) everything runs in the calling
/// thread — the code path is otherwise identical.
pub fn run_indexed<J, R, F>(jobs: &[J], threads: usize, f: F) -> Vec<(R, JobTiming)>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    run_indexed_progress(jobs, threads, f, |_, _| {})
}

/// [`run_indexed`] with a completion callback: `progress(done, total)` is
/// invoked after every finished job (from whichever thread finished it, so
/// the callback must be `Sync`; completion order is scheduling-dependent
/// but `done` counts monotonically). Results are unaffected — the sweep
/// engine uses this for its live stderr progress line.
pub fn run_indexed_progress<J, R, F, P>(
    jobs: &[J],
    threads: usize,
    f: F,
    progress: P,
) -> Vec<(R, JobTiming)>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
    P: Fn(usize, usize) + Sync,
{
    let epoch = Instant::now();
    let timed = |job: &J| {
        let t0 = Instant::now();
        let r = f(job);
        (
            r,
            JobTiming {
                wall: t0.elapsed(),
                wait: t0.duration_since(epoch),
            },
        )
    };

    if threads <= 1 || jobs.len() <= 1 {
        return jobs
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let out = timed(job);
                progress(i + 1, jobs.len());
                out
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<(R, JobTiming)>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let out = timed(&jobs[i]);
                slots.lock().expect("runner mutex poisoned")[i] = Some(out);
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                progress(finished, jobs.len());
            });
        }
    });

    slots
        .into_inner()
        .expect("runner mutex poisoned")
        .into_iter()
        .map(|slot| slot.expect("every job slot filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let jobs: Vec<u64> = (0..100).collect();
        let out = run_indexed(&jobs, 8, |&j| j * j);
        let values: Vec<u64> = out.into_iter().map(|(v, _)| v).collect();
        assert_eq!(values, jobs.iter().map(|j| j * j).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_equals_serial() {
        let jobs: Vec<u32> = (0..37).collect();
        let work = |&j: &u32| {
            // Deterministic per-job computation seeded only by the job.
            let mut x = j as u64 ^ 0xD6E8FEB8;
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(j as u64);
            }
            x
        };
        let serial: Vec<u64> = run_indexed(&jobs, 1, work).into_iter().map(|(v, _)| v).collect();
        let parallel: Vec<u64> = run_indexed(&jobs, 7, work).into_iter().map(|(v, _)| v).collect();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u8> = vec![];
        assert!(run_indexed(&empty, 4, |&j| j).is_empty());
        let one = vec![9u8];
        assert_eq!(run_indexed(&one, 4, |&j| j)[0].0, 9);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let jobs = vec![1u8, 2, 3];
        let out = run_indexed(&jobs, 64, |&j| j + 1);
        assert_eq!(out.iter().map(|(v, _)| *v).collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn worker_threads_is_positive() {
        assert!(worker_threads() >= 1);
    }

    #[test]
    fn thread_counts_parse_and_clamp_to_one() {
        assert_eq!(parse_threads("4"), Ok(4));
        assert_eq!(parse_threads(" 2 "), Ok(2));
        assert_eq!(parse_threads("0"), Ok(1));
    }

    #[test]
    fn non_numeric_thread_counts_are_rejected() {
        for v in ["", "two", "-1", "1.5", "4x", "0x4"] {
            assert!(parse_threads(v).is_err(), "{v:?}");
        }
    }

    #[test]
    fn job_timing_waits_are_sane() {
        let jobs: Vec<u32> = (0..16).collect();
        for threads in [1usize, 4] {
            for (_, t) in run_indexed(&jobs, threads, |&j| {
                std::hint::black_box((0..(j as u64 + 1) * 1000).sum::<u64>())
            }) {
                // A job cannot have waited longer than the whole run; the
                // wait is measured from pool start so it is always finite
                // and non-panicking. Wall time is positive for real work.
                assert!(t.wait.as_secs() < 60);
                assert!(t.wall <= Duration::from_secs(60));
            }
        }
    }

    #[test]
    fn progress_fires_once_per_job_and_reaches_total() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1usize, 6] {
            let jobs: Vec<u32> = (0..25).collect();
            let calls = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let out = run_indexed_progress(
                &jobs,
                threads,
                |&j| j * 2,
                |done, total| {
                    assert_eq!(total, 25);
                    calls.fetch_add(1, Ordering::Relaxed);
                    peak.fetch_max(done, Ordering::Relaxed);
                },
            );
            assert_eq!(out.len(), 25);
            assert_eq!(calls.load(Ordering::Relaxed), 25, "threads={threads}");
            assert_eq!(peak.load(Ordering::Relaxed), 25, "threads={threads}");
        }
    }
}
