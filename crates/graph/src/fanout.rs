//! The one parallel fan-out: run independent jobs across worker
//! threads and merge their results in job order.
//!
//! A *job* is any pure function of its input: one simulator trial, one
//! origin's row of a delivery matrix, one node's view payload, one
//! adversary strategy or candidate graph. [`run_trials`] executes a
//! batch of such jobs on scoped threads and returns the results **in
//! input order**, so callers see output that is byte-identical to a
//! sequential loop no matter how many workers ran or how the OS
//! scheduled them: parallelism changes wall-clock time, never
//! observable behaviour.
//!
//! Work is assigned by striding (worker `w` of `W` takes jobs `w`,
//! `w + W`, `w + 2W`, …) — contiguous-block splits leave the last
//! worker idle when job costs are front-loaded, while striding
//! interleaves cheap and expensive jobs across all workers. Each
//! worker tags every result with its job index; the merge sorts by
//! that tag, which is a permutation repair, not a semantic choice.
//!
//! On a single-core host the same code degrades to one worker running
//! the jobs in order — the deterministic merge is what the test suite
//! pins, and it holds at every thread count.

use std::thread;

/// Number of workers to use by default: the machine's available
/// parallelism, capped at 8 (simulator trials are memory-bandwidth
/// hungry; more workers than that mostly fight over cache).
pub fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, |p| p.get().min(8))
}

/// Runs `run(index, &trials[index])` for every job, fanning across up
/// to `threads` scoped workers (never more than there are jobs), and
/// returns the results in job order.
///
/// `run` must be a pure function of its arguments (plus shared
/// captured state) for the batch to be deterministic; the fan-out
/// guarantees the merge order regardless.
///
/// # Panics
///
/// Re-raises the panic of any job that panicked, after all workers
/// have stopped.
pub fn run_trials<T, R, F>(trials: &[T], threads: usize, run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = threads.max(1).min(trials.len().max(1));
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(trials.len());
    if workers <= 1 {
        tagged.extend(trials.iter().enumerate().map(|(i, t)| (i, run(i, t))));
    } else {
        let run = &run;
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || -> Vec<(usize, R)> {
                        trials
                            .iter()
                            .enumerate()
                            .skip(w)
                            .step_by(workers)
                            .map(|(i, t)| (i, run(i, t)))
                            .collect()
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(part) => tagged.extend(part),
                    Err(cause) => std::panic::resume_unwind(cause),
                }
            }
        });
    }
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_trial_order() {
        let trials: Vec<u64> = (0..57).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = run_trials(&trials, threads, |i, &t| {
                assert_eq!(i as u64, t);
                t * t
            });
            let expect: Vec<u64> = trials.iter().map(|t| t * t).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u32> = run_trials(&[], 4, |_, _: &u32| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_matches_sequential_on_stateful_work() {
        // A trial whose cost varies wildly with its index still merges
        // into sequential order.
        let trials: Vec<u32> = (0..40).rev().collect();
        let seq = run_trials(&trials, 1, |i, &t| (i, t, u64::from(t) % 7));
        let par = run_trials(&trials, 4, |i, &t| (i, t, u64::from(t) % 7));
        assert_eq!(seq, par);
    }

    #[test]
    #[should_panic(expected = "trial 3 exploded")]
    fn worker_panics_propagate() {
        let trials: Vec<u32> = (0..8).collect();
        run_trials(&trials, 2, |i, _| {
            assert!(i != 3, "trial {i} exploded");
            i
        });
    }

    #[test]
    fn default_threads_is_positive_and_capped() {
        let t = default_threads();
        assert!(t >= 1);
        assert!(t <= 8);
    }
}
