//! One-second rounds of a measured phase, and the CPU the hypervisor
//! stole from this machine in each. On a shared two-core host the steal
//! comes and goes for seconds at a time and moves every timing by tens
//! of percent; the end-to-end figures are taken over the half of the
//! rounds in which the least CPU was stolen, so they measure the
//! servers rather than their neighbours.

use std::time::{Duration, Instant};

/// Length of one measured round.
pub const ROUND: Duration = Duration::from_secs(1);

/// Ticks stolen from all CPUs so far (the `steal` column of the `cpu`
/// line of `/proc/stat`); 0 where the kernel does not report it.
fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Host steal and server CPU at one round boundary.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub steal: u64,
    pub cpu_s: f64,
}

/// Takes a [`Mark`] at every round boundary. Connection 0's load loop
/// polls it between requests, so no extra thread runs beside the load.
pub struct Marker {
    start: Instant,
    round: Duration,
    pids: Vec<u32>,
    pub marks: Vec<Mark>,
}

impl Marker {
    /// Marks the start of round 0 now.
    pub fn new(start: Instant, round: Duration, pids: Vec<u32>) -> Marker {
        let mut marker = Marker {
            start,
            round,
            pids,
            marks: Vec::new(),
        };
        marker.mark();
        marker
    }

    fn mark(&mut self) {
        let cpu_s = self
            .pids
            .iter()
            .map(|&pid| gb_sys::process_cpu_seconds(pid).unwrap_or(0.0))
            .sum();
        self.marks.push(Mark {
            steal: host_steal_ticks(),
            cpu_s,
        });
    }

    /// Takes the marks of every boundary passed by `now`.
    pub fn poll(&mut self, now: Instant) {
        while now >= self.start + self.round * self.marks.len() as u32 {
            self.mark();
        }
    }

    /// Completes the marks up to the end of round `rounds - 1`.
    pub fn finish(&mut self, rounds: usize) {
        while self.marks.len() <= rounds {
            self.mark();
        }
    }
}

/// The half of `rounds` (rounded up) with the least stolen CPU, in time
/// order; ties go to the earlier round.
pub fn clean_rounds(marks: &[Mark], rounds: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..rounds).collect();
    order.sort_by_key(|&r| (marks[r + 1].steal.saturating_sub(marks[r].steal), r));
    let mut clean: Vec<usize> = order[..rounds.div_ceil(2)].to_vec();
    clean.sort_unstable();
    clean
}

/// Stolen ticks per round, for the report.
pub fn steal_per_round(marks: &[Mark]) -> Vec<u64> {
    marks
        .windows(2)
        .map(|w| w[1].steal.saturating_sub(w[0].steal))
        .collect()
}
