//! A fixed reference kernel that tells how fast the host runs right now.
//!
//! On a shared host the same simulation can run 25 % slower for seconds
//! to minutes at a time. A pure-arithmetic loop does not slow down with
//! it (its time stays within 5 %), but loops with the memory access
//! pattern of the simulators and the `Engine` do: the slowdown is
//! contention for the memory system, not the clock. The benchmark runs a
//! kernel with the op's access pattern right before and right after every
//! CPU-bound op and reports that op's times scaled to the reference speed:
//! measured time × [`NOMINAL_MS`] / kernel time. The kernels are the
//! benchmark's own code, so a change to the program does not move them,
//! while a change in the host's state moves both and cancels out. The
//! unscaled times are printed beside the scaled ones.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in ms, that the scaled figures are expressed at: a host
/// that runs the kernel in this time. A 2-vCPU 2.1 GHz Xeon VM ran either
/// kernel in 12–25 ms.
pub const NOMINAL_MS: f64 = 20.0;

/// Which memory access pattern a kernel reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Scan a ring of 1024 small states against their neighbours, then
    /// copy it: the `Engine` step and the lossy DES's per-event
    /// `ground_config` + `is_legitimate`.
    ScanCopy,
    /// Dependent reads and writes at pseudo-random places in a 256 KiB
    /// table: the idle DES's event queue and per-node caches.
    RandomAccess,
}

/// Cells in the scan-and-copy ring (the workloads run n = 384 and 1024).
const CELLS: usize = 1024;
/// Scan-and-copy rounds per run.
const ROUNDS: usize = 6_000;
/// Entries of the random-access table (a power of two).
const TABLE: usize = 1 << 16;
/// Random accesses per run.
const ACCESSES: usize = 3_000_000;

/// One cell: a counter, a phase and a flag, like an SSRmin state.
#[derive(Clone, Copy)]
struct Cell {
    x: u32,
    phase: u8,
    flag: bool,
}

/// Run `kernel` once; returns its time in ms and a checksum of the work
/// (the same on every run).
pub fn run(kernel: Kernel) -> (f64, u64) {
    match kernel {
        Kernel::ScanCopy => scan_copy(),
        Kernel::RandomAccess => random_access(),
    }
}

fn scan_copy() -> (f64, u64) {
    let mut ring: Vec<Cell> = (0..CELLS as u32)
        .map(|i| Cell {
            x: i.wrapping_mul(2_654_435_761) % 1025,
            phase: (i % 3) as u8,
            flag: i % 2 == 0,
        })
        .collect();
    let mut rng: u64 = 0x2545_F491_4F6C_DD1D;
    let mut checksum = 0u64;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        // Scan: count the cells whose guard holds against both neighbours.
        let mut enabled = 0u64;
        for i in 0..CELLS {
            let (left, cell, right) =
                (ring[(i + CELLS - 1) % CELLS], ring[i], ring[(i + 1) % CELLS]);
            if (cell.x != left.x && cell.phase == 0)
                || (cell.flag && right.phase != cell.phase)
                || (left.x + 1) % 1025 == cell.x
            {
                enabled += 1;
            }
        }
        // Copy the ring and move one pseudo-random cell.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let k = (rng % CELLS as u64) as usize;
        let mut next = ring.clone();
        next[k] =
            Cell { x: (next[k].x + 1) % 1025, phase: (next[k].phase + 1) % 3, flag: !next[k].flag };
        ring = black_box(next);
        checksum = checksum.wrapping_mul(31).wrapping_add(enabled);
    }
    (start.elapsed().as_secs_f64() * 1e3, black_box(checksum))
}

fn random_access() -> (f64, u64) {
    let mut table: Vec<u32> = (0..TABLE as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
    let mut rng: u64 = 0x2545_F491_4F6C_DD1D;
    let mut checksum = 0u64;
    let start = Instant::now();
    for _ in 0..ACCESSES {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let k = (rng as usize ^ checksum as usize) & (TABLE - 1);
        checksum = checksum.wrapping_add(u64::from(table[k]));
        table[(k * 7) & (TABLE - 1)] ^= checksum as u32;
    }
    (start.elapsed().as_secs_f64() * 1e3, black_box(checksum))
}

/// Time of `kernel` (ms) around one op: the mean of a run before and a
/// run after it.
pub fn around<T>(kernel: Kernel, op: impl FnOnce() -> T) -> (T, f64) {
    let before = run(kernel).0;
    let out = op();
    let after = run(kernel).0;
    (out, (before + after) / 2.0)
}

/// The factor that scales a time measured while the kernel took
/// `kernel_ms` to the reference speed.
pub fn factor(kernel_ms: f64) -> f64 {
    NOMINAL_MS / kernel_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_do_the_same_work_every_run() {
        for kernel in [Kernel::ScanCopy, Kernel::RandomAccess] {
            let (ms, sum) = run(kernel);
            assert!(ms > 0.0);
            assert_eq!(run(kernel).1, sum);
        }
    }

    #[test]
    fn times_scale_to_the_nominal_kernel_time() {
        // An op of 300 ms while the kernel took 30 ms (1.5× nominal) is
        // 200 ms at the reference speed; a rate scales the other way.
        assert_eq!(300.0 * factor(30.0), 200.0);
        assert_eq!(factor(NOMINAL_MS), 1.0);
        assert_eq!(5.0 / factor(10.0), 2.5);
    }
}
