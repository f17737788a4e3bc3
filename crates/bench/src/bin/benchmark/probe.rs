//! The host-speed probe: a fixed computation in the harness's own code,
//! timed between the timed passes.
//!
//! The hosts this benchmark runs on are small VMs on shared machines that
//! run the same code 30–100 % slower for minutes at a time (other tenants
//! on the sibling threads and in the shared cache), so a wall time says as
//! much about the hour as about the program. The probe does the kind of
//! work the analyser does — ordered maps of interval pairs cloned, joined
//! and widened; small bound matrices freshly allocated and closed — and
//! none of the analyser's code, so a change to the product cannot move it.
//! A pass's time divided by the time of the probes run right before and
//! after it, times [`NOMINAL_MS`], is the pass's time on the first host
//! when nothing disturbs it: that is what the end-to-end time metrics
//! report. The README's "Steadiness" has what this buys.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What one probe takes on the first host (2 × Xeon 2.1 GHz VM) at its
/// fastest; normalised times are in milliseconds of that host.
pub const NOMINAL_MS: f64 = 88.0;

/// A probe runs [`part`] this often, each time from another salt.
const PARTS: u64 = 16;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

type State = BTreeMap<u32, (i64, i64)>;

/// Pointwise join with widening of growing bounds, as an interval state
/// join does.
fn join(a: &State, b: &State) -> State {
    let mut out = a.clone();
    for (k, &(lo, hi)) in b {
        out.entry(*k)
            .and_modify(|e| {
                if lo < e.0 {
                    e.0 = i64::MIN;
                }
                if hi > e.1 {
                    e.1 = i64::MAX;
                }
            })
            .or_insert((lo, hi));
    }
    out
}

/// Shortest-path closure of a freshly allocated `n × n` bound matrix, as an
/// octagon pack's closure does.
fn closed_matrix(rng: &mut Lcg, n: usize) -> Vec<i64> {
    let mut m: Vec<i64> = (0..n * n).map(|_| (rng.next() % 1000) as i64).collect();
    for k in 0..n {
        for i in 0..n {
            let ik = m[i * n + k];
            for j in 0..n {
                let via = ik + m[k * n + j];
                if via < m[i * n + j] {
                    m[i * n + j] = via;
                }
            }
        }
    }
    m
}

/// One part of the probe: always the same work.
fn part(salt: u64) -> u64 {
    let mut rng = Lcg(0x9E37_79B9_7F4A_7C15 ^ salt);
    let mut acc = 0u64;
    let mut states: Vec<State> = vec![State::new(); 48];
    for _ in 0..STATE_ROUNDS {
        let (i, j) = (rng.next() as usize % 48, rng.next() as usize % 48);
        let mut s = states[j].clone();
        for _ in 0..6 {
            let (k, v) = (rng.next() as u32 % 384, rng.next() as i64 % 4096);
            s.insert(k, (v, v + 16));
        }
        let merged = join(&states[i], &s);
        acc = acc.wrapping_add(merged.len() as u64);
        states[i] = merged;
    }
    for _ in 0..MATRIX_ROUNDS {
        let m = closed_matrix(&mut rng, 14);
        acc = acc.wrapping_add(m[m.len() / 2] as u64);
    }
    black_box(acc)
}

const STATE_ROUNDS: usize = 260;
const MATRIX_ROUNDS: usize = 900;

/// Times one probe, in milliseconds: [`PARTS`] times the median part, so
/// that a stall of a few milliseconds inside one part does not count as
/// host speed.
pub fn run_ms() -> f64 {
    let mut parts_ms: Vec<f64> = (0..PARTS)
        .map(|salt| {
            let t = Instant::now();
            black_box(part(salt));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    parts_ms.sort_by(f64::total_cmp);
    let mid = parts_ms.len() / 2;
    (parts_ms[mid - 1] + parts_ms[mid]) / 2.0 * PARTS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_always_does_the_same_work() {
        assert_eq!(part(3), part(3));
        assert_ne!(part(3), part(4), "each part has work of its own");
        assert!(run_ms() > 0.0);
    }
}
