//! The `prime` protocol of Lemma 4.1: rendezvous of two identical **blind**
//! agents on a path with `O(log log m)` bits of memory.
//!
//! ```text
//! start in arbitrary direction;
//! move at speed 1 until reaching one extremity of the path;
//! p ← 2;
//! while no rendezvous do
//!     traverse the entire path twice, at speed 1/p;
//!     p ← smallest prime larger than p;
//! ```
//!
//! *Speed `1/s`* means idling `s − 1` rounds before each edge traversal. The
//! agents are blind: they only distinguish "the edge I came by" from "the
//! other edge" and detect extremities by their degree — port numbers are
//! never used (beyond the forced port 0 at a leaf). Rendezvous is guaranteed
//! whenever it is feasible (`m` odd, or `m` even and `a − 1 ≠ m − b`), at or
//! before iteration `primorial_index_bound(m²)` of the loop.
//!
//! The agent's persistent memory: the current prime `p`, an idle counter
//! `< p`, a one-bit pending direction, a 1-trip/2-trip flag and the phase —
//! `O(log p) = O(log log m)` bits, measured by [`PrimePathAgent::memory_bits`].

use crate::primes::next_prime;
use rvz_agent::meter::bits_for;
use rvz_agent::model::{Action, Agent, Obs};
use rvz_trees::Port;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Phase {
    /// Speed-1 run toward an extremity.
    Init,
    /// The prime loop.
    Running,
    /// Only reachable with a `cap`: the bounded variant `prime(i)` has
    /// exhausted its primes.
    Finished,
}

/// What happens when the prime index reaches the cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CapMode {
    /// No cap: primes grow forever (the Lemma 4.1 protocol).
    Unbounded,
    /// `prime(i)`: stop and stay forever.
    Stop(u32),
    /// Wrap back to `p = 2` — a *bounded-memory* line agent capturing the
    /// protocol's behavior with `⌈log p_i⌉`-bit counters. This is the
    /// variant we compile to an explicit automaton and hand to the
    /// Theorem 3.1 / 4.2 adversaries (docs/design-notes.md §D7): it demonstrates,
    /// end to end, that capping the memory of the paper's own protocol
    /// makes it defeatable.
    Cycle(u32),
}

/// The Lemma 4.1 agent. With `cap = None` it runs the unbounded protocol;
/// `cap = Some(i)` gives the paper's `prime(i)` (stop after the `i`-th
/// prime), after which it stays put forever (when run standalone).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PrimePathAgent {
    cap: CapMode,
    phase: Phase,
    /// Current prime `p`.
    p: u64,
    /// 1-based index of `p` among the primes.
    prime_idx: u32,
    /// Idle rounds spent before the pending edge traversal.
    idle_done: u64,
    /// Which of the two traversals of the current prime we are in (0 or 1).
    traversal: u8,
    /// Exit to use for the next move (blind: "the other edge").
    next_exit: Port,
    /// High-water mark of `p` (memory metering).
    max_p: u64,
}

impl PrimePathAgent {
    pub fn unbounded() -> Self {
        Self::with_cap(CapMode::Unbounded, 0)
    }

    /// The paper's `prime(i)`.
    pub fn bounded(i: u32) -> Self {
        Self::with_cap(CapMode::Stop(i), 0)
    }

    /// The bounded-memory variant: after the `i`-th prime, wrap back to
    /// `p = 2` and keep sweeping forever. A legitimate finite-state line
    /// agent — the input to [`rvz_agent::compile::compile_line_agent`] for
    /// the constructive gap demonstration.
    pub fn cycling(i: u32) -> Self {
        assert!(i >= 1);
        Self::with_cap(CapMode::Cycle(i), 0)
    }

    /// The protocol's "start in arbitrary direction": the direction is not
    /// the agent's to choose (it is blind), so the adversary — and our
    /// exhaustive tests — pick the initial exit port.
    pub fn with_start_port(start_port: Port) -> Self {
        Self::with_cap(CapMode::Unbounded, start_port)
    }

    fn with_cap(cap: CapMode, start_port: Port) -> Self {
        PrimePathAgent {
            cap,
            phase: Phase::Init,
            p: 2,
            prime_idx: 1,
            idle_done: 0,
            traversal: 0,
            next_exit: start_port,
            max_p: 2,
        }
    }

    /// The largest prime used so far.
    pub fn max_prime(&self) -> u64 {
        self.max_p
    }

    /// Has the bounded variant finished?
    pub fn finished(&self) -> bool {
        self.phase == Phase::Finished
    }

    /// Arrival bookkeeping. Returns `true` if the protocol just finished.
    fn on_arrival(&mut self, entry: Port, degree: Port) -> bool {
        // Blind next-direction rule: at an extremity turn around (the only
        // edge is port 0); inside, take the other edge.
        self.next_exit = if degree == 1 { 0 } else { 1 - entry };
        if degree != 1 {
            return false;
        }
        // Extremity reached.
        match self.phase {
            Phase::Init => {
                self.phase = Phase::Running;
                self.traversal = 0;
            }
            Phase::Running => {
                self.traversal += 1;
                if self.traversal == 2 {
                    self.traversal = 0;
                    match self.cap {
                        CapMode::Stop(i) if i == self.prime_idx => {
                            self.phase = Phase::Finished;
                            return true;
                        }
                        CapMode::Cycle(i) if i == self.prime_idx => {
                            self.p = 2;
                            self.prime_idx = 1;
                        }
                        _ => {
                            self.p = next_prime(self.p);
                            self.prime_idx += 1;
                            self.max_p = self.max_p.max(self.p);
                        }
                    }
                }
            }
            Phase::Finished => {}
        }
        false
    }
}

impl Agent for PrimePathAgent {
    fn act(&mut self, obs: Obs) -> Action {
        debug_assert!(obs.degree <= 2, "prime protocol runs on paths");
        if let Some(entry) = obs.entry {
            if self.on_arrival(entry, obs.degree) {
                return Action::Stay;
            }
        } else if self.phase == Phase::Init && obs.degree == 1 {
            // Starting at an extremity: the init run is already over.
            self.phase = Phase::Running;
            self.traversal = 0;
            self.next_exit = 0;
        }
        match self.phase {
            Phase::Init => Action::Move(self.next_exit),
            Phase::Running => {
                if self.idle_done + 1 < self.p {
                    self.idle_done += 1;
                    Action::Stay
                } else {
                    self.idle_done = 0;
                    Action::Move(self.next_exit)
                }
            }
            Phase::Finished => Action::Stay,
        }
    }

    fn memory_bits(&self) -> u64 {
        // p, the idle counter (< p), the trial-division scratch (≤ next p),
        // plus phase (2 bits), traversal flag (1), direction (1).
        3 * bits_for(self.max_p) + 4
    }

    /// `Finished` (the bounded `prime(i)` after its last sweep) is
    /// absorbing: the agent stays forever and the meter is frozen.
    fn idle_span(&self) -> u64 {
        if self.finished() {
            u64::MAX
        } else {
            0
        }
    }

    fn name(&self) -> &'static str {
        "prime-path"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primes::primorial_index_bound;
    use rvz_sim::{run_pair, PairConfig};
    use rvz_trees::generators::{all_labelings, line};

    /// Is blind-agent rendezvous feasible on the m-node path with starts
    /// a < b (1-based positions as in the paper): m odd, or a−1 ≠ m−b.
    fn feasible(m: usize, a: usize, b: usize) -> bool {
        m % 2 == 1 || (a - 1) != (m - b)
    }

    /// Generous round budget from the Lemma 4.1 analysis: all iterations up
    /// to the primorial bound, each costing ≤ 2(m−1)p + p rounds.
    fn budget(m: usize) -> u64 {
        let mut rounds = m as u64; // init run
        let mut p = 2u64;
        for _ in 0..primorial_index_bound((m * m) as u64) + 2 {
            rounds += 2 * (m as u64 - 1) * p + p;
            p = crate::primes::next_prime(p);
        }
        rounds * 2
    }

    #[test]
    fn meets_exactly_when_feasible_exhaustive_small() {
        // Lemma 4.1: *feasible* pairs meet for EVERY combination of the
        // (adversarial) initial directions and every labeling; infeasible
        // pairs have an adversarial choice defeating the agents. Paths
        // 2..=8 nodes, all start pairs, all labelings, all 4 direction
        // combinations.
        for m in 2..=8usize {
            for labeled in all_labelings(&line(m)) {
                for a in 1..=m {
                    for b in a + 1..=m {
                        let mut all_met = true;
                        for (da, db) in [(0u32, 0u32), (0, 1), (1, 0), (1, 1)] {
                            let mut x = PrimePathAgent::with_start_port(da);
                            let mut y = PrimePathAgent::with_start_port(db);
                            let run = run_pair(
                                &labeled,
                                (a - 1) as u32,
                                (b - 1) as u32,
                                &mut x,
                                &mut y,
                                PairConfig::simultaneous(budget(m)),
                            );
                            all_met &= run.outcome.met();
                        }
                        assert_eq!(all_met, feasible(m, a, b), "m={m} a={a} b={b}");
                    }
                }
            }
        }
    }

    #[test]
    fn meets_on_long_paths() {
        for m in [20usize, 41, 64] {
            let t = line(m);
            // Pick a feasible asymmetric pair.
            let (a, b) = (2u32, (m as u32) - 1);
            let mut x = PrimePathAgent::unbounded();
            let mut y = PrimePathAgent::unbounded();
            let run = run_pair(&t, a, b, &mut x, &mut y, PairConfig::simultaneous(budget(m)));
            assert!(run.outcome.met(), "m={m}");
            // Memory stays O(log log m): the primes used are small.
            assert!(x.memory_bits() <= 3 * 8 + 4, "m={m}: {} bits", x.memory_bits());
        }
    }

    #[test]
    fn infeasible_symmetric_pair_never_meets() {
        // Even path, mirror-symmetric starts, mirror labeling: the agents
        // shadow each other forever.
        let t = rvz_trees::generators::colored_line_center_zero(9); // 10 nodes
        let mut x = PrimePathAgent::unbounded();
        let mut y = PrimePathAgent::unbounded();
        let run = run_pair(&t, 2, 7, &mut x, &mut y, PairConfig::simultaneous(200_000));
        assert!(!run.outcome.met());
        assert!(run.crossings > 0, "they must cross, never meet");
    }

    #[test]
    fn bounded_variant_stops() {
        let t = line(6);
        let mut a = PrimePathAgent::bounded(2);
        let r = rvz_sim::run_single(&t, 0, &mut a, 200, false);
        assert!(a.finished());
        // After finishing, the agent stays at an extremity.
        assert_eq!(t.degree(r.cursor.node), 1);
        assert_eq!(a.max_prime(), 3);
    }

    #[test]
    fn speed_pattern_idles_p_minus_1() {
        // At prime p the agent moves exactly every p rounds.
        let t = line(5);
        let mut a = PrimePathAgent::unbounded();
        let run = rvz_sim::run_single(&t, 0, &mut a, 40, true);
        let trace = run.trace.unwrap();
        // Init run was instant (start at leaf). First prime p=2: idle 1,
        // move 1: positions change every 2 rounds.
        assert_eq!(trace[0], 0);
        assert_eq!(trace[1], 0); // idle
        assert_eq!(trace[2], 1); // move
        assert_eq!(trace[3], 1); // idle
        assert_eq!(trace[4], 2); // move
    }

    #[test]
    fn meeting_round_respects_primorial_bound() {
        for m in [11usize, 18, 25] {
            let t = line(m);
            let (a, b) = (0u32, (m as u32) / 2);
            if !feasible(m, 1, m / 2 + 1) {
                continue;
            }
            let mut x = PrimePathAgent::unbounded();
            let mut y = PrimePathAgent::unbounded();
            let run = run_pair(&t, a, b, &mut x, &mut y, PairConfig::simultaneous(budget(m)));
            assert!(run.outcome.met(), "m={m}");
            // The prime index never needs to exceed the analysis bound.
            let j_max = primorial_index_bound((m * m) as u64);
            assert!(
                x.prime_idx <= j_max + 1,
                "m={m}: used prime index {} > bound {}",
                x.prime_idx,
                j_max
            );
        }
    }
}
