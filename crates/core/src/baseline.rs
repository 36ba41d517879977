//! The arbitrary-delay baseline: `O(log n)`-bit rendezvous in trees for any
//! start delay θ — the tree-specialized stand-in for the general-graph
//! algorithm of \[14\] (Czyzowicz–Kosowski–Pelc, PODC'10); substitution B2 in
//! docs/design-notes.md §D5.
//!
//! Protocol:
//! 1. `Explo` (full-tree mode) reconstructs `T` and locates the agent.
//! 2. The agent computes the canonical **rank** `r ∈ [0, n)` of its start
//!    ([`rvz_trees::canon::canonical_ranks`]): two nodes share a rank iff
//!    the unique port-preserving flip of `T` exchanges them, so two agents
//!    on non-perfectly-symmetrizable starts always hold distinct ranks.
//! 3. Forever, with period `8n·q_r` (`q_r` = the `(r+2)`-th prime): be
//!    *active* for the first `4n` rounds (a double Euler tour from home,
//!    `4(n−1)` moves, padded with stays), then *passive* (wait at home).
//!
//! Why it meets under any finite delay: for ranks `r ≠ r'` the periods are
//! coprime multiples of `8n`, so the offsets of one agent's active windows
//! within the other's period sweep all `q` residues spaced `8n` apart; at
//! most one of those `q ≥ 3` offsets can overlap the other agent's `4n`-long
//! active zone, so some active window falls entirely inside a passive window
//! — and a full Euler tour visits the waiting agent's node. A never-started
//! or still-exploring peer sits still even longer. Memory beyond Explo:
//! counters bounded by `8n·q_r = O(n² log n)`, i.e. `O(log n)` bits.

use crate::primes::nth_prime;
use rvz_agent::meter::bits_for;
use rvz_agent::model::{bw_exit, Action, Agent, Obs, Step, SubAgent};
use rvz_explore::ExploBis;
use rvz_trees::canon::canonical_ranks;

#[derive(Debug, Clone)]
enum BPhase {
    /// Boxed: the reconstruction state dwarfs the schedule counters.
    Explo(Box<ExploBis>),
    Schedule {
        /// Position within the current period, in `0..period`.
        pos: u64,
        /// `8n·q_r`.
        period: u64,
        /// Moves still owed in the current active tour (`4(n−1)` at window
        /// start).
        tour_moves_left: u64,
        n: u64,
        rank: u64,
        q: u64,
    },
}

/// The delay-robust baseline agent.
#[derive(Debug, Clone)]
pub struct DelayRobustAgent {
    phase: BPhase,
    explo_charged: u64,
    explo_measured: u64,
}

impl Default for DelayRobustAgent {
    fn default() -> Self {
        Self::new()
    }
}

impl DelayRobustAgent {
    pub fn new() -> Self {
        DelayRobustAgent {
            phase: BPhase::Explo(Box::new(ExploBis::full())),
            explo_charged: 0,
            explo_measured: 0,
        }
    }

    /// The canonical rank of this agent's start, once known.
    pub fn rank(&self) -> Option<u64> {
        match &self.phase {
            BPhase::Explo(_) => None,
            BPhase::Schedule { rank, .. } => Some(*rank),
        }
    }

    /// Charged memory: Explo per the Fact 2.1 contract + measured schedule
    /// counters — the `O(log n)` of \[14\].
    pub fn memory_bits_charged(&self) -> u64 {
        self.explo_charged + self.schedule_bits()
    }

    /// Fully measured memory (reconstruction scratch included).
    pub fn memory_bits_measured(&self) -> u64 {
        self.explo_measured + self.schedule_bits()
    }

    fn schedule_bits(&self) -> u64 {
        match &self.phase {
            BPhase::Explo(_) => 1,
            BPhase::Schedule { period, n, rank, q, .. } => {
                bits_for(*period) + bits_for(*n) + bits_for(*rank) + bits_for(*q) + 1
            }
        }
    }

    /// Memory the automaton must be provisioned with for trees of at most
    /// `n` nodes — the `Θ(log n)` of the arbitrary-delay scenario (its
    /// necessity is Theorem 3.1). Worst case: rank `n − 1`, period
    /// `8n·q_{n+1}`.
    pub fn provisioned_bits(n: u64) -> u64 {
        let q_max = nth_prime(n as u32 + 2);
        4 * bits_for(n)                      // Explo (Fact 2.1 contract)
            + bits_for(8 * n * q_max)        // period counter
            + bits_for(n)                    // n itself
            + bits_for(n - 1)                // rank
            + bits_for(q_max)                // q_r
            + 1
    }
}

impl Agent for DelayRobustAgent {
    fn act(&mut self, obs: Obs) -> Action {
        loop {
            match &mut self.phase {
                BPhase::Explo(e) => match e.step(obs) {
                    Step::Done => {
                        let res = e.result().expect("Explo finished");
                        self.explo_charged = res.charged_bits();
                        self.explo_measured = res.measured_bits();
                        let n = res.nu;
                        // Rank of the agent's start (= node 0 of its own
                        // reconstruction; ranks are labeling-canonical, so
                        // both agents' computations agree physically).
                        let rank = canonical_ranks(&res.tprime)[0];
                        let q = nth_prime(rank as u32 + 2);
                        self.phase = BPhase::Schedule {
                            pos: 0,
                            period: 8 * n * q,
                            tour_moves_left: 4 * (n - 1),
                            n,
                            rank,
                            q,
                        };
                        continue;
                    }
                    Step::Move(p) => return Action::Move(p),
                    Step::Stay => return Action::Stay,
                },
                BPhase::Schedule { pos, period, tour_moves_left, n, .. } => {
                    let active = *pos < 4 * *n;
                    let action = if active && *tour_moves_left > 0 {
                        *tour_moves_left -= 1;
                        // Double Euler tour: plain basic walk; after
                        // 2(n−1) moves it closes and restarts, so 4(n−1)
                        // consecutive moves end at home.
                        Action::Move(bw_exit(obs.entry, obs.degree))
                    } else {
                        Action::Stay
                    };
                    *pos += 1;
                    if *pos == *period {
                        *pos = 0;
                        *tour_moves_left = 4 * (*n - 1);
                    }
                    return action;
                }
            }
        }
    }

    fn memory_bits(&self) -> u64 {
        self.memory_bits_charged()
    }

    fn name(&self) -> &'static str {
        "delay-robust-baseline"
    }

    /// Once the window's tour is done, the agent stays home through the
    /// end of the period, and the meter counts constants only.
    fn idle_span(&self) -> u64 {
        match &self.phase {
            BPhase::Schedule { pos, period, tour_moves_left: 0, .. } => period - pos,
            _ => 0,
        }
    }

    fn skip_idle(&mut self, k: u64) {
        let span = self.idle_span();
        assert!(k <= span, "skip_idle({k}) past the idle span {span}");
        if let BPhase::Schedule { pos, period, tour_moves_left, n, .. } = &mut self.phase {
            *pos += k;
            if *pos == *period {
                *pos = 0;
                *tour_moves_left = 4 * (*n - 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rvz_sim::{run_pair, Cursor, PairConfig};
    use rvz_trees::generators::{
        colored_line_center_zero, line, random_relabel, random_tree, spider,
    };
    use rvz_trees::{perfectly_symmetrizable, NodeId, Tree};

    fn budget(n: u64) -> u64 {
        // Two full periods of the slowest agent's schedule, conservatively:
        // q ≤ prime(n+2) ≤ 16n for small n.
        8 * n * (16 * n.max(8)) * 4 + 100_000
    }

    #[test]
    fn meets_on_lines_for_many_delays() {
        for n in [3u64, 6, 9] {
            let t = line(n as usize);
            for delay in [0u64, 1, 3, 17, 1000] {
                for (a, b) in [(0u32, 1u32), (0, (n - 1) as u32), (1, (n - 1) as u32)] {
                    if perfectly_symmetrizable(&t, a, b) {
                        continue;
                    }
                    let mut x = DelayRobustAgent::new();
                    let mut y = DelayRobustAgent::new();
                    let run =
                        run_pair(&t, a, b, &mut x, &mut y, PairConfig::delayed(delay, budget(n)));
                    assert!(run.outcome.met(), "n={n} delay={delay} pair=({a},{b})");
                }
            }
        }
    }

    #[test]
    fn meets_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..8 {
            let n = 12usize;
            let t = random_relabel(&random_tree(n, &mut rng), &mut rng);
            for delay in [0u64, 5, 113] {
                let (a, b) = (0u32, (n - 1) as u32);
                if perfectly_symmetrizable(&t, a, b) {
                    continue;
                }
                let mut x = DelayRobustAgent::new();
                let mut y = DelayRobustAgent::new();
                let run = run_pair(
                    &t,
                    a,
                    b,
                    &mut x,
                    &mut y,
                    PairConfig::delayed(delay, budget(n as u64)),
                );
                assert!(run.outcome.met(), "delay={delay}");
            }
        }
    }

    #[test]
    fn meets_even_on_symmetric_labelings_with_asym_positions() {
        // Mirror-labeled even line, but positions NOT exchanged by the flip:
        // ranks differ, the tournament resolves.
        let t = colored_line_center_zero(7); // 8 nodes, flip = mirror
        let (a, b) = (1u32, 2u32);
        assert!(!perfectly_symmetrizable(&t, a, b));
        for delay in [0u64, 2, 29] {
            let mut x = DelayRobustAgent::new();
            let mut y = DelayRobustAgent::new();
            let run = run_pair(&t, a, b, &mut x, &mut y, PairConfig::delayed(delay, budget(8)));
            assert!(run.outcome.met(), "delay={delay}");
        }
    }

    #[test]
    fn mirror_pair_defeats_baseline_with_zero_delay() {
        // Perfectly symmetrizable pair on the mirror labeling: equal ranks,
        // mirrored schedules — no meeting (consistent with Fact 1.1).
        let t = colored_line_center_zero(7);
        let (a, b) = (0u32, 7u32);
        assert!(perfectly_symmetrizable(&t, a, b));
        let mut x = DelayRobustAgent::new();
        let mut y = DelayRobustAgent::new();
        let run = run_pair(&t, a, b, &mut x, &mut y, PairConfig::simultaneous(500_000));
        assert!(!run.outcome.met());
        assert_eq!(x.rank(), y.rank());
    }

    #[test]
    fn sleeping_forever_peer_is_found() {
        // Delay beyond the horizon: the active agent must still find the
        // sitter during its first active windows.
        let t = spider(3, 3);
        let mut x = DelayRobustAgent::new();
        let mut y = DelayRobustAgent::new();
        let run = run_pair(&t, 0, 5, &mut x, &mut y, PairConfig::delayed(u64::MAX, budget(10)));
        assert!(run.outcome.met());
    }

    #[test]
    fn memory_is_logarithmic() {
        for n in [8usize, 32, 128] {
            let t = line(n);
            let mut x = DelayRobustAgent::new();
            let mut y = DelayRobustAgent::new();
            let run = run_pair(
                &t,
                0,
                (n - 2) as u32,
                &mut x,
                &mut y,
                PairConfig::simultaneous(budget(n as u64)),
            );
            assert!(run.outcome.met(), "n={n}");
            let bits = x.memory_bits_charged().max(y.memory_bits_charged());
            // O(log n) with a modest constant: period ≤ 8n·q, q = O(n log n).
            assert!(bits <= 8 * rvz_agent::bits_for(n as u64) + 40, "n={n}: {bits} bits");
        }
    }

    /// What a plain-`act` run leaves after one activation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Snap {
        action: Action,
        cursor: Cursor,
        measured: u64,
        charged: u64,
        /// `(pos, tour_moves_left)` once scheduling.
        schedule: Option<(u64, u64)>,
    }

    impl Snap {
        fn of(agent: &DelayRobustAgent, action: Action, cursor: Cursor) -> Self {
            let schedule = match agent.phase {
                BPhase::Schedule { pos, tour_moves_left, .. } => Some((pos, tour_moves_left)),
                BPhase::Explo(_) => None,
            };
            Snap {
                action,
                cursor,
                measured: agent.memory_bits_measured(),
                charged: agent.memory_bits(),
                schedule,
            }
        }
    }

    /// Steps one agent with plain `act` through Explo and three full
    /// periods, then replays the run with a twin that jumps every idle
    /// span by `skip_idle`. At each span start, every partial skip
    /// `1..=span` (and its completion) must land on the plain run's state.
    /// Returns the number of spans jumped.
    fn assert_skip_idle_is_act(t: &Tree, start: NodeId) -> usize {
        let mut agent = DelayRobustAgent::new();
        let mut cursor = Cursor::new(start);
        let mut hist = vec![Snap::of(&agent, Action::Stay, cursor)];
        let mut scheduled = 0;
        loop {
            let action = agent.act(cursor.obs(t));
            cursor.apply(t, action);
            hist.push(Snap::of(&agent, action, cursor));
            if let BPhase::Schedule { period, .. } = agent.phase {
                scheduled += 1;
                if scheduled == 3 * period {
                    break;
                }
            }
        }
        let mut twin = DelayRobustAgent::new();
        let mut cursor = Cursor::new(start);
        let (mut r, mut spans) = (0, 0);
        while r + 1 < hist.len() {
            let span = twin.idle_span();
            if span == 0 {
                let action = twin.act(cursor.obs(t));
                cursor.apply(t, action);
                r += 1;
                assert_eq!(Snap::of(&twin, action, cursor), hist[r], "act at {r}");
                continue;
            }
            let span = span as usize;
            assert!(r + span < hist.len(), "the run ends on a period boundary");
            for k in 1..=span {
                let mut part = twin.clone();
                part.skip_idle(k as u64);
                let mut at = cursor;
                at.apply(t, Action::Stay);
                assert_eq!(Snap::of(&part, Action::Stay, at), hist[r + k], "skip {k} at {r}");
                if let Some(next) = hist.get(r + k + 1) {
                    assert_eq!(part.clone().act(at.obs(t)), next.action, "act after skip {k}");
                }
                part.skip_idle((span - k) as u64);
                assert_eq!(Snap::of(&part, Action::Stay, at), hist[r + span], "resume at {r}");
            }
            twin.skip_idle(span as u64);
            cursor.apply(t, Action::Stay);
            r += span;
            spans += 1;
        }
        spans
    }

    #[test]
    fn skip_idle_has_exactly_the_effect_of_act() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut trees: Vec<Tree> = [2, 5, 8].map(line).into();
        trees.extend([spider(3, 1), spider(3, 2), spider(3, 3)]);
        trees.extend([7, 9, 11].map(|n| random_relabel(&random_tree(n, &mut rng), &mut rng)));
        for t in &trees {
            for start in 0..t.num_nodes() as NodeId {
                let spans = assert_skip_idle_is_act(t, start);
                assert!(spans >= 3, "n={} start={start}: one span per period", t.num_nodes());
            }
        }
    }

    #[test]
    #[should_panic(expected = "past the idle span")]
    fn skip_idle_past_the_span_panics() {
        let t = line(4);
        let mut agent = DelayRobustAgent::new();
        let mut cursor = Cursor::new(1);
        while agent.idle_span() == 0 {
            let action = agent.act(cursor.obs(&t));
            cursor.apply(&t, action);
        }
        let span = agent.idle_span();
        agent.skip_idle(span + 1);
    }
}
