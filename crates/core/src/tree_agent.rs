//! The Theorem 4.1 agent: deterministic rendezvous with simultaneous start
//! in arbitrary trees using `O(log ℓ + log log n)` bits of memory.
//!
//! Faithful staging of §4.1:
//!
//! 1. **Stage 1** — `Explo-bis` from the start `v`: walk to `v̂`, learn the
//!    contraction `T'` (its size `ν`, leaf count `ℓ`, Stage-2 shape and the
//!    basic-walk step counts to the landmarks).
//! 2. **Stage 2, `T'` not symmetric** — walk (counting `T'`-node visits) to
//!    the central node, or to the canonical extremity of the central edge,
//!    and wait forever: both agents pick the same physical node.
//! 3. **Stage 2, `T'` symmetric** — Sub-stage 2.1 `Synchro` (delay becomes
//!    exactly `|L − L'|`, Claim 4.2); walk to `v̂_far` (the farthest
//!    extremity of `T'`'s central edge); then the Figure-2 double loop:
//!
//!    ```text
//!    for i = 1, 2, … do                       /* outer loop */
//!        for j = 0, 1, …, 2(ν−1) do           /* first inner loop */
//!            bw(j); cbw(j);                   /* desynchronization probe */
//!            prime(i) on the rendezvous path P
//!        go to the other extremity of the central path C
//!        for j = 0, 1, …, 2(ν−1) do bw(j); cbw(j)   /* reset */
//!        return to the original extremity of C
//!    ```
//!
//!    If the starts are not perfectly symmetrizable, some probe leaves the
//!    two agents desynchronized by `0 < δ < |P|` (Lemmas 4.2/4.3), and
//!    `prime(i)` with `i = O(log n)` meets on `P` (Lemma 4.1). When both
//!    agents converge to the *same* extremity (`v̂_far = v̂'_far`), the
//!    trailing agent catches the leader inside an idle window as soon as
//!    the prime exceeds their constant offset.
//!
//! Memory: the Figure-2 machinery uses counters bounded by `2(ν−1) ≤ 4ℓ`,
//! the segment cursor of `P` (`≤ 20ℓ+3`), and the prime machinery
//! (`O(log log n)` bits); `Explo-bis` is charged per the Fact 2.1 contract
//! (see docs/design-notes.md §D4). [`TreeRendezvousAgent::memory_bits`] reports
//! charged-Explo + measured-everything-else; the fully measured variant
//! (including the reconstruction scratch) is
//! [`TreeRendezvousAgent::memory_bits_measured`].

use crate::rv_path::{PrimeOnPath, RvPathConfig};
use rvz_agent::meter::bits_for;
use rvz_agent::model::{Action, Agent, Obs, Step, SubAgent};
use rvz_explore::{BwCounted, CbwCounted, CrossPath, ExploBis, Synchro, TprimeShape};

/// Sub-stages of the Figure-2 loop.
#[derive(Debug, Clone)]
enum Fig2Stage {
    /// `bw(j)` of the first inner loop.
    TryBw(BwCounted),
    /// `cbw(j)` of the first inner loop.
    TryCbw(CbwCounted),
    /// `prime(i)` on the rendezvous path `P`.
    Prime(PrimeOnPath),
    /// Crossing `C` to the other extremity.
    CrossOut(CrossPath),
    /// `bw(j)` of the second (reset) inner loop.
    ResetBw(BwCounted),
    /// `cbw(j)` of the second inner loop.
    ResetCbw(CbwCounted),
    /// Returning to the original extremity of `C`.
    CrossBack(CrossPath),
}

#[derive(Debug, Clone)]
struct Fig2 {
    cfg: RvPathConfig,
    /// Outer loop index `i ≥ 1` (number of primes for `prime(i)`).
    i: u32,
    /// First-inner-loop index `j ∈ 0..=2(ν−1)`.
    j: u64,
    /// Second-inner-loop index.
    reset_j: u64,
    stage: Fig2Stage,
}

impl Fig2 {
    fn new(cfg: RvPathConfig) -> Self {
        Fig2 { cfg, i: 1, j: 0, reset_j: 0, stage: Fig2Stage::TryBw(BwCounted::new(0)) }
    }

    fn tour_len(&self) -> u64 {
        2 * (self.cfg.nu - 1)
    }
}

#[derive(Debug, Clone)]
enum TPhase {
    Explo(ExploBis),
    /// Walking to the Stage-2 waiting node (central node or canonical
    /// extremity).
    WalkToWait(BwCounted),
    WaitForever,
    Synchro(Synchro),
    WalkToFar(BwCounted),
    Fig2(Fig2),
}

/// Ablation switches for the Stage-2 machinery (docs/design-notes.md §D7 ablations;
/// defaults = the paper's algorithm). Used by the `ablation` experiments to
/// show which pieces are load-bearing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationConfig {
    /// Run Sub-stage 2.1 (`Synchro`). With our Explo substitute the phase
    /// durations are already uniform, so disabling it is *observed* to be
    /// harmless — an implementation note the paper's generality needs but
    /// our substitution makes moot (recorded in docs/design-notes.md §D7).
    pub synchro: bool,
    /// Run the `bw(j)/cbw(j)` desynchronization probes of Figure 2.
    /// Disabling them breaks the algorithm on double-spiders with equal
    /// leg sums: the agents stay perfectly synchronized and mirror each
    /// other on `P` forever (the constructive justification of Lemma 4.3).
    pub probes: bool,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig { synchro: true, probes: true }
    }
}

/// The Theorem 4.1 rendezvous agent.
#[derive(Debug, Clone)]
pub struct TreeRendezvousAgent {
    ablation: AblationConfig,
    phase: TPhase,
    /// The symmetric-case plan computed in Stage 1: the `P` walker config
    /// and the step count to `v̂_far`; consumed when `Synchro` ends.
    pending_cfg: Option<(RvPathConfig, u64)>,
    /// `(ν, ℓ)` once known.
    nu: u64,
    ell: u64,
    explo_charged: u64,
    explo_measured: u64,
    /// High-water marks for metering.
    max_i: u32,
    max_j: u64,
    max_prime: u64,
}

impl Default for TreeRendezvousAgent {
    fn default() -> Self {
        Self::new()
    }
}

impl TreeRendezvousAgent {
    pub fn new() -> Self {
        Self::with_ablation(AblationConfig::default())
    }

    /// An ablated variant (for the `experiments` ablation study only).
    pub fn with_ablation(ablation: AblationConfig) -> Self {
        TreeRendezvousAgent {
            ablation,
            phase: TPhase::Explo(ExploBis::new()),
            pending_cfg: None,
            nu: 0,
            ell: 0,
            explo_charged: 0,
            explo_measured: 0,
            max_i: 1,
            max_j: 0,
            max_prime: 2,
        }
    }

    /// Paper-claim memory: `Explo-bis` charged per the Fact 2.1 contract
    /// (`O(log ν) = O(log ℓ)`), everything else measured from counter
    /// high-water marks. This is the quantity Theorem 4.1 bounds by
    /// `O(log ℓ + log log n)`.
    pub fn memory_bits_charged(&self) -> u64 {
        self.explo_charged + self.stage2_bits()
    }

    /// Fully measured memory, including the reconstruction scratch of our
    /// `Explo` substitute (`Θ(ν log ν)` bits; see docs/design-notes.md §D4).
    pub fn memory_bits_measured(&self) -> u64 {
        self.explo_measured + self.stage2_bits()
    }

    /// Measured bits of everything the paper's own algorithm adds on top of
    /// `Explo`: loop indices, walk counters, the `P` cursor, the prime
    /// machinery.
    fn stage2_bits(&self) -> u64 {
        if self.nu == 0 {
            return 3; // phase tag only, nothing learned yet
        }
        let tour = 2 * (self.nu - 1);
        let segs = 20 * self.ell + 3;
        bits_for(self.max_i as u64)      // outer loop i
            + bits_for(self.max_j)       // inner loops j (≤ 2(ν−1))
            + bits_for(tour)             // bw/cbw visit counters
            + bits_for(segs)             // P segment cursor
            + bits_for(tour)             // P within-segment cursor
            + 3 * bits_for(self.max_prime) // prime p, idle counter, scratch
            + 3 // phase tags
    }

    /// Memory the automaton must be *provisioned* with to handle every tree
    /// with at most `n` nodes and at most `ell` leaves — the static
    /// `O(log ℓ + log log n)` of Theorem 4.1, independent of whether a
    /// particular run meets early. Counter widths: `Explo-bis` charged on
    /// the contraction (`ν ≤ 2ℓ−1`), the Figure-2 loop indices (`i` up to
    /// the Lemma 4.1 analysis bound for `|P| ≤ 30nℓ`, `j ≤ 2(ν−1)`), the
    /// `P` segment cursor, and the prime machinery.
    pub fn provisioned_bits(n: u64, ell: u64) -> u64 {
        let nu = (2 * ell - 1).max(2);
        let tour = 2 * (nu - 1);
        let segs = 20 * ell + 3;
        let p_len = 30 * n * ell; // |P| upper bound (§4.1: > 20nℓ, < 30nℓ)
        let i_max = crate::primes::primorial_index_bound(p_len.saturating_mul(p_len)) as u64 + 1;
        let p_max = crate::primes::nth_prime(i_max as u32);
        4 * bits_for(nu)          // Explo-bis (Fact 2.1 contract)
            + bits_for(i_max)     // outer loop i
            + 2 * bits_for(tour)  // j + bw/cbw counters
            + bits_for(segs)      // P segment cursor
            + bits_for(tour)      // P within-segment cursor
            + 3 * bits_for(p_max) // prime machinery
            + 3 // phase tags
    }

    /// The outer-loop index reached (diagnostics).
    pub fn outer_index(&self) -> u32 {
        self.max_i
    }

    /// The largest prime used (diagnostics).
    pub fn max_prime(&self) -> u64 {
        self.max_prime
    }

    /// `(ν, ℓ)` once Stage 1 is finished.
    pub fn tprime_dims(&self) -> Option<(u64, u64)> {
        (self.nu != 0).then_some((self.nu, self.ell))
    }

    /// Is the agent parked in its forever-wait state?
    pub fn waiting(&self) -> bool {
        matches!(self.phase, TPhase::WaitForever)
    }

    /// Dispatch after Stage 1: pick the Stage-2 plan from the shape.
    fn dispatch_after_explo(&mut self, explo: &ExploBis) {
        let res = explo.result().expect("Explo-bis finished");
        self.nu = res.nu;
        self.ell = res.leaves;
        self.explo_charged = res.charged_bits();
        self.explo_measured = res.measured_bits();
        match &res.shape {
            TprimeShape::CentralNode { steps, .. } => {
                self.phase = TPhase::WalkToWait(BwCounted::new(*steps));
            }
            TprimeShape::CentralEdgeAsym { steps, .. } => {
                self.phase = TPhase::WalkToWait(BwCounted::new(*steps));
            }
            TprimeShape::CentralEdgeSym {
                far, near, central_port_far, central_port_near, ..
            } => {
                let cfg = RvPathConfig {
                    nu: res.nu,
                    ell: res.leaves,
                    d_own: res.tprime.degree(*far),
                    d_other: res.tprime.degree(*near),
                    c_own: *central_port_far,
                    c_other: *central_port_near,
                };
                // Stash the config by entering Synchro now and Fig2 later.
                self.pending_cfg = Some((cfg, res.first_visit[*far as usize]));
                if self.ablation.synchro {
                    self.phase = TPhase::Synchro(Synchro::new(res.nu));
                } else {
                    let steps_far = res.first_visit[*far as usize];
                    self.phase = TPhase::WalkToFar(BwCounted::new(steps_far));
                }
            }
        }
    }
}

impl TreeRendezvousAgent {
    fn advance(&mut self, obs: Obs) -> Action {
        // Chain Step::Done transitions within one round; every chain is
        // finite (instant stages are the j = 0 walks and phase switches).
        for _guard in 0..32 {
            match &mut self.phase {
                TPhase::Explo(e) => match e.step(obs) {
                    Step::Done => {
                        let e = e.clone();
                        self.dispatch_after_explo(&e);
                        continue;
                    }
                    Step::Move(p) => return Action::Move(p),
                    Step::Stay => return Action::Stay,
                },
                TPhase::WalkToWait(w) => match w.step(obs) {
                    Step::Done => {
                        self.phase = TPhase::WaitForever;
                        continue;
                    }
                    Step::Move(p) => return Action::Move(p),
                    Step::Stay => return Action::Stay,
                },
                TPhase::WaitForever => return Action::Stay,
                TPhase::Synchro(s) => match s.step(obs) {
                    Step::Done => {
                        let (_, steps_far) = self.pending_cfg.as_ref().expect("set before Synchro");
                        self.phase = TPhase::WalkToFar(BwCounted::new(*steps_far));
                        continue;
                    }
                    Step::Move(p) => return Action::Move(p),
                    Step::Stay => return Action::Stay,
                },
                TPhase::WalkToFar(w) => match w.step(obs) {
                    Step::Done => {
                        let (cfg, _) = self.pending_cfg.take().expect("set before Synchro");
                        self.phase = TPhase::Fig2(Fig2::new(cfg));
                        continue;
                    }
                    Step::Move(p) => return Action::Move(p),
                    Step::Stay => return Action::Stay,
                },
                TPhase::Fig2(f) => {
                    // With probes ablated the inner loops collapse to their
                    // j = 0 iteration (prime(i) alone).
                    let tour = if self.ablation.probes { f.tour_len() } else { 0 };
                    match &mut f.stage {
                        Fig2Stage::TryBw(w) => match w.step(obs) {
                            Step::Done => {
                                f.stage = Fig2Stage::TryCbw(CbwCounted::reversing(f.j));
                                continue;
                            }
                            Step::Move(p) => return Action::Move(p),
                            Step::Stay => return Action::Stay,
                        },
                        Fig2Stage::TryCbw(w) => match w.step(obs) {
                            Step::Done => {
                                f.stage = Fig2Stage::Prime(PrimeOnPath::new(f.i, f.cfg));
                                continue;
                            }
                            Step::Move(p) => return Action::Move(p),
                            Step::Stay => return Action::Stay,
                        },
                        Fig2Stage::Prime(prime) => match prime.step(obs) {
                            Step::Done => {
                                self.max_prime = self.max_prime.max(prime.max_prime());
                                f.j += 1;
                                self.max_j = self.max_j.max(f.j);
                                if f.j <= tour {
                                    f.stage = Fig2Stage::TryBw(BwCounted::new(f.j));
                                } else {
                                    f.stage = Fig2Stage::CrossOut(CrossPath::new(f.cfg.c_own));
                                }
                                continue;
                            }
                            Step::Move(p) => return Action::Move(p),
                            Step::Stay => return Action::Stay,
                        },
                        Fig2Stage::CrossOut(c) => match c.step(obs) {
                            Step::Done => {
                                f.reset_j = 0;
                                f.stage = Fig2Stage::ResetBw(BwCounted::new(0));
                                continue;
                            }
                            Step::Move(p) => return Action::Move(p),
                            Step::Stay => return Action::Stay,
                        },
                        Fig2Stage::ResetBw(w) => match w.step(obs) {
                            Step::Done => {
                                f.stage = Fig2Stage::ResetCbw(CbwCounted::reversing(f.reset_j));
                                continue;
                            }
                            Step::Move(p) => return Action::Move(p),
                            Step::Stay => return Action::Stay,
                        },
                        Fig2Stage::ResetCbw(w) => match w.step(obs) {
                            Step::Done => {
                                f.reset_j += 1;
                                if f.reset_j <= tour {
                                    f.stage = Fig2Stage::ResetBw(BwCounted::new(f.reset_j));
                                } else {
                                    f.stage = Fig2Stage::CrossBack(CrossPath::new(f.cfg.c_other));
                                }
                                continue;
                            }
                            Step::Move(p) => return Action::Move(p),
                            Step::Stay => return Action::Stay,
                        },
                        Fig2Stage::CrossBack(c) => match c.step(obs) {
                            Step::Done => {
                                f.i += 1;
                                self.max_i = self.max_i.max(f.i);
                                f.j = 0;
                                f.stage = Fig2Stage::TryBw(BwCounted::new(0));
                                continue;
                            }
                            Step::Move(p) => return Action::Move(p),
                            Step::Stay => return Action::Stay,
                        },
                    }
                }
            }
        }
        unreachable!("phase chain exceeded the static bound");
    }
}

impl Agent for TreeRendezvousAgent {
    fn act(&mut self, obs: Obs) -> Action {
        self.advance(obs)
    }

    fn memory_bits(&self) -> u64 {
        self.memory_bits_charged()
    }

    fn name(&self) -> &'static str {
        "tree-rendezvous"
    }

    /// The Stage-2 wait-forever state is absorbing: the agent stays put and
    /// every meter high-water mark is frozen.
    fn idle_span(&self) -> u64 {
        if self.waiting() {
            u64::MAX
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rvz_sim::{run_pair, PairConfig};
    use rvz_trees::generators::{
        caterpillar, colored_line_center_zero, complete_binary, line, random_relabel, random_tree,
        spider, star,
    };
    use rvz_trees::{perfectly_symmetrizable, NodeId, Tree};

    fn meet(t: &Tree, a: NodeId, b: NodeId, budget: u64) -> (bool, u64, u64) {
        let mut x = TreeRendezvousAgent::new();
        let mut y = TreeRendezvousAgent::new();
        let run = run_pair(t, a, b, &mut x, &mut y, PairConfig::simultaneous(budget));
        let bits = x.memory_bits_charged().max(y.memory_bits_charged());
        (run.outcome.met(), run.outcome.round().unwrap_or(budget), bits)
    }

    #[test]
    fn central_node_case_meets_fast() {
        // Spider: T' has a central node (the hub); both agents walk there.
        let t = spider(3, 4);
        for (a, b) in [(4u32, 8u32), (1, 12), (0, 6)] {
            let (met, round, _) = meet(&t, a, b, 100_000);
            assert!(met, "({a},{b})");
            // Explo + the walk: comfortably within a few tours.
            assert!(round < 10 * 2 * (t.num_nodes() as u64), "({a},{b}) took {round}");
        }
    }

    #[test]
    fn star_meets_at_hub() {
        let t = star(6);
        let (met, _, _) = meet(&t, 1, 4, 10_000);
        assert!(met);
    }

    #[test]
    fn asymmetric_central_edge_meets() {
        // T' of this caterpillar has a central edge with non-isomorphic
        // halves: agents converge on the canonical extremity.
        let t = caterpillar(4, &[2, 0, 0, 3]);
        for (a, b) in [(0u32, 3u32), (4, 8), (1, 2)] {
            let (met, _, _) = meet(&t, a, b, 100_000);
            assert!(met, "({a},{b})");
        }
    }

    #[test]
    fn odd_line_meets_via_fig2() {
        // Any path has T' = a single (symmetric) edge, so this exercises
        // Synchro + Figure 2 + prime-on-P end to end. Odd lines are never
        // perfectly symmetrizable.
        let t = line(5);
        for (a, b) in [(0u32, 4u32), (0, 2), (1, 3), (1, 4)] {
            assert!(!perfectly_symmetrizable(&t, a, b));
            let (met, round, _) = meet(&t, a, b, 20_000_000);
            assert!(met, "({a},{b})");
            let _ = round;
        }
    }

    #[test]
    fn even_line_meets_on_asymmetric_pairs() {
        let t = line(6);
        for (a, b) in [(0u32, 4u32), (1, 5), (0, 1)] {
            assert!(!perfectly_symmetrizable(&t, a, b));
            let (met, _, _) = meet(&t, a, b, 20_000_000);
            assert!(met, "({a},{b})");
        }
    }

    #[test]
    fn even_line_mirror_pairs_never_meet() {
        // Perfectly symmetrizable pair + the mirror labeling: infeasible.
        let t = colored_line_center_zero(5); // 6 nodes
        for (a, b) in [(0u32, 5u32), (1, 4), (2, 3)] {
            assert!(perfectly_symmetrizable(&t, a, b));
            let (met, _, _) = meet(&t, a, b, 2_000_000);
            assert!(!met, "({a},{b}) must not meet");
        }
    }

    #[test]
    fn complete_binary_tree_meets() {
        // T' symmetric central edge; T has a central node, so no pair is
        // perfectly symmetrizable — even mirror leaves must meet.
        let t = complete_binary(2); // 7 nodes
        for (a, b) in [(3u32, 6u32), (1, 2), (3, 4), (0, 5)] {
            assert!(!perfectly_symmetrizable(&t, a, b));
            let (met, _, _) = meet(&t, a, b, 50_000_000);
            assert!(met, "({a},{b})");
        }
    }

    #[test]
    fn random_trees_meet_on_random_positions() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut tested = 0;
        while tested < 6 {
            let t = random_relabel(&random_tree(10, &mut rng), &mut rng);
            let a = 0u32;
            let b = (t.num_nodes() - 1) as u32;
            if perfectly_symmetrizable(&t, a, b) {
                continue;
            }
            let (met, _, _) = meet(&t, a, b, 50_000_000);
            assert!(met, "tree {t:?} pair ({a},{b})");
            tested += 1;
        }
    }

    #[test]
    fn memory_grows_like_log_ell_plus_loglog_n() {
        // Lines (ℓ = 2): memory must stay tiny as n grows.
        let mut prev_bits = 0;
        for n in [8usize, 64, 512] {
            let t = line(n);
            let (met, _, bits) = meet(&t, 1, (n as u32) - 1, 2_000_000_000);
            assert!(met, "n={n}");
            assert!(bits <= 60, "n={n}: {bits} bits is not O(log ℓ + log log n)");
            prev_bits = prev_bits.max(bits);
        }
        assert!(prev_bits > 0);
    }
}
