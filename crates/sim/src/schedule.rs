//! Eventually-periodic activation schedules — the adversary's full power
//! over *when* agents run.
//!
//! The paper's arbitrary-delay scenario gives the adversary one knob: a
//! start delay θ that holds agent B at home for the first θ rounds. The
//! delay-fault literature (Chalopin et al., *Rendezvous in Networks in
//! Spite of Delay Faults*) generalizes the knob to per-round faults: in
//! every round the adversary decides, per agent, whether that agent is
//! *activated* (observes and acts) or *frozen* (its cursor — node and
//! entry port — is untouched and it perceives nothing). A [`Schedule`]
//! captures the eventually-periodic fragment of that power: explicit
//! per-round flags for a finite prefix, then a cycle repeated forever.
//! Eventual periodicity is what keeps every downstream question decidable
//! — the exact decider extends its product construction by the cycle
//! position (`rvz_lowerbounds::decide::decide_pair_scheduled`), and the
//! trace-replay engine answers schedule cells against unchanged solo
//! recordings ([`crate::trace::replay_ensemble`]; a pair [`Schedule`]
//! enters it as the two-lane [`EnsembleSchedule::from_pair`]).
//!
//! The frozen semantics is chosen so that an agent's trajectory *as a
//! function of its activation count* is schedule-independent: the k-th
//! activation of a deterministic agent sees exactly the observation it
//! would see in an uninterrupted solo run. That invariant is what lets
//! one [`crate::trace::Trajectory`] recording serve every schedule
//! ([`ActivationIndex`] maps global rounds to activation counts and
//! back), and it makes [`Schedule::start_delay`] literally the legacy
//! scenario: a prefix of `(true, false)` rounds, then both agents forever.
//!
//! Round indices are 1-based throughout, matching the simulator: round 0
//! is the initial placement (before any activation), and
//! [`Schedule::active`]`(r)` answers for rounds `r ≥ 1`.

use std::borrow::Cow;
use std::iter::repeat_n;

/// An eventually-periodic activation schedule for a two-agent run: which
/// agents the adversary activates each round. Entry `(a, b)` activates
/// agent A iff `a` and agent B iff `b`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Schedule {
    /// Activation flags for rounds `1..=prefix.len()`.
    pub prefix: Vec<(bool, bool)>,
    /// Flags repeated forever after the prefix; never empty.
    pub cycle: Vec<(bool, bool)>,
}

impl Schedule {
    /// Materialization cap for the constructors that unroll a round count
    /// into explicit prefix entries ([`Schedule::start_delay`],
    /// [`Schedule::crash_after`], [`EnsembleSchedule::crash_last_after`]).
    /// Delays beyond it have no pair-schedule form — use
    /// [`EnsembleSchedule::start_delays`] (or `PairConfig::delayed`),
    /// which carries θ as a single integer.
    pub const MAX_MATERIALIZED_PREFIX: u64 = 1 << 22;

    /// A schedule from explicit parts. The cycle must be non-empty (the
    /// prefix may be).
    pub fn new(prefix: Vec<(bool, bool)>, cycle: Vec<(bool, bool)>) -> Self {
        assert!(!cycle.is_empty(), "schedule cycle must be non-empty");
        Schedule { prefix, cycle }
    }

    /// Both agents every round — the simultaneous-start scenario.
    pub fn simultaneous() -> Self {
        Schedule::new(Vec::new(), vec![(true, true)])
    }

    /// The legacy start-delay scenario as a schedule: agent A runs from
    /// round 1, agent B from round `theta + 1`.
    pub fn start_delay(theta: u64) -> Self {
        assert!(
            theta <= Self::MAX_MATERIALIZED_PREFIX,
            "start_delay({theta}) would materialize a {theta}-entry prefix; \
             use EnsembleSchedule::start_delays for delays past MAX_MATERIALIZED_PREFIX"
        );
        Schedule::new(vec![(true, false); theta as usize], vec![(true, true)])
    }

    /// Agent A every round; agent B only in rounds `r` with
    /// `(r - 1) mod period == phase` — the adversary slows one agent to a
    /// `1/period` duty cycle. `intermittent(1, 0)` is
    /// [`Schedule::simultaneous`].
    pub fn intermittent(period: u64, phase: u64) -> Self {
        assert!(period >= 1, "intermittent period must be at least 1");
        assert!(phase < period, "intermittent phase must be below the period");
        Schedule::new(Vec::new(), (0..period).map(|i| (true, i == phase)).collect())
    }

    /// Both agents for `rounds` rounds, then agent B crashes (is never
    /// activated again) while A keeps running — the crash-fault scenario.
    pub fn crash_after(rounds: u64) -> Self {
        assert!(
            rounds <= Self::MAX_MATERIALIZED_PREFIX,
            "crash_after({rounds}) would materialize a {rounds}-entry prefix"
        );
        Schedule::new(vec![(true, true); rounds as usize], vec![(true, false)])
    }

    /// A seeded adversarial sample: uniformly random flags over a prefix
    /// of length `≤ max_prefix` and a cycle of length `1..=max_cycle`,
    /// deterministic in `seed`. A cycle that activates nobody is patched
    /// to `(true, true)` in its first slot so the sampled run cannot
    /// freeze forever (the all-frozen tail is a legal but trivial
    /// adversary — every pair with distinct starts never meets).
    pub fn adversarial(seed: u64, max_prefix: usize, max_cycle: usize) -> Self {
        assert!(max_cycle >= 1, "cycle needs at least one slot to sample");
        let mut state = seed;
        let mut next = move || {
            // splitmix64: the same deterministic stream the sweep's
            // per-cell seeding uses; no RNG dependency.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let flag = |bits: u64| (bits & 1 != 0, bits & 2 != 0);
        let p = (next() % (max_prefix as u64 + 1)) as usize;
        let c = (1 + next() % max_cycle as u64) as usize;
        let prefix = (0..p).map(|_| flag(next())).collect();
        let mut cycle: Vec<(bool, bool)> = (0..c).map(|_| flag(next())).collect();
        if cycle.iter().all(|&(a, b)| !a && !b) {
            cycle[0] = (true, true);
        }
        Schedule::new(prefix, cycle)
    }

    pub fn prefix_len(&self) -> u64 {
        self.prefix.len() as u64
    }

    pub fn cycle_len(&self) -> u64 {
        self.cycle.len() as u64
    }

    /// Activation flags for round `round ≥ 1`.
    #[inline]
    pub fn active(&self, round: u64) -> (bool, bool) {
        debug_assert!(round >= 1, "round 0 is the initial placement, nobody acts");
        let p = self.prefix.len() as u64;
        if round <= p {
            self.prefix[(round - 1) as usize]
        } else {
            self.cycle[((round - 1 - p) % self.cycle.len() as u64) as usize]
        }
    }

    /// `true` when the two lanes see identical activation flags every
    /// round (simultaneous, lockstep, any global-stall pattern). For such
    /// schedules swapping the agents merely relabels the lanes, so the
    /// rendezvous verdict for `(a, b)` equals the verdict for `(b, a)` —
    /// the swap half of the sweep's start-pair orbit quotient is sound
    /// exactly on this class.
    pub fn lane_symmetric(&self) -> bool {
        self.prefix.iter().chain(&self.cycle).all(|&(a, b)| a == b)
    }
}

/// An eventually-periodic activation schedule over `k` lanes — the
/// ensemble generalization of the two-agent [`Schedule`]. Each round is
/// a row of `k` flags; lane `i` of the row says whether agent `i` is
/// activated that round. The frozen semantics is unchanged: a lane whose
/// flag is off keeps its cursor (node *and* entry port) and perceives
/// nothing, so each lane's trajectory as a function of its activation
/// count is schedule-independent — one solo recording per agent serves
/// every ensemble schedule.
///
/// Every pair [`Schedule`] embeds as a two-lane `EnsembleSchedule`
/// ([`EnsembleSchedule::from_pair`]) with identical activation flags round
/// for round.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EnsembleSchedule {
    /// Lane count `k ≥ 1`; every row below has exactly `k` flags.
    lanes: usize,
    /// The prefix as runs of identical rows: run `j` covers the rounds
    /// after `prefix_ends[j - 1]` (after round 0 for `j = 0`) through
    /// `prefix_ends[j]`, with the flags `prefix_rows[j * lanes..][..lanes]`.
    /// Adjacent runs differ, so the form is canonical, and a start delay θ
    /// costs one run per distinct delay rather than θ rows.
    prefix_ends: Vec<u64>,
    prefix_rows: Vec<bool>,
    /// Rows repeated forever after the prefix, flattened (lane `i` of
    /// cycle slot `s` is `cycle[s * lanes + i]`); never empty.
    cycle: Vec<bool>,
}

impl EnsembleSchedule {
    /// A schedule from explicit rows. The cycle must be non-empty and
    /// every row must have exactly `lanes` flags.
    pub fn new(lanes: usize, prefix: Vec<Vec<bool>>, cycle: Vec<Vec<bool>>) -> Self {
        assert!(lanes >= 1, "an ensemble schedule needs at least one lane");
        assert!(!cycle.is_empty(), "schedule cycle must be non-empty");
        for row in prefix.iter().chain(&cycle) {
            assert_eq!(row.len(), lanes, "every schedule row must cover all {lanes} lanes");
        }
        let mut s = Self::cycling(lanes, cycle.concat());
        for row in &prefix {
            s.push_rows(1, row);
        }
        s
    }

    /// An empty prefix before `cycle` (flattened rows).
    fn cycling(lanes: usize, cycle: Vec<bool>) -> Self {
        EnsembleSchedule { lanes, prefix_ends: Vec::new(), prefix_rows: Vec::new(), cycle }
    }

    /// Appends `len ≥ 1` rounds of `row` to the prefix.
    fn push_rows(&mut self, len: u64, row: &[bool]) {
        let end = self.prefix_len() + len;
        let k = self.lanes;
        match self.prefix_ends.last_mut() {
            Some(last) if self.prefix_rows[self.prefix_rows.len() - k..] == *row => *last = end,
            _ => {
                self.prefix_ends.push(end);
                self.prefix_rows.extend_from_slice(row);
            }
        }
    }

    /// All `k` agents every round — the simultaneous-start scenario.
    pub fn simultaneous(lanes: usize) -> Self {
        EnsembleSchedule::new(lanes, Vec::new(), vec![vec![true; lanes]])
    }

    /// Per-lane start delays: lane `i` is frozen through round
    /// `delays[i]` and active from round `delays[i] + 1` forever. The
    /// two-lane form with `delays = [0, θ]` is exactly
    /// [`Schedule::start_delay`]`(θ)`. Any θ fits: the prefix holds one
    /// run per distinct delay.
    pub fn start_delays(delays: &[u64]) -> Self {
        let lanes = delays.len();
        assert!(lanes >= 1, "an ensemble schedule needs at least one lane");
        let mut bounds: Vec<u64> = delays.iter().copied().filter(|&d| d > 0).collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut s = Self::cycling(lanes, vec![true; lanes]);
        let mut row = vec![false; lanes];
        let mut done = 0;
        for bound in bounds {
            // Through `bound`, exactly the lanes delayed at most `done`
            // rounds are running.
            for (flag, &d) in row.iter_mut().zip(delays) {
                *flag = d <= done;
            }
            s.push_rows(bound - done, &row);
            done = bound;
        }
        s
    }

    /// All lanes for `rounds` rounds, then the last lane crashes (is
    /// never activated again) while the rest keep running — the
    /// ensemble form of [`Schedule::crash_after`]. Capped like it: the
    /// crashed lane's [`ActivationIndex`] tabulates the prefix.
    pub fn crash_last_after(lanes: usize, rounds: u64) -> Self {
        assert!(
            rounds <= Schedule::MAX_MATERIALIZED_PREFIX,
            "crash_last_after({rounds}) would materialize a {rounds}-entry prefix"
        );
        let mut survivor_row = vec![true; lanes];
        survivor_row[lanes - 1] = false;
        let mut s = Self::cycling(lanes, survivor_row);
        if rounds > 0 {
            s.push_rows(rounds, &vec![true; lanes]);
        }
        s
    }

    /// Lanes `0..k-1` every round; the last lane only in rounds `r` with
    /// `(r - 1) mod period == phase` — [`Schedule::intermittent`] over
    /// `k` lanes.
    pub fn intermittent_last(lanes: usize, period: u64, phase: u64) -> Self {
        assert!(period >= 1, "intermittent period must be at least 1");
        assert!(phase < period, "intermittent phase must be below the period");
        let cycle = (0..period)
            .map(|i| {
                let mut row = vec![true; lanes];
                row[lanes - 1] = i == phase;
                row
            })
            .collect();
        EnsembleSchedule::new(lanes, Vec::new(), cycle)
    }

    /// The two-lane view of a pair [`Schedule`] — flag-for-flag
    /// identical, so every pair engine and its ensemble generalization
    /// see the same adversary.
    pub fn from_pair(s: &Schedule) -> Self {
        let mut e = Self::cycling(2, s.cycle.iter().flat_map(|&(a, b)| [a, b]).collect());
        for &(a, b) in &s.prefix {
            e.push_rows(1, &[a, b]);
        }
        e
    }

    pub fn lanes(&self) -> usize {
        self.lanes
    }

    pub fn prefix_len(&self) -> u64 {
        self.prefix_ends.last().copied().unwrap_or(0)
    }

    pub fn cycle_len(&self) -> u64 {
        (self.cycle.len() / self.lanes) as u64
    }

    /// Activation flags for round `round ≥ 1`, one per lane.
    #[inline]
    pub fn active(&self, round: u64) -> &[bool] {
        debug_assert!(round >= 1, "round 0 is the initial placement, nobody acts");
        let k = self.lanes;
        let p = self.prefix_len();
        if round <= p {
            let run = self.prefix_ends.partition_point(|&end| end < round);
            &self.prefix_rows[run * k..][..k]
        } else {
            let slot = ((round - 1 - p) % self.cycle_len()) as usize;
            &self.cycle[slot * k..][..k]
        }
    }

    /// `true` when every lane sees identical flags every round — the
    /// class on which permuting the agents merely relabels lanes, so the
    /// sweep's orbit quotient may permute start tuples soundly.
    pub fn lane_symmetric(&self) -> bool {
        let k = self.lanes;
        self.prefix_rows
            .chunks(k)
            .chain(self.cycle.chunks(k))
            .all(|row| row.iter().all(|&f| f == row[0]))
    }

    /// The per-lane start delays, when this schedule is a pure start-delay
    /// scenario: the cycle is one all-active row and each lane's prefix is
    /// a (possibly empty) run of frozen rounds followed only by active
    /// ones. `None` for every other shape. The decider uses this to route
    /// start-delay ensembles to the solo-lasso closed form instead of the
    /// product walk, and the engines to constant-shift lanes.
    pub fn as_start_delays(&self) -> Option<Vec<u64>> {
        if self.cycle_len() != 1 {
            return None;
        }
        (0..self.lanes).map(|lane| self.lane_delay(lane)).collect()
    }

    /// Lane `lane`'s start delay θ when the lane on its own is a pure start
    /// delay: frozen through round θ, then active in every round.
    fn lane_delay(&self, lane: usize) -> Option<u64> {
        let k = self.lanes;
        if self.cycle.iter().skip(lane).step_by(k).any(|&f| !f) {
            return None;
        }
        let (mut delay, mut started) = (0, false);
        for (&end, row) in self.prefix_ends.iter().zip(self.prefix_rows.chunks(k)) {
            if row[lane] {
                started = true;
            } else if started {
                return None; // frozen again after starting: not a delay
            } else {
                delay = end;
            }
        }
        Some(delay)
    }

    /// Activation arithmetic for lane `lane`.
    pub fn index(&self, lane: usize) -> ActivationIndex {
        assert!(lane < self.lanes, "lane {lane} out of range for {} lanes", self.lanes);
        if let Some(theta) = self.lane_delay(lane) {
            return ActivationIndex::shifted(theta);
        }
        let starts = std::iter::once(0).chain(self.prefix_ends.iter().copied());
        let runs = self.prefix_ends.iter().zip(starts).zip(self.prefix_rows.chunks(self.lanes));
        let prefix =
            runs.flat_map(|((end, start), row)| repeat_n(row[lane], (end - start) as usize));
        ActivationIndex::from_flags(
            prefix,
            self.cycle.iter().skip(lane).step_by(self.lanes).copied(),
        )
    }
}

/// One lane's activation arithmetic under an [`EnsembleSchedule`] (a pair
/// [`Schedule`] enters through [`EnsembleSchedule::from_pair`]): cumulative
/// activation counts over the prefix and one cycle, answering both
/// directions of the round ↔ activation-count correspondence in
/// O(log(prefix + cycle)). This is the "schedule-aware cursor
/// advancement" the trace-replay merge runs on: a solo
/// [`crate::trace::Trajectory`] is indexed by activation count, and the
/// merge's global clock is rounds.
#[derive(Debug, Clone)]
pub struct ActivationIndex {
    /// Rounds `1..=shift` are frozen; the tables below then count from
    /// round `shift + 1` as their round 1. A pure start delay θ is
    /// `shift = θ` over the always-active tables, O(1) whatever θ.
    shift: u64,
    /// `prefix_cum[i]` = activations in rounds `1..=i`; length `p + 1`.
    prefix_cum: Cow<'static, [u64]>,
    /// `cycle_cum[i]` = activations in the first `i` cycle slots; length
    /// `c + 1`.
    cycle_cum: Cow<'static, [u64]>,
}

impl ActivationIndex {
    /// Activation arithmetic from one lane's raw flag streams.
    fn from_flags(prefix: impl Iterator<Item = bool>, cycle: impl Iterator<Item = bool>) -> Self {
        fn cum(flags: impl Iterator<Item = bool>) -> Vec<u64> {
            let mut v = vec![0u64];
            for f in flags {
                let last = *v.last().expect("seeded");
                v.push(last + u64::from(f));
            }
            v
        }
        ActivationIndex { shift: 0, prefix_cum: cum(prefix).into(), cycle_cum: cum(cycle).into() }
    }

    /// A lane frozen through round `theta` and active every round after.
    fn shifted(theta: u64) -> Self {
        // Borrowed tables: a start-delay lane's index allocates nothing.
        let (prefix_cum, cycle_cum) = (Cow::Borrowed(&[0][..]), Cow::Borrowed(&[0, 1][..]));
        ActivationIndex { shift: theta, prefix_cum, cycle_cum }
    }

    /// Activations per full cycle.
    pub fn per_cycle(&self) -> u64 {
        *self.cycle_cum.last().expect("cycle_cum seeded")
    }

    /// Number of activations in rounds `1..=round` (0 at round 0).
    pub fn acts_at(&self, round: u64) -> u64 {
        let round = round.saturating_sub(self.shift);
        let p = (self.prefix_cum.len() - 1) as u64;
        if round <= p {
            return self.prefix_cum[round as usize];
        }
        let c = (self.cycle_cum.len() - 1) as u64;
        let past = round - p;
        self.prefix_cum[p as usize]
            .saturating_add((past / c).saturating_mul(self.per_cycle()))
            .saturating_add(self.cycle_cum[(past % c) as usize])
    }

    /// Global round of the `k`-th activation (`k ≥ 1`), or `None` when
    /// the agent is activated fewer than `k` times ever (it crashed, or
    /// the cycle never activates it).
    pub fn round_of_act(&self, k: u64) -> Option<u64> {
        debug_assert!(k >= 1, "activation counts are 1-based");
        let p = (self.prefix_cum.len() - 1) as u64;
        let in_prefix = self.prefix_cum[p as usize];
        if k <= in_prefix {
            let local = self.prefix_cum.partition_point(|&v| v < k) as u64;
            return Some(local.saturating_add(self.shift));
        }
        let per = self.per_cycle();
        if per == 0 {
            return None;
        }
        let c = (self.cycle_cum.len() - 1) as u64;
        let rem = k - in_prefix; // ≥ 1
        let full = (rem - 1) / per;
        let within = rem - full * per; // 1..=per
        let slot = self.cycle_cum.partition_point(|&v| v < within) as u64;
        Some(
            p.saturating_add(full.saturating_mul(c))
                .saturating_add(slot)
                .saturating_add(self.shift),
        )
    }

    /// Last global round at which the activation count is still below
    /// `k + 1` — i.e. through which an agent frozen after its `k`-th
    /// activation provably keeps its cursor. `u64::MAX` when activation
    /// `k + 1` never happens.
    pub fn frozen_through(&self, k: u64) -> u64 {
        match self.round_of_act(k.saturating_add(1)) {
            Some(r) => r - 1,
            None => u64::MAX,
        }
    }

    /// `Some(θ)` when this lane is a pure start delay — frozen through
    /// round `θ`, active every round after — so `acts_at(r) = r − θ`
    /// (saturating) and the merge can run on constant-shift arithmetic
    /// instead of the cycle div/mod and binary searches. This covers the
    /// simultaneous and θ-delayed lanes of every schedule (the bulk of
    /// the sweep grids) and the survivors of a crash; crashed and
    /// intermittent lanes keep the general index.
    pub(crate) fn as_pure_shift(&self) -> Option<u64> {
        (*self.prefix_cum == [0] && *self.cycle_cum == [0, 1]).then_some(self.shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_symmetry_matches_the_flag_pattern() {
        assert!(Schedule::simultaneous().lane_symmetric());
        assert!(Schedule::new(Vec::new(), vec![(true, true), (false, false)]).lane_symmetric());
        assert!(!Schedule::start_delay(1).lane_symmetric());
        assert!(!Schedule::intermittent(2, 0).lane_symmetric());
        assert!(!Schedule::crash_after(3).lane_symmetric());
        // θ = 0 start delay has an empty prefix and a both-on cycle.
        assert!(Schedule::start_delay(0).lane_symmetric());
    }

    /// The activation arithmetic of a pair schedule's two lanes.
    fn lane_indices(s: &Schedule) -> [ActivationIndex; 2] {
        let e = EnsembleSchedule::from_pair(s);
        [e.index(0), e.index(1)]
    }

    /// Brute-force activation count straight off `Schedule::active`.
    fn brute_acts(s: &Schedule, second: bool, round: u64) -> u64 {
        (1..=round)
            .filter(|&r| {
                let (a, b) = s.active(r);
                if second {
                    b
                } else {
                    a
                }
            })
            .count() as u64
    }

    #[test]
    fn constructors_have_the_advertised_shapes() {
        let delays = |s: Schedule| EnsembleSchedule::from_pair(&s).as_start_delays();
        assert_eq!(delays(Schedule::simultaneous()), Some(vec![0, 0]));
        assert_eq!(Schedule::start_delay(0), Schedule::simultaneous());
        assert_eq!(delays(Schedule::start_delay(3)), Some(vec![0, 3]));
        assert_eq!(Schedule::intermittent(1, 0), Schedule::simultaneous());
        assert_eq!(delays(Schedule::intermittent(2, 1)), None);
        assert_eq!(delays(Schedule::crash_after(4)), None);
        // intermittent activates B exactly once per period, at the phase.
        let s = Schedule::intermittent(3, 1);
        for r in 1..=12u64 {
            assert_eq!(s.active(r), (true, (r - 1) % 3 == 1), "round {r}");
        }
        // crash_after freezes B from round rounds+1 on.
        let s = Schedule::crash_after(2);
        assert_eq!(s.active(2), (true, true));
        assert_eq!(s.active(3), (true, false));
        assert_eq!(s.active(1_000_000), (true, false));
    }

    #[test]
    fn active_is_periodic_past_the_prefix() {
        let s = Schedule::new(
            vec![(false, true), (true, false)],
            vec![(true, true), (false, false), (true, false)],
        );
        for r in 3..=40u64 {
            assert_eq!(s.active(r), s.active(r + 3), "round {r}");
        }
        assert_eq!(s.active(1), (false, true));
        assert_eq!(s.active(2), (true, false));
    }

    #[test]
    fn activation_index_matches_brute_force_counting() {
        let schedules = [
            Schedule::simultaneous(),
            Schedule::start_delay(5),
            Schedule::intermittent(3, 2),
            Schedule::crash_after(4),
            Schedule::new(vec![(false, false); 3], vec![(true, false), (false, true)]),
            Schedule::adversarial(0xFEED, 6, 5),
        ];
        for s in &schedules {
            for (second, idx) in [false, true].into_iter().zip(lane_indices(s)) {
                for round in 0..=50u64 {
                    assert_eq!(
                        idx.acts_at(round),
                        brute_acts(s, second, round),
                        "{s:?} second={second} round={round}"
                    );
                }
            }
        }
    }

    #[test]
    fn round_of_act_inverts_acts_at() {
        let schedules = [
            Schedule::start_delay(4),
            Schedule::intermittent(4, 1),
            Schedule::crash_after(3),
            Schedule::adversarial(7, 5, 4),
        ];
        for s in &schedules {
            for idx in lane_indices(s) {
                for k in 1..=30u64 {
                    match idx.round_of_act(k) {
                        Some(r) => {
                            assert_eq!(idx.acts_at(r), k, "{s:?} k={k}: round {r}");
                            assert_eq!(idx.acts_at(r - 1), k - 1, "{s:?} k={k}: activation round");
                        }
                        None => {
                            // Bounded activations: the count plateaus.
                            assert!(idx.acts_at(1 << 20) < k, "{s:?} k={k}");
                        }
                    }
                }
                // frozen_through is the round before the next activation.
                for k in 0..=10u64 {
                    let end = idx.frozen_through(k);
                    if end != u64::MAX {
                        assert_eq!(idx.acts_at(end), k);
                        assert_eq!(idx.acts_at(end + 1), k + 1);
                    }
                }
            }
        }
    }

    #[test]
    fn crashed_agent_has_finitely_many_activations() {
        let [_, idx] = lane_indices(&Schedule::crash_after(3));
        assert_eq!(idx.round_of_act(3), Some(3));
        assert_eq!(idx.round_of_act(4), None);
        assert_eq!(idx.frozen_through(3), u64::MAX);
        assert_eq!(idx.acts_at(1 << 40), 3);
    }

    #[test]
    fn adversarial_sampler_is_deterministic_and_live() {
        let a = Schedule::adversarial(42, 8, 6);
        let b = Schedule::adversarial(42, 8, 6);
        assert_eq!(a, b, "same seed, same schedule");
        for seed in 0..64u64 {
            let s = Schedule::adversarial(seed, 8, 6);
            assert!(!s.cycle.is_empty());
            assert!(
                s.cycle.iter().any(|&(a, b)| a || b),
                "sampled cycle must activate someone (seed {seed})"
            );
            assert!(s.prefix.len() <= 8 && s.cycle.len() <= 6);
        }
    }

    #[test]
    #[should_panic(expected = "cycle must be non-empty")]
    fn empty_cycles_are_rejected() {
        let _ = Schedule::new(vec![(true, true)], Vec::new());
    }

    #[test]
    fn ensemble_round_trip_matches_the_pair_schedule_flag_for_flag() {
        let schedules = [
            Schedule::simultaneous(),
            Schedule::start_delay(4),
            Schedule::intermittent(3, 1),
            Schedule::crash_after(2),
            Schedule::adversarial(0xABCD, 5, 4),
        ];
        for s in &schedules {
            let e = EnsembleSchedule::from_pair(s);
            assert_eq!(e.lanes(), 2);
            assert_eq!(e.lane_symmetric(), s.lane_symmetric());
            for r in 1..=40u64 {
                let (a, b) = s.active(r);
                assert_eq!(e.active(r), &[a, b], "{s:?} round {r}");
            }
            for lane in 0..2 {
                let ei = e.index(lane);
                for r in 0..=40u64 {
                    let brute = brute_acts(s, lane == 1, r);
                    assert_eq!(ei.acts_at(r), brute, "{s:?} lane {lane} round {r}");
                }
            }
        }
    }

    #[test]
    fn ensemble_constructors_generalize_the_pair_shapes() {
        // start_delays([0, θ]) is the legacy start-delay scenario.
        for theta in [0u64, 1, 5] {
            let e = EnsembleSchedule::start_delays(&[0, theta]);
            assert_eq!(e, EnsembleSchedule::from_pair(&Schedule::start_delay(theta)), "θ={theta}");
        }
        // crash_last_after over two lanes is crash_after.
        let crash = EnsembleSchedule::crash_last_after(2, 3);
        assert_eq!(crash, EnsembleSchedule::from_pair(&Schedule::crash_after(3)));
        // intermittent_last over two lanes is intermittent.
        assert_eq!(
            EnsembleSchedule::intermittent_last(2, 3, 1),
            EnsembleSchedule::from_pair(&Schedule::intermittent(3, 1))
        );
        // Three lanes with staggered delays: lane i first acts at round
        // delays[i] + 1.
        let e = EnsembleSchedule::start_delays(&[0, 2, 5]);
        for (lane, delay) in [(0usize, 0u64), (1, 2), (2, 5)] {
            let idx = e.index(lane);
            assert_eq!(idx.acts_at(delay), 0, "lane {lane} frozen through its delay");
            assert_eq!(idx.round_of_act(1), Some(delay + 1), "lane {lane} first activation");
        }
        // Crash: the last lane plateaus, the others run forever.
        let e = EnsembleSchedule::crash_last_after(3, 4);
        assert_eq!(e.index(2).acts_at(1 << 30), 4);
        assert_eq!(e.index(0).acts_at(100), 100);
        assert!(!e.lane_symmetric());
        assert!(EnsembleSchedule::simultaneous(3).lane_symmetric());
    }

    #[test]
    #[should_panic(expected = "must cover all 3 lanes")]
    fn ragged_ensemble_rows_are_rejected() {
        let _ = EnsembleSchedule::new(3, Vec::new(), vec![vec![true, true]]);
    }

    #[test]
    fn start_delays_store_one_run_per_distinct_delay() {
        // The run-length prefix is canonical: the same rows compare equal
        // however they were built.
        let e = EnsembleSchedule::start_delays(&[0, 3]);
        assert_eq!(e, EnsembleSchedule::from_pair(&Schedule::start_delay(3)));
        assert_eq!(e.prefix_ends, vec![3]);
        let e = EnsembleSchedule::start_delays(&[4, 0, 9, 4]);
        assert_eq!(e.prefix_ends, vec![4, 9], "one run per distinct nonzero delay");
        assert_eq!(e.prefix_len(), 9);
        for r in 1..=12u64 {
            assert_eq!(e.active(r), &[r > 4, true, r > 9, r > 4], "round {r}");
        }
        // A delay past any materializable prefix is two runs of two flags,
        // and its lane index is pure shift arithmetic.
        let theta = 1_000_000_000_000u64;
        let e = EnsembleSchedule::start_delays(&[0, theta, 0]);
        assert_eq!(e.prefix_len(), theta);
        assert_eq!(e.as_start_delays(), Some(vec![0, theta, 0]));
        assert_eq!(e.active(theta), &[true, false, true]);
        assert_eq!(e.active(theta + 1), &[true, true, true]);
        assert_eq!(e.index(1).acts_at(theta + 5), 5);
        assert_eq!(e.index(1).round_of_act(1), Some(theta + 1));
        assert_eq!(e.index(1).as_pure_shift(), Some(theta));
    }

    #[test]
    fn start_delay_shapes_round_trip_through_as_start_delays() {
        for delays in [vec![0u64, 0], vec![0, 3], vec![2, 0, 5], vec![1, 1, 1, 1]] {
            let e = EnsembleSchedule::start_delays(&delays);
            assert_eq!(e.as_start_delays(), Some(delays.clone()), "{delays:?}");
        }
        assert_eq!(EnsembleSchedule::simultaneous(3).as_start_delays(), Some(vec![0, 0, 0]));
        // Crashes freeze a lane *after* it started; intermittence has a
        // non-trivial cycle — neither is a start-delay scenario.
        assert_eq!(EnsembleSchedule::crash_last_after(3, 2).as_start_delays(), None);
        assert_eq!(EnsembleSchedule::intermittent_last(3, 2, 0).as_start_delays(), None);
        // A lane frozen again after acting is not a delay either.
        let e = EnsembleSchedule::new(
            2,
            vec![vec![true, true], vec![true, false]],
            vec![vec![true, true]],
        );
        assert_eq!(e.as_start_delays(), None);
    }
}
