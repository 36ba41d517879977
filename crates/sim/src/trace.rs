//! Trace record/replay: tabulate an agent's deterministic trajectory once,
//! then answer every adversarial schedule against it by timeline merge.
//!
//! The paper's agents are deterministic and oblivious: the node an agent
//! occupies after `k` activations is a pure function of `(tree, start,
//! agent)` — no peer influences it (meeting is co-location, not
//! interaction), and the adversary's schedule merely re-times each
//! timeline (a start delay θ *shifts* it by θ rounds). So a `(schedule,
//! starts)` question never needs the agents stepped again: record each
//! trajectory once ([`TraceRecorder`]), then decide gathering and
//! crossings by a merge over the run-length–encoded timelines
//! ([`replay_ensemble`]), or sweep a whole delay column in one call
//! ([`gathering_scan`]). One merge serves every lane count: at `k = 2`
//! gathering is the paper's rendezvous, and the pair is just the two-lane
//! ensemble.
//!
//! Three properties make the merge cheap:
//!
//! * **Run-length encoding.** A [`Trajectory`] stores maximal constant-node
//!   runs, so the long passive windows of schedule-based agents (e.g. the
//!   delay-robust baseline, whose period is ≫ its 4n-round active window)
//!   cost one entry, and the merge jumps joint-stay spans in O(1): inside a
//!   span no agent moves, so no meeting (positions are constant and not
//!   all equal) and no crossing (a crossing requires two agents to move)
//!   can occur.
//! * **Idle spans and fixed-point tails.** An agent that reports an idle
//!   span ([`Agent::idle_span`]; e.g. the delay-robust baseline between
//!   its active tours) is recorded through it in O(1), not round by round.
//!   An absorbing agent (span `u64::MAX`; e.g. the Theorem-4.1 agent
//!   parked in its wait-forever stage) freezes its timeline: the suffix
//!   costs O(1) storage and the merge can declare `Timeout` without
//!   walking to the round budget — even when the budget is in the
//!   billions.
//! * **Prefix stability.** Recording more rounds never changes the rounds
//!   already recorded, so trajectories can be extended on demand
//!   ([`TraceRecorder::record_to`]) and cached across questions; replay
//!   results are independent of how eagerly the recording grew.
//!
//! [`replay_ensemble`] reproduces [`crate::run_ensemble`] *exactly* —
//! outcome, meeting round, crossing count, pair meetings, final cursors
//! (entry ports reconstructed from the node timeline; on a tree, a move
//! always changes the node, so `entry = None` iff the last action was a
//! stay) and optional traces. The differential property tests in
//! `tests/property_tests.rs` pin this equivalence at `k = 2` against
//! [`crate::run_pair`] and [`crate::run_pair_scheduled`] across random
//! trees, starts, delays, schedules and agent variants.

use crate::runner::{pair_index, Cursor, EnsembleRun, Outcome};
use crate::schedule::{ActivationIndex, EnsembleSchedule};
use rvz_agent::model::{Action, Agent};
use rvz_trees::{NodeId, Port, Tree};

/// One maximal constant-node run of a trajectory: the agent sits at `node`
/// from the round after the previous run's `end` through `end` inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub node: NodeId,
    /// Last round (1-based) covered by this run.
    pub end: u64,
}

/// A memory-metering change point: the agent reported `bits` after its
/// `acts`-th activation (and, until the next mark, after every later one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitsMark {
    pub acts: u64,
    pub bits: u64,
}

/// A recorded single-agent timeline: the node occupied after every round,
/// run-length encoded, plus the memory-meter change points. `fixed` marks a
/// fixed-point tail: the agent is absorbing, so the last node (and the last
/// bits mark) extend to every future round.
#[derive(Debug, Clone)]
pub struct Trajectory {
    start: NodeId,
    runs: Vec<Run>,
    /// Recorded horizon: positions are known for rounds `0..=rounds`.
    rounds: u64,
    fixed: bool,
    bits: Vec<BitsMark>,
}

impl Trajectory {
    /// An empty trajectory parked at `start`; `initial_bits` is the meter
    /// reading before any activation (what a never-started agent reports).
    pub fn new(start: NodeId, initial_bits: u64) -> Self {
        Trajectory {
            start,
            runs: Vec::new(),
            rounds: 0,
            fixed: false,
            bits: vec![BitsMark { acts: 0, bits: initial_bits }],
        }
    }

    pub fn start(&self) -> NodeId {
        self.start
    }

    /// Rounds recorded so far (positions known for `0..=rounds()`).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// `true` when the timeline is frozen: the agent is absorbing, so every
    /// round beyond [`Trajectory::rounds`] repeats the last node.
    pub fn is_fixed(&self) -> bool {
        self.fixed
    }

    /// Can every round up to `horizon` be answered from this recording?
    pub fn decided_to(&self, horizon: u64) -> bool {
        self.fixed || self.rounds >= horizon
    }

    /// Number of RLE runs (diagnostics; the merge cost is proportional to
    /// the runs overlapping the scanned range, not to the rounds).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Largest node id the timeline ever occupies (`O(runs)`). Lets a
    /// loader range-check a deserialized trajectory against its tree
    /// before anything replays it.
    pub fn max_node(&self) -> NodeId {
        self.runs.iter().map(|r| r.node).fold(self.start, NodeId::max)
    }

    fn last_node(&self) -> NodeId {
        self.runs.last().map_or(self.start, |r| r.node)
    }

    /// Appends `k ≥ 1` rounds spent at `node`.
    fn push(&mut self, node: NodeId, k: u64) {
        self.rounds += k;
        match self.runs.last_mut() {
            Some(run) if run.node == node => run.end = self.rounds,
            _ => self.runs.push(Run { node, end: self.rounds }),
        }
    }

    fn mark_bits(&mut self, bits: u64) {
        let last = self.bits.last().expect("initial mark").bits;
        if bits != last {
            self.bits.push(BitsMark { acts: self.rounds, bits });
        }
    }

    /// Node occupied after `round` (0 = the start, before any action), or
    /// `None` when the round is beyond the recorded horizon of a non-fixed
    /// trajectory.
    pub fn position(&self, round: u64) -> Option<NodeId> {
        if round == 0 {
            return Some(self.start);
        }
        if round > self.rounds {
            return self.fixed.then(|| self.last_node());
        }
        let i = self.runs.partition_point(|r| r.end < round);
        Some(self.runs[i].node)
    }

    /// First round (≥ 0) at which the recorded agent stands on `node`, if
    /// it does within the decided horizon. On a fixed-tail trajectory the
    /// answer is definitive; on an open tail a `None` only means "not
    /// within the recording". The delayed-start scenario asks exactly
    /// this about the active agent versus the parked agent's home — the
    /// same question the exact decider's solo lasso answers budget-free
    /// (`rvz_lowerbounds::decide::SoloLasso::first_visit`; the two are
    /// cross-checked in `tests/exact_decider.rs`).
    pub fn first_visit(&self, node: NodeId) -> Option<u64> {
        if self.start == node {
            return Some(0);
        }
        let mut prev_end = 0;
        for run in &self.runs {
            if run.node == node {
                return Some(prev_end + 1);
            }
            prev_end = run.end;
        }
        None
    }

    /// Meter reading after `acts` activations. Beyond the recorded horizon
    /// the last mark applies (valid for fixed tails, where the contract of
    /// [`Agent::idle_span`] freezes the meter).
    pub fn bits_at(&self, acts: u64) -> u64 {
        let i = self.bits.partition_point(|m| m.acts <= acts);
        self.bits[i - 1].bits
    }

    /// Serializes the recording into the versioned little-endian RLE wire
    /// form [`Trajectory::from_bytes`] reads back. The encoding is
    /// self-delimiting (every vector is length-prefixed) so callers can
    /// frame it however they like; integrity checking (checksums) is the
    /// caller's job — this layer only guarantees structural validity.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(21 + self.runs.len() * 12 + self.bits.len() * 16);
        out.extend_from_slice(&Self::WIRE_VERSION.to_le_bytes());
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.rounds.to_le_bytes());
        out.push(self.fixed as u8);
        out.extend_from_slice(&(self.runs.len() as u32).to_le_bytes());
        for run in &self.runs {
            out.extend_from_slice(&run.node.to_le_bytes());
            out.extend_from_slice(&run.end.to_le_bytes());
        }
        out.extend_from_slice(&(self.bits.len() as u32).to_le_bytes());
        for mark in &self.bits {
            out.extend_from_slice(&mark.acts.to_le_bytes());
            out.extend_from_slice(&mark.bits.to_le_bytes());
        }
        out
    }

    /// Wire-format version tag of [`Trajectory::to_bytes`].
    pub const WIRE_VERSION: u32 = 1;

    /// Deserializes [`Trajectory::to_bytes`] output, validating every
    /// structural invariant the recorder maintains — a corrupted body that
    /// slipped past the caller's checksum is rejected here rather than
    /// replayed: run ends strictly increasing and covering exactly
    /// `1..=rounds`, the meter marks starting at activation 0 and strictly
    /// increasing within the horizon, no consecutive runs on one node, and
    /// no trailing bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trajectory, String> {
        let mut r = WireReader { bytes, pos: 0 };
        let version = r.u32()?;
        if version != Self::WIRE_VERSION {
            return Err(format!("unsupported trajectory wire version {version}"));
        }
        let start = r.u32()?;
        let rounds = r.u64()?;
        let fixed = match r.u8()? {
            0 => false,
            1 => true,
            other => return Err(format!("bad fixed flag {other}")),
        };
        let num_runs = r.u32()? as usize;
        if num_runs as u64 > rounds {
            return Err("more runs than rounds".into());
        }
        let mut runs = Vec::with_capacity(num_runs.min(1 << 16));
        let mut prev_end = 0u64;
        let mut prev_node: Option<NodeId> = None;
        for _ in 0..num_runs {
            let node = r.u32()?;
            let end = r.u64()?;
            if end <= prev_end {
                return Err("run ends must be strictly increasing".into());
            }
            if prev_node == Some(node) {
                return Err("consecutive runs on one node must be merged".into());
            }
            prev_end = end;
            prev_node = Some(node);
            runs.push(Run { node, end });
        }
        if prev_end != rounds {
            return Err("runs must cover exactly 1..=rounds".into());
        }
        let num_marks = r.u32()? as usize;
        if num_marks == 0 {
            return Err("a trajectory carries at least the initial meter mark".into());
        }
        let mut bits = Vec::with_capacity(num_marks.min(1 << 16));
        let mut prev_acts: Option<u64> = None;
        for _ in 0..num_marks {
            let acts = r.u64()?;
            let mark_bits = r.u64()?;
            match prev_acts {
                None if acts != 0 => return Err("first meter mark must be at activation 0".into()),
                Some(prev) if acts <= prev => {
                    return Err("meter marks must be strictly increasing".into())
                }
                _ => {}
            }
            if acts > rounds {
                return Err("meter mark beyond the recorded horizon".into());
            }
            prev_acts = Some(acts);
            bits.push(BitsMark { acts, bits: mark_bits });
        }
        if r.pos != bytes.len() {
            return Err("trailing bytes after trajectory".into());
        }
        Ok(Trajectory { start, runs, rounds, fixed, bits })
    }
}

/// Bounds-checked little-endian cursor for [`Trajectory::from_bytes`].
struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl WireReader<'_> {
    fn take(&mut self, len: usize) -> Result<&[u8], String> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| "truncated trajectory".to_string())?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Records an agent's solo trajectory incrementally: owns the agent and its
/// cursor so the recording can be extended on demand without re-stepping
/// the prefix.
#[derive(Debug, Clone)]
pub struct TraceRecorder<A> {
    agent: A,
    cursor: Cursor,
    traj: Trajectory,
    /// Which meter to record (variants differ: measured vs charged bits).
    bits_fn: fn(&A) -> u64,
}

impl<A: Agent> TraceRecorder<A> {
    /// A recorder parked at `start`; nothing is stepped until
    /// [`TraceRecorder::record_to`].
    pub fn new(start: NodeId, agent: A, bits_fn: fn(&A) -> u64) -> Self {
        let traj = Trajectory::new(start, bits_fn(&agent));
        TraceRecorder { agent, cursor: Cursor::new(start), traj, bits_fn }
    }

    pub fn trajectory(&self) -> &Trajectory {
        &self.traj
    }

    /// Extends the recording through round `rounds` (no-op if already
    /// there, or if the agent became absorbing earlier — the fixed tail
    /// answers every later round). An idle span ([`Agent::idle_span`]) is
    /// recorded in O(1): one `Stay` on the cursor, one run extension, one
    /// [`Agent::skip_idle`].
    pub fn record_to(&mut self, t: &Tree, rounds: u64) {
        let mut steps = 0u64;
        let mut span = self.agent.idle_span();
        while self.traj.rounds < rounds && !self.traj.fixed {
            // Counted by loop iterations, not rounds: a jump can step over
            // every multiple of 4096.
            if steps & 0xFFF == 0 {
                crate::cancel::checkpoint();
            }
            steps += 1;
            let k = match span {
                0 => 0,
                // Absorbing from the outset: record one round, as `act`
                // would, and close the tail below.
                u64::MAX => 1,
                span => span.min(rounds - self.traj.rounds),
            };
            let action = if k == 0 {
                self.agent.act(self.cursor.obs(t))
            } else {
                self.agent.skip_idle(k);
                Action::Stay
            };
            self.cursor.apply(t, action);
            self.traj.push(self.cursor.node, k.max(1));
            self.traj.mark_bits((self.bits_fn)(&self.agent));
            span = self.agent.idle_span();
            self.traj.fixed = span == u64::MAX;
        }
    }
}

/// How a lane's global round clock maps onto its recording, which is
/// indexed by *activation count* (the frozen semantics makes an agent's
/// k-th activation schedule-independent, so re-timing is all a schedule
/// does to a recording). A lane that is on its own a pure start delay θ
/// ([`ActivationIndex::as_pure_shift`]) takes constant-shift arithmetic:
/// frozen through round θ (the delayed agent sits at home and can be met
/// there, per the §2.1 scenario), active every round after. That is the
/// common case (simultaneous and θ-delayed lanes), where the general
/// index's per-round cycle div/mod and binary searches would dominate the
/// merge. Both forms give identical answers where the shift applies, so
/// the choice is invisible in output. The clock and `Lane::locate` are
/// forced inline: without that, cold e6 replay (perfbench `replay-cold`,
/// 2-core x86-64) took ~8% more CPU.
enum LaneClock<'a> {
    Shift(u64),
    Index(&'a ActivationIndex),
}

impl<'a> LaneClock<'a> {
    fn of(idx: &'a ActivationIndex) -> Self {
        idx.as_pure_shift().map_or(LaneClock::Index(idx), LaneClock::Shift)
    }

    /// Activations in rounds `1..=r`.
    #[inline(always)]
    fn acts_at(&self, r: u64) -> u64 {
        match *self {
            LaneClock::Shift(theta) => r.saturating_sub(theta),
            LaneClock::Index(idx) => idx.acts_at(r),
        }
    }

    /// Last global round at which the count is still `acts`
    /// (`u64::MAX` when activation `acts + 1` never comes).
    #[inline(always)]
    fn frozen_through(&self, acts: u64) -> u64 {
        match *self {
            LaneClock::Shift(theta) => acts.saturating_add(theta),
            LaneClock::Index(idx) => idx.frozen_through(acts),
        }
    }
}

/// A recorded trajectory on a lane's clock — one cursor of the merge.
struct Lane<'a> {
    traj: &'a Trajectory,
    clock: LaneClock<'a>,
    run: usize,
}

impl<'a> Lane<'a> {
    fn new(traj: &'a Trajectory, idx: &'a ActivationIndex) -> Self {
        Lane { traj, clock: LaneClock::of(idx), run: 0 }
    }

    /// Node at global round `r` plus the last global round through which
    /// that node provably persists (frozen rounds extend a run's span past
    /// its activation-count end; the jump target for joint-stay spans).
    /// `None` when `r` is beyond the recorded horizon of an open tail.
    /// Calls must be monotone in `r` (the run index only advances).
    #[inline(always)]
    fn locate(&mut self, r: u64) -> Option<(NodeId, u64)> {
        let l = self.clock.acts_at(r);
        if l == 0 {
            return Some((self.traj.start, self.clock.frozen_through(0)));
        }
        if l > self.traj.rounds {
            return self.traj.fixed.then(|| (self.traj.last_node(), u64::MAX));
        }
        let runs = &self.traj.runs;
        while runs[self.run].end < l {
            self.run += 1;
        }
        let run = runs[self.run];
        let end = if run.end == self.traj.rounds && self.traj.fixed {
            u64::MAX
        } else {
            self.clock.frozen_through(run.end)
        };
        Some((run.node, end))
    }
}

/// The port by which an agent that moved `prev → cur` entered `cur` (the
/// unique tree edge between them, read off the CSR adjacency).
fn entry_port_from(t: &Tree, prev: NodeId, cur: NodeId) -> Port {
    t.neighbors(cur)
        .find(|&(_, v, _)| v == prev)
        .map(|(p, _, _)| p)
        .expect("consecutive trajectory nodes are adjacent")
}

/// Final cursor of an agent at global round `r`: position and entry come
/// from the cursor its latest activation left behind (frozen rounds change
/// nothing, so the comparison runs on *local* activation counts, not
/// global rounds). On a tree every move changes the node, so the entry
/// port is `None` iff that activation was a stay.
fn final_cursor(t: &Tree, traj: &Trajectory, idx: &ActivationIndex, r: u64) -> Cursor {
    let l = idx.acts_at(r);
    let node = traj.position(l).expect("decided range");
    let entry = if l == 0 {
        None
    } else {
        let prev = traj.position(l - 1).expect("decided range");
        if prev == node {
            None
        } else {
            Some(entry_port_from(t, prev, node))
        }
    };
    Cursor { node, entry }
}

/// Replay verdict: either the full [`EnsembleRun`] (bit-for-bit what
/// [`crate::run_ensemble`] returns), or a per-lane request for longer
/// recordings (activation counts; 0 = that lane is long enough).
#[derive(Debug, Clone)]
pub enum EnsembleReplay {
    Decided(EnsembleRun),
    NeedMore { rounds: Vec<u64> },
}

/// Decides a k-agent gathering run under an [`EnsembleSchedule`] from
/// recorded solo trajectories alone — no agent is stepped. At `k = 2`
/// gathering is rendezvous: this is the pair replay, and a start delay θ
/// on lane 1 is the paper's delayed agent B. The store keys stay
/// per-agent: trajectories are pure functions of `(tree, start, agent)`
/// indexed by activation count, so one recording per agent answers every
/// schedule and every ensemble it takes part in — the merge re-times each
/// through its lane's [`ActivationIndex`] and jumps joint-stay spans in
/// O(1) (inside a span no lane moves, so no crossing, no new pair
/// co-location, and no gathering can first occur there).
///
/// Returns exactly what [`crate::run_ensemble`] returns on the same
/// instance — outcome, crossings, pair meetings, final cursors and
/// optional traces — or [`EnsembleReplay::NeedMore`] when a recording is
/// too short (per-lane *activation* counts, exactly what
/// [`TraceRecorder::record_to`] takes).
///
/// Cost: O(runs overlapping the decided range + rounds in which some lane
/// moves), not O(rounds); fixed tails and crashed lanes settle a timeout
/// instantly whatever the budget.
pub fn replay_ensemble(
    t: &Tree,
    trajs: &[&Trajectory],
    schedule: &EnsembleSchedule,
    max_rounds: u64,
    record_traces: bool,
) -> EnsembleReplay {
    assert_eq!(
        schedule.lanes(),
        trajs.len(),
        "the schedule must cover exactly the ensemble's lanes"
    );
    let k = trajs.len();
    assert!(k >= 2, "an ensemble needs at least two agents");
    // Two lanes keep every per-lane buffer in a fixed-length array, so the
    // one merge below compiles with its lane loops unrolled for pairs.
    match *trajs {
        [a, b] => {
            let indices = [schedule.index(0), schedule.index(1)];
            let (trajs, prev, nodes) = (&[a, b], &mut [a.start(), b.start()], &mut [0; 2]);
            let lanes = &mut [Lane::new(a, &indices[0]), Lane::new(b, &indices[1])];
            let (budget, traces) = (max_rounds, record_traces);
            merge(t, trajs, &indices, lanes, prev, nodes, &mut [None], budget, traces)
        }
        _ => {
            let indices: Vec<ActivationIndex> = (0..k).map(|lane| schedule.index(lane)).collect();
            let mut lanes: Vec<Lane> =
                trajs.iter().zip(&indices).map(|(tr, idx)| Lane::new(tr, idx)).collect();
            let mut prev: Vec<NodeId> = trajs.iter().map(|tr| tr.start()).collect();
            let mut pair_meetings = vec![None; k * (k - 1) / 2];
            let nodes = &mut vec![0; k];
            merge(
                t,
                trajs,
                &indices,
                &mut lanes,
                &mut prev,
                nodes,
                &mut pair_meetings,
                max_rounds,
                record_traces,
            )
        }
    }
}

/// The k-cursor merge behind [`replay_ensemble`]. `prev` holds the starts
/// on entry; `nodes` and `pair_meetings` are working buffers of `k` and
/// `k(k−1)/2` entries.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn merge(
    t: &Tree,
    trajs: &[&Trajectory],
    indices: &[ActivationIndex],
    lanes: &mut [Lane],
    prev: &mut [NodeId],
    nodes: &mut [NodeId],
    pair_meetings: &mut [Option<u64>],
    max_rounds: u64,
    record_traces: bool,
) -> EnsembleReplay {
    let k = trajs.len();

    // Records first co-locations for this round and answers whether the
    // whole ensemble is gathered — the same rule as the stepping core.
    let check = |nodes: &[NodeId], round: u64, pair_meetings: &mut [Option<u64>]| {
        let mut all = true;
        for i in 0..k {
            for j in (i + 1)..k {
                if nodes[i] == nodes[j] {
                    pair_meetings[pair_index(k, i, j)].get_or_insert(round);
                } else {
                    all = false;
                }
            }
        }
        all
    };

    let finish = |outcome: Outcome, r: u64, crossings: u64, pair_meetings: &[Option<u64>]| {
        let finals =
            trajs.iter().zip(indices).map(|(tr, idx)| final_cursor(t, tr, idx, r)).collect();
        let traces = record_traces.then(|| {
            trajs
                .iter()
                .zip(indices)
                .map(|(tr, idx)| {
                    (0..=r).map(|g| tr.position(idx.acts_at(g)).expect("decided range")).collect()
                })
                .collect()
        });
        let pair_meetings = pair_meetings.to_vec();
        EnsembleReplay::Decided(EnsembleRun { outcome, crossings, finals, traces, pair_meetings })
    };

    // A lane already decided through round r reports 0 — the caller must
    // not re-step a recording that was long enough.
    let need_more = |r: u64| {
        let rounds = trajs
            .iter()
            .zip(indices)
            .map(|(tr, idx)| {
                let l = idx.acts_at(r);
                if tr.decided_to(l) {
                    0
                } else {
                    l
                }
            })
            .collect();
        EnsembleReplay::NeedMore { rounds }
    };

    if check(prev, 0, pair_meetings) {
        let node = prev[0];
        return finish(Outcome::Met { round: 0, node }, 0, 0, pair_meetings);
    }

    let mut crossings = 0u64;
    let mut r = 0u64;
    while r < max_rounds {
        r += 1;
        if r & 0xFFF == 0 {
            crate::cancel::checkpoint();
        }
        let mut span_end = u64::MAX;
        for (node, lane) in nodes.iter_mut().zip(lanes.iter_mut()) {
            let Some((at, end)) = lane.locate(r) else {
                return need_more(r);
            };
            *node = at;
            span_end = span_end.min(end);
        }
        for i in 0..k {
            for j in (i + 1)..k {
                if nodes[i] == prev[j] && nodes[j] == prev[i] && nodes[i] != nodes[j] {
                    crossings += 1;
                }
            }
        }
        if check(nodes, r, pair_meetings) {
            let node = nodes[0];
            return finish(Outcome::Met { round: r, node }, r, crossings, pair_meetings);
        }
        prev.copy_from_slice(nodes);
        // No lane's cursor changes through span_end: no moves, hence no
        // crossing, no new pair co-location, and no gathering — jump.
        r = r.max(span_end.min(max_rounds));
    }
    finish(Outcome::Timeout { rounds: max_rounds }, max_rounds, crossings, pair_meetings)
}

/// Answers an entire per-lane delay column for one recorded ensemble:
/// one [`replay_ensemble`] verdict per `(delays, max_rounds)` entry, in
/// order, sharing the same `k` recordings across every delay vector in
/// the column (at `k = 2` with `delays = [0, θ]`, the paper's delay
/// column for one start pair). Each delay vector is the start-delay
/// schedule freezing lane `i` through round `delays[i]`.
pub fn gathering_scan(
    t: &Tree,
    trajs: &[&Trajectory],
    columns: &[(Vec<u64>, u64)],
) -> Vec<EnsembleReplay> {
    columns
        .iter()
        .map(|(delays, max_rounds)| {
            assert_eq!(delays.len(), trajs.len(), "one delay per lane");
            let schedule = EnsembleSchedule::start_delays(delays);
            replay_ensemble(t, trajs, &schedule, *max_rounds, false)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_pair, run_pair_scheduled, PairConfig};
    use crate::schedule::Schedule;
    use rvz_agent::model::{bw_exit, Action, Obs};
    use rvz_trees::generators::{line, spider, star};

    #[derive(Clone, Default)]
    struct BasicWalker;

    impl Agent for BasicWalker {
        fn act(&mut self, obs: Obs) -> Action {
            Action::Move(bw_exit(obs.entry, obs.degree))
        }
        fn memory_bits(&self) -> u64 {
            0
        }
    }

    /// Walks for `moves` rounds, then parks forever (and says so).
    struct WalkThenHalt {
        moves: u64,
    }

    impl Agent for WalkThenHalt {
        fn act(&mut self, obs: Obs) -> Action {
            if self.moves == 0 {
                return Action::Stay;
            }
            self.moves -= 1;
            Action::Move(bw_exit(obs.entry, obs.degree))
        }
        fn memory_bits(&self) -> u64 {
            0
        }
        fn idle_span(&self) -> u64 {
            if self.moves == 0 {
                u64::MAX
            } else {
                0
            }
        }
    }

    fn record<A: Agent>(t: &Tree, start: NodeId, agent: A, rounds: u64) -> Trajectory {
        let mut rec = TraceRecorder::new(start, agent, |_| 0);
        rec.record_to(t, rounds);
        rec.trajectory().clone()
    }

    fn assert_matches_direct<A: Agent + Default>(
        t: &Tree,
        a: NodeId,
        b: NodeId,
        cfg: PairConfig,
        horizon: u64,
    ) {
        let ta = record(t, a, A::default(), horizon);
        let tb = record(t, b, A::default(), horizon);
        let sched = EnsembleSchedule::start_delays(&[0, cfg.delay]);
        let EnsembleReplay::Decided(replayed) =
            replay_ensemble(t, &[&ta, &tb], &sched, cfg.max_rounds, cfg.record_traces)
        else {
            panic!("horizon {horizon} must decide the run");
        };
        let mut x = A::default();
        let mut y = A::default();
        let direct = run_pair(t, a, b, &mut x, &mut y, cfg);
        assert_pair_run(&replayed, &direct, "");
    }

    /// A two-lane replay is bit-for-bit the pair run it replays.
    fn assert_pair_run(replayed: &EnsembleRun, direct: &crate::PairRun, what: &str) {
        assert_eq!(replayed.outcome, direct.outcome, "{what}");
        assert_eq!(replayed.crossings, direct.crossings, "{what}");
        assert_eq!(replayed.finals, [direct.final_a, direct.final_b], "{what}");
        let traces = replayed.traces.as_ref();
        assert_eq!(traces.map(|tr| &tr[0]), direct.trace_a.as_ref(), "{what}");
        assert_eq!(traces.map(|tr| &tr[1]), direct.trace_b.as_ref(), "{what}");
        assert_eq!(replayed.pair_meetings, [direct.outcome.round()], "{what}");
    }

    /// Replays a pair under a two-agent [`Schedule`].
    fn replay_pair_under(
        t: &Tree,
        (ta, tb): (&Trajectory, &Trajectory),
        sched: &Schedule,
        budget: u64,
        record_traces: bool,
    ) -> EnsembleReplay {
        replay_ensemble(t, &[ta, tb], &EnsembleSchedule::from_pair(sched), budget, record_traces)
    }

    #[test]
    fn rle_compresses_stays_and_replays_positions() {
        let t = star(5);
        let traj = record(&t, 2, WalkThenHalt { moves: 3 }, 100);
        // 2 → hub(0) → leaf → hub, then parked: ≤3 runs + fixed tail.
        assert!(traj.is_fixed());
        assert_eq!(traj.rounds(), 3, "halt detected at the last move");
        assert!(traj.num_runs() <= 3);
        assert_eq!(traj.position(0), Some(2));
        assert_eq!(traj.position(1), Some(0));
        assert_eq!(traj.position(1_000_000), traj.position(3), "fixed tail extends");
    }

    #[test]
    fn replay_matches_direct_run_with_and_without_delay() {
        let t = line(9);
        for delay in [0u64, 1, 2, 5, 50] {
            for (a, b) in [(0u32, 5u32), (0, 1), (3, 8)] {
                let cfg = PairConfig { delay, max_rounds: 60, record_traces: true };
                assert_matches_direct::<BasicWalker>(&t, a, b, cfg, 60);
            }
        }
    }

    #[test]
    fn replay_counts_crossings_exactly() {
        // Odd-distance walkers shuttle and cross forever without meeting.
        let t = line(2);
        let cfg = PairConfig { delay: 0, max_rounds: 25, record_traces: false };
        assert_matches_direct::<BasicWalker>(&t, 0, 1, cfg, 25);
    }

    #[test]
    fn fixed_tails_settle_huge_budgets_in_o1() {
        let t = spider(3, 4);
        let ta = record(&t, 1, WalkThenHalt { moves: 2 }, 10);
        let tb = record(&t, 9, WalkThenHalt { moves: 1 }, 10);
        assert!(ta.is_fixed() && tb.is_fixed());
        // Budget in the billions: the merge must settle from the tails.
        let sched = EnsembleSchedule::start_delays(&[0, 7]);
        match replay_ensemble(&t, &[&ta, &tb], &sched, 2_000_000_000, false) {
            EnsembleReplay::Decided(run) => {
                assert_eq!(run.outcome, Outcome::Timeout { rounds: 2_000_000_000 })
            }
            EnsembleReplay::NeedMore { .. } => panic!("fixed tails must decide"),
        }
    }

    #[test]
    fn open_tails_ask_for_more_rounds() {
        let t = line(9);
        let ta = record(&t, 0, BasicWalker, 10);
        let tb = record(&t, 8, BasicWalker, 10);
        match replay_ensemble(&t, &[&ta, &tb], &EnsembleSchedule::simultaneous(2), 500, false) {
            EnsembleReplay::NeedMore { rounds } => {
                assert!(rounds[0] > 10 && rounds[0] <= 500);
                assert!(rounds[1] <= rounds[0]);
            }
            EnsembleReplay::Decided(run) => {
                // Legal only if it met within the recorded horizon.
                assert!(run.outcome.round().unwrap_or(u64::MAX) <= 10);
            }
        }
    }

    #[test]
    fn delayed_agent_is_met_at_home_via_replay() {
        let t = line(9);
        let ta = record(&t, 0, BasicWalker, 100);
        let tb = record(&t, 6, BasicWalker, 100);
        let verdicts = gathering_scan(&t, &[&ta, &tb], &[(vec![0, 0], 100), (vec![0, 1_000], 100)]);
        for v in verdicts {
            let EnsembleReplay::Decided(run) = v else { panic!("recorded horizon decides") };
            assert!(run.outcome.met());
        }
    }

    #[test]
    fn first_visit_reads_the_rle_timeline() {
        let t = line(9);
        let traj = record(&t, 0, BasicWalker, 20);
        assert_eq!(traj.first_visit(0), Some(0), "the start is visited at round 0");
        for node in 1..=8u32 {
            // A basic walk from an endpoint reaches node v at round v.
            assert_eq!(traj.first_visit(node), Some(node as u64), "node {node}");
        }
        let parked = record(&t, 3, WalkThenHalt { moves: 0 }, 50);
        assert!(parked.is_fixed());
        assert_eq!(parked.first_visit(3), Some(0));
        assert_eq!(parked.first_visit(4), None, "a parked agent visits nothing else");
    }

    #[test]
    fn scheduled_replay_matches_direct_scheduled_stepping() {
        let schedules = [
            Schedule::simultaneous(),
            Schedule::start_delay(3),
            Schedule::intermittent(2, 0),
            Schedule::intermittent(3, 1),
            Schedule::crash_after(2),
            Schedule::adversarial(0xA11CE, 5, 4),
        ];
        for t in [line(9), spider(3, 3), star(6)] {
            let n = t.num_nodes() as NodeId;
            for sched in &schedules {
                for (a, b) in [(0, n - 1), (1, n / 2), (n - 1, 0)] {
                    if a == b {
                        continue;
                    }
                    let budget = 64u64;
                    let ta = record(&t, a, BasicWalker, budget);
                    let tb = record(&t, b, BasicWalker, budget);
                    let EnsembleReplay::Decided(replayed) =
                        replay_pair_under(&t, (&ta, &tb), sched, budget, true)
                    else {
                        panic!("a full-budget recording must decide");
                    };
                    let mut x = BasicWalker;
                    let mut y = BasicWalker;
                    let direct = run_pair_scheduled(&t, a, b, &mut x, &mut y, sched, budget, true);
                    assert_pair_run(&replayed, &direct, &format!("{sched:?} ({a},{b})"));
                }
            }
        }
    }

    #[test]
    fn scheduled_replay_asks_for_activations_not_rounds() {
        // Under intermittent(4, 0) agent B is activated once per 4 rounds:
        // a short B recording must be grown by *activation* count, so the
        // NeedMore figure is about a quarter of the round horizon.
        let t = line(30);
        let sched = Schedule::intermittent(4, 0);
        let ta = record(&t, 0, BasicWalker, 200);
        let tb = record(&t, 29, BasicWalker, 2);
        match replay_pair_under(&t, (&ta, &tb), &sched, 200, false) {
            EnsembleReplay::NeedMore { rounds } => {
                assert_eq!(rounds[0], 0, "A's recording is long enough");
                assert!(rounds[1] > 2 && rounds[1] <= 50, "B grows by activations: {rounds:?}");
            }
            EnsembleReplay::Decided(run) => {
                panic!("2 recorded activations cannot decide 200 rounds: {:?}", run.outcome)
            }
        }
    }

    #[test]
    fn crashed_lane_settles_huge_budgets_from_the_schedule() {
        // After B's crash both lanes are eventually constant (A is a
        // halting walker): a billion-round budget must settle without the
        // recordings covering it.
        let t = spider(3, 4);
        let ta = record(&t, 1, WalkThenHalt { moves: 2 }, 10);
        let tb = record(&t, 9, BasicWalker, 8);
        assert!(ta.is_fixed() && !tb.is_fixed());
        let sched = Schedule::crash_after(5);
        match replay_pair_under(&t, (&ta, &tb), &sched, 3_000_000_000, false) {
            EnsembleReplay::Decided(run) => match run.outcome {
                Outcome::Met { .. } => {}
                Outcome::Timeout { rounds } => assert_eq!(rounds, 3_000_000_000),
            },
            EnsembleReplay::NeedMore { rounds } => {
                panic!("crashed lane must decide, asked for {rounds:?}")
            }
        }
    }

    #[test]
    fn one_recording_answers_a_schedule_column() {
        let t = line(9);
        let ta = record(&t, 0, BasicWalker, 120);
        let tb = record(&t, 6, BasicWalker, 120);
        let columns = [
            (Schedule::simultaneous(), 100u64),
            (Schedule::start_delay(1), 100),
            (Schedule::intermittent(2, 0), 100),
            (Schedule::crash_after(1), 100),
        ];
        for (sched, budget) in &columns {
            let EnsembleReplay::Decided(run) =
                replay_pair_under(&t, (&ta, &tb), sched, *budget, false)
            else {
                panic!("recorded horizon decides")
            };
            let mut x = BasicWalker;
            let mut y = BasicWalker;
            let direct = run_pair_scheduled(&t, 0, 6, &mut x, &mut y, sched, *budget, false);
            assert_eq!(run.outcome, direct.outcome, "{sched:?}");
        }
    }

    #[test]
    fn ensemble_replay_matches_direct_ensemble_stepping() {
        use crate::runner::run_ensemble_fsa;
        // The k-lane merge must be bit-identical to the k-lane stepper —
        // outcome, crossings, pair meetings, finals and traces — across
        // schedule classes, including the k = 2 case (which must also
        // match the pair stepper).
        struct CloneWalker;
        impl Agent for CloneWalker {
            fn act(&mut self, obs: Obs) -> Action {
                Action::Move(bw_exit(obs.entry, obs.degree))
            }
            fn memory_bits(&self) -> u64 {
                0
            }
        }
        for t in [line(9), spider(3, 3), star(6)] {
            let n = t.num_nodes() as NodeId;
            for k in [2usize, 3] {
                let schedules = [
                    EnsembleSchedule::simultaneous(k),
                    EnsembleSchedule::start_delays(
                        &(0..k as u64).map(|i| 2 * i).collect::<Vec<_>>(),
                    ),
                    EnsembleSchedule::crash_last_after(k, 3),
                    EnsembleSchedule::intermittent_last(k, 2, 1),
                ];
                let tuples: Vec<Vec<NodeId>> = if k == 2 {
                    vec![vec![0, n - 1], vec![1, n / 2]]
                } else {
                    vec![vec![0, n / 2, n - 1], vec![n - 1, 0, n / 2]]
                };
                for sched in &schedules {
                    for starts in &tuples {
                        let budget = 64u64;
                        let recs: Vec<Trajectory> =
                            starts.iter().map(|&s| record(&t, s, BasicWalker, budget)).collect();
                        let refs: Vec<&Trajectory> = recs.iter().collect();
                        let EnsembleReplay::Decided(replayed) =
                            replay_ensemble(&t, &refs, sched, budget, true)
                        else {
                            panic!("a full-budget recording must decide");
                        };
                        let mut agents: Vec<CloneWalker> = (0..k).map(|_| CloneWalker).collect();
                        let direct = run_ensemble_fsa(&t, starts, &mut agents, sched, budget, true);
                        assert_eq!(replayed.outcome, direct.outcome, "{sched:?} {starts:?}");
                        assert_eq!(replayed.crossings, direct.crossings, "{sched:?} {starts:?}");
                        assert_eq!(replayed.pair_meetings, direct.pair_meetings);
                        assert_eq!(replayed.finals, direct.finals, "{sched:?} {starts:?}");
                        assert_eq!(replayed.traces, direct.traces, "{sched:?} {starts:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn ensemble_replay_at_k2_matches_the_pair_stepper() {
        let t = line(11);
        let schedules = [
            Schedule::simultaneous(),
            Schedule::start_delay(3),
            Schedule::intermittent(3, 1),
            Schedule::crash_after(2),
        ];
        for sched in &schedules {
            let ta = record(&t, 0, BasicWalker, 80);
            let tb = record(&t, 9, BasicWalker, 80);
            let ens = EnsembleSchedule::from_pair(sched);
            let EnsembleReplay::Decided(kr) = replay_ensemble(&t, &[&ta, &tb], &ens, 80, true)
            else {
                panic!("decided");
            };
            let (mut x, mut y) = (BasicWalker, BasicWalker);
            let pr = run_pair_scheduled(&t, 0, 9, &mut x, &mut y, sched, 80, true);
            assert_pair_run(&kr, &pr, &format!("{sched:?}"));
        }
    }

    #[test]
    fn ensemble_replay_asks_for_per_lane_activations() {
        // Lane 2 is intermittent (1 activation per 2 rounds) and its
        // recording is short: the merge must ask to grow exactly that
        // lane, by activation count.
        let t = line(30);
        let sched = EnsembleSchedule::intermittent_last(3, 2, 0);
        let ta = record(&t, 0, BasicWalker, 200);
        let tb = record(&t, 15, BasicWalker, 200);
        let tc = record(&t, 29, BasicWalker, 2);
        match replay_ensemble(&t, &[&ta, &tb, &tc], &sched, 200, false) {
            EnsembleReplay::NeedMore { rounds } => {
                assert_eq!(rounds[0], 0, "lane 0 is long enough");
                assert_eq!(rounds[1], 0, "lane 1 is long enough");
                assert!(rounds[2] > 2 && rounds[2] <= 100, "lane 2 grows by activations");
            }
            EnsembleReplay::Decided(run) => {
                panic!("2 recorded activations cannot decide 200 rounds: {:?}", run.outcome)
            }
        }
    }

    #[test]
    fn ensemble_fixed_tails_settle_huge_budgets() {
        // All lanes eventually constant: a billion-round budget settles
        // from the k-cursor span jump without recordings covering it.
        let t = spider(3, 4);
        let ta = record(&t, 4, WalkThenHalt { moves: 2 }, 10);
        let tb = record(&t, 8, WalkThenHalt { moves: 1 }, 10);
        let tc = record(&t, 12, WalkThenHalt { moves: 1 }, 10);
        let sched = EnsembleSchedule::simultaneous(3);
        match replay_ensemble(&t, &[&ta, &tb, &tc], &sched, 2_000_000_000, false) {
            EnsembleReplay::Decided(run) => {
                assert_eq!(run.outcome, Outcome::Timeout { rounds: 2_000_000_000 });
            }
            EnsembleReplay::NeedMore { .. } => panic!("fixed tails must decide"),
        }
    }

    #[test]
    fn gathering_scan_answers_delay_columns_for_k_lanes() {
        use crate::runner::run_ensemble_with;
        let t = line(9);
        let recs: Vec<Trajectory> =
            [0u32, 4, 8].iter().map(|&s| record(&t, s, BasicWalker, 150)).collect();
        let refs: Vec<&Trajectory> = recs.iter().collect();
        let columns: Vec<(Vec<u64>, u64)> =
            vec![(vec![0, 0, 0], 100), (vec![0, 3, 0], 100), (vec![5, 0, 2], 100)];
        let verdicts = gathering_scan(&t, &refs, &columns);
        assert_eq!(verdicts.len(), columns.len());
        for (v, (delays, budget)) in verdicts.iter().zip(&columns) {
            let EnsembleReplay::Decided(run) = v else { panic!("recorded horizon decides") };
            let mut agents = [BasicWalker, BasicWalker, BasicWalker];
            let sched = EnsembleSchedule::start_delays(delays);
            let direct = run_ensemble_with(
                &t,
                &[0, 4, 8],
                |lane, obs| agents[lane].act(obs),
                &sched,
                *budget,
                false,
            );
            assert_eq!(run.outcome, direct.outcome, "delays {delays:?}");
            assert_eq!(run.pair_meetings, direct.pair_meetings, "delays {delays:?}");
        }
    }

    #[test]
    fn bits_marks_follow_the_meter() {
        struct Counting {
            acts: u64,
        }
        impl Agent for Counting {
            fn act(&mut self, _obs: Obs) -> Action {
                self.acts += 1;
                Action::Stay
            }
            fn memory_bits(&self) -> u64 {
                self.acts / 3
            }
        }
        let t = line(4);
        let mut rec = TraceRecorder::new(0, Counting { acts: 0 }, |a| a.memory_bits());
        rec.record_to(&t, 10);
        let traj = rec.trajectory();
        for acts in 0..=10u64 {
            assert_eq!(traj.bits_at(acts), acts / 3, "after {acts} activations");
        }
        assert_eq!(traj.num_runs(), 1, "ten stays are one run");
    }

    #[test]
    fn trajectory_wire_round_trips() {
        let t = line(7);
        let mut rec = TraceRecorder::new(2, BasicWalker, |_| 5);
        rec.record_to(&t, 40);
        let traj = rec.trajectory();
        let bytes = traj.to_bytes();
        let back = Trajectory::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.start(), traj.start());
        assert_eq!(back.rounds(), traj.rounds());
        assert_eq!(back.is_fixed(), traj.is_fixed());
        for r in 0..=traj.rounds() {
            assert_eq!(back.position(r), traj.position(r), "round {r}");
            assert_eq!(back.bits_at(r), traj.bits_at(r), "acts {r}");
        }
        // And the re-encoding is byte-identical (canonical form).
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn trajectory_wire_rejects_corruption_without_panicking() {
        let t = line(6);
        let mut rec = TraceRecorder::new(0, BasicWalker, |_| 1);
        rec.record_to(&t, 25);
        let bytes = rec.trajectory().to_bytes();
        // Every truncation must be an error, never a panic or a bogus value.
        for len in 0..bytes.len() {
            assert!(Trajectory::from_bytes(&bytes[..len]).is_err(), "truncated at {len}");
        }
        // Single-bit flips either fail validation or decode to a trajectory
        // that still satisfies the structural invariants (flips confined to
        // a node id or a meter value are semantically wrong but structurally
        // fine — catching those is the caller's checksum's job).
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                if let Ok(traj) = Trajectory::from_bytes(&bad) {
                    assert!(traj.position(traj.rounds()).is_some());
                }
            }
        }
    }

    /// Walks `walk` rounds, then pauses `pause` rounds (reporting the rest
    /// of the pause as an idle span), `cycles` times over; then parks for
    /// good. Its meter counts the moves made, so bits marks change while
    /// it walks and never inside a pause.
    #[derive(Clone)]
    struct PauseWalker {
        walk: u64,
        pause: u64,
        cycles: u64,
        pos: u64,
        done: u64,
        moves: u64,
    }

    impl PauseWalker {
        fn new(walk: u64, pause: u64, cycles: u64) -> Self {
            PauseWalker { walk, pause, cycles, pos: 0, done: 0, moves: 0 }
        }

        fn advance(&mut self, k: u64) {
            self.pos += k;
            if self.pos == self.walk + self.pause {
                self.pos = 0;
                self.done += 1;
            }
        }
    }

    impl Agent for PauseWalker {
        fn act(&mut self, obs: Obs) -> Action {
            if self.done == self.cycles {
                return Action::Stay;
            }
            let action = if self.pos < self.walk {
                self.moves += 1;
                Action::Move(bw_exit(obs.entry, obs.degree))
            } else {
                Action::Stay
            };
            self.advance(1);
            action
        }
        fn memory_bits(&self) -> u64 {
            self.moves
        }
        fn idle_span(&self) -> u64 {
            if self.done == self.cycles {
                u64::MAX
            } else if self.pos >= self.walk {
                self.walk + self.pause - self.pos
            } else {
                0
            }
        }
        fn skip_idle(&mut self, k: u64) {
            let span = self.idle_span();
            assert!(k <= span, "skip_idle({k}) past the idle span {span}");
            if span != u64::MAX {
                self.advance(k);
            }
        }
    }

    /// Hides every finite idle span and reports only absorption: the
    /// round-by-round recording idle spans must reproduce.
    struct NoSpans<A>(A);

    impl<A: Agent> Agent for NoSpans<A> {
        fn act(&mut self, obs: Obs) -> Action {
            self.0.act(obs)
        }
        fn memory_bits(&self) -> u64 {
            self.0.memory_bits()
        }
        fn idle_span(&self) -> u64 {
            if self.0.idle_span() == u64::MAX {
                u64::MAX
            } else {
                0
            }
        }
    }

    #[test]
    fn idle_spans_record_the_bytes_stepping_records() {
        let t = spider(3, 3);
        for (walk, pause, cycles) in [(3, 5, 4), (2, 9, 3), (4, 0, 2), (1, 1, 6), (5, 30, 2)] {
            // The agent becomes absorbing after exactly `end` rounds.
            let end = cycles * (walk + pause);
            for start in [0, 4, 9] {
                let agent = PauseWalker::new(walk, pause, cycles);
                let mut fast = TraceRecorder::new(start, agent.clone(), Agent::memory_bits);
                let mut slow = TraceRecorder::new(start, NoSpans(agent), Agent::memory_bits);
                // Resumed targets: mid-pause stops, the absorbing round
                // itself, and beyond it.
                let mid = walk + pause / 2;
                let mut targets =
                    [1, walk + 1, mid, mid + 1, end - pause / 2, end - 1, end, end + 7];
                targets.sort();
                for target in targets {
                    fast.record_to(&t, target);
                    slow.record_to(&t, target);
                    let (f, s) = (fast.trajectory(), slow.trajectory());
                    assert_eq!(f.to_bytes(), s.to_bytes(), "{walk}/{pause}/{cycles} to {target}");
                    assert_eq!(f.is_fixed(), target >= end, "absorbing at round {end}");
                }
            }
        }
        // Absorbing from the outset: one round is recorded, as `act` would
        // record it, and the tail closes behind it.
        let traj = record(&t, 4, PauseWalker::new(1, 1, 0), 50);
        assert!(traj.is_fixed());
        assert_eq!(traj.rounds(), 1);
        // A span is one step whatever its length: a trillion-round pause
        // records instantly, in one run per pause.
        let pause = 1 << 40;
        let traj = record(&t, 0, PauseWalker::new(2, pause, 3), u64::MAX);
        assert!(traj.is_fixed());
        assert_eq!(traj.rounds(), 3 * (2 + pause));
        assert_eq!(traj.num_runs(), 6);
    }

    #[test]
    fn long_recordings_still_reach_the_cancel_checkpoint() {
        use crate::cancel::{silence_cancelled_panics, CancelGuard};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        /// Raises the cancellation flag at its `trip`-th activation.
        struct Tripwire<A> {
            inner: A,
            acts: u64,
            trip: u64,
            flag: Arc<AtomicBool>,
        }
        impl<A: Agent> Agent for Tripwire<A> {
            fn act(&mut self, obs: Obs) -> Action {
                self.acts += 1;
                if self.acts == self.trip {
                    self.flag.store(true, Ordering::Relaxed);
                }
                self.inner.act(obs)
            }
            fn memory_bits(&self) -> u64 {
                0
            }
            fn idle_span(&self) -> u64 {
                self.inner.idle_span()
            }
            fn skip_idle(&mut self, k: u64) {
                self.inner.skip_idle(k)
            }
        }

        silence_cancelled_panics();
        let t = line(8);
        let trip = 10_000;
        // A never-idle walker, and one in 4096-round cycles whose jumps
        // straddle every multiple of 4096 rounds (it starts mid-pause), so
        // a poll keyed to the round count would never come. Each target is
        // long enough that the recording cannot finish before the trip.
        let paused = PauseWalker { pos: 2, ..PauseWalker::new(1, 4095, u64::MAX) };
        let walkers = [(PauseWalker::new(1, 0, u64::MAX), 1 << 24), (paused, 1 << 30)];
        for (inner, target) in walkers {
            let flag = Arc::new(AtomicBool::new(false));
            let _guard = CancelGuard::install(Arc::clone(&flag));
            let pause = inner.pause;
            let agent = Tripwire { inner, acts: 0, trip, flag };
            let mut rec = TraceRecorder::new(3, agent, |_| 0);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rec.record_to(&t, target);
            }))
            .expect_err("the watchdog flag must stop the recording");
            assert!(CancelGuard::is_cancelled_payload(&*caught));
            assert!(rec.agent.acts - trip <= 4096, "pause {pause}: polled every 4096 steps");
        }
    }
}
