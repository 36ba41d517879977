//! The mobile-agent model of §2.1.
//!
//! An agent is an abstract state machine `A = (S, π, λ, s0)`. Each round it
//! receives the input symbol `(i, d)` — the port `i` through which it entered
//! the current node (`-1` after a null move or on first activation) and the
//! node's degree `d` — and answers with an action: a null move, or "leave by
//! port `λ(s') mod d`".
//!
//! Two representations coexist:
//! * [`Agent`] — a procedural trait for algorithmic agents whose memory is
//!   *measured* by [`crate::meter`];
//! * explicit finite automata ([`crate::line_fsa::LineFsa`],
//!   [`crate::fsa::Fsa`]) — used by the lower-bound adversaries and produced
//!   by the [`crate::compile`] state-memoizing compiler.

use rvz_trees::Port;

/// The observation an agent receives at the start of a round: the paper's
/// input symbol `(i, d)` with `i = -1` encoded as `entry: None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Obs {
    /// Port through which the agent entered its current node on its previous
    /// action; `None` if the previous action was a null move or if this is
    /// the agent's first activation.
    pub entry: Option<Port>,
    /// Degree of the current node.
    pub degree: Port,
}

impl Obs {
    /// First-activation observation at a node of degree `d`.
    pub fn start(degree: Port) -> Self {
        Obs { entry: None, degree }
    }
}

/// An agent's action for the round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Null move: remain at the current node (the paper's `λ(s) = -1`).
    Stay,
    /// Leave by port `raw mod degree` (the paper's `λ(s) ≥ 0`; the modulo is
    /// applied by the simulator, as in the model).
    Move(Port),
}

impl Action {
    /// The effective port for a node of degree `d`, if this is a move.
    pub fn port(self, degree: Port) -> Option<Port> {
        match self {
            Action::Stay => None,
            Action::Move(raw) => {
                assert!(degree > 0, "cannot move from an isolated node");
                Some(raw % degree)
            }
        }
    }
}

/// A deterministic mobile agent. The simulator calls [`Agent::act`] exactly
/// once per round in which the agent is active, passing the observation for
/// its current node.
pub trait Agent {
    /// Decide this round's action.
    fn act(&mut self, obs: Obs) -> Action;

    /// Measured memory in bits: the number of bits needed to encode every
    /// state this agent instance has reached so far (see docs/design-notes.md §D2).
    /// Implementations track the maxima of their counters.
    fn memory_bits(&self) -> u64;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str {
        "agent"
    }

    /// Fast-forward hint: the next `k` [`Agent::act`] calls all return
    /// [`Action::Stay`] whatever they observe, and leave every memory
    /// meter unchanged. [`u64::MAX`] means the agent is *absorbing*: it
    /// stays put forever. The trace recorder (`rvz_sim::trace`) jumps an
    /// idle span in O(1) with [`Agent::skip_idle`] and closes a recording
    /// with a fixed-point tail once the agent is absorbing. Conservative
    /// default: `0` (an agent that reports no span is merely stepped round
    /// by round, never misrecorded).
    fn idle_span(&self) -> u64 {
        0
    }

    /// Has exactly the effect of `k` [`Agent::act`] calls inside the
    /// current idle span; panics if `k` exceeds [`Agent::idle_span`]. The
    /// default suits agents whose span is always `0` or [`u64::MAX`]
    /// (nothing changes); an agent with finite spans must override it.
    fn skip_idle(&mut self, k: u64) {
        assert!(
            k == 0 || self.idle_span() == u64::MAX,
            "skip_idle({k}) past the idle span {}",
            self.idle_span()
        );
    }
}

/// The step result of a sub-procedure inside a hierarchical agent.
///
/// `Done` means the sub-procedure has finished *without consuming the
/// round*: the parent must immediately consult the next phase. This is how
/// the Theorem 4.1 agent chains `Explo-bis → Synchro → Figure-2` without
/// wasting rounds, matching the paper's seamless phase transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Act this round: move by (raw) port.
    Move(Port),
    /// Act this round: stay put.
    Stay,
    /// The sub-procedure is complete; no action consumed.
    Done,
}

/// A composable sub-procedure (phase) of a hierarchical agent.
pub trait SubAgent {
    /// Advance by one observation. Returning [`Step::Done`] yields control
    /// to the parent within the same round.
    fn step(&mut self, obs: Obs) -> Step;
}

/// Basic-walk port arithmetic (§2.2): the exit port of the *basic walk*
/// given the entry port (`None` ⇒ the walk is starting ⇒ exit 0).
#[inline]
pub fn bw_exit(entry: Option<Port>, degree: Port) -> Port {
    match entry {
        None => 0,
        Some(i) => (i + 1) % degree,
    }
}

/// Counter-basic-walk exit port (§4.1): `(i - 1) mod d`; with `entry = None`
/// (standalone reversal of a closed tour) this is `d - 1`, the port by which
/// the forward tour made its final entry.
#[inline]
pub fn cbw_exit(entry: Option<Port>, degree: Port) -> Port {
    match entry {
        None => degree - 1,
        Some(i) => (i + degree - 1) % degree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_port_modulo() {
        assert_eq!(Action::Move(7).port(3), Some(1));
        assert_eq!(Action::Move(2).port(3), Some(2));
        assert_eq!(Action::Stay.port(3), None);
    }

    #[test]
    fn bw_cbw_exits() {
        assert_eq!(bw_exit(None, 4), 0);
        assert_eq!(bw_exit(Some(3), 4), 0);
        assert_eq!(bw_exit(Some(1), 4), 2);
        assert_eq!(cbw_exit(None, 4), 3);
        assert_eq!(cbw_exit(Some(0), 4), 3);
        assert_eq!(cbw_exit(Some(2), 4), 1);
        // Degree 2 (pass-through): both walks take the other port.
        assert_eq!(bw_exit(Some(0), 2), 1);
        assert_eq!(cbw_exit(Some(0), 2), 1);
        assert_eq!(bw_exit(Some(1), 2), 0);
        assert_eq!(cbw_exit(Some(1), 2), 0);
    }

    #[test]
    fn bw_then_cbw_inverts() {
        // On any degree-d node: if the forward walk entered via i and exited
        // via (i+1), the reverse traversal enters via (i+1)'s far end and
        // must exit via i — which is cbw of the far-end entry. Checked at
        // the port-arithmetic level: cbw(bw(i)) walks back.
        for d in 1..6u32 {
            for i in 0..d {
                let fwd = bw_exit(Some(i), d);
                // Re-entering by the port we exited (turn-around situation)
                // then applying cbw yields the original entry port.
                assert_eq!(cbw_exit(Some(fwd), d), i);
            }
        }
    }

    #[test]
    #[should_panic(expected = "isolated node")]
    fn move_from_isolated_node_panics() {
        let _ = Action::Move(0).port(0);
    }
}
