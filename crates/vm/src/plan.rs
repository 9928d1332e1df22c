//! Forced compilation plans — `LVM(P, φ)` from Definition 3.3.
//!
//! A plan pins the execution mode of specific (method, invocation-index)
//! pairs, bypassing profiling counters. This is the "straightforward and
//! ideal realization of CSE" the paper describes in §3.2: complete control
//! over the interleaving between interpretation and JIT compilation. It is
//! feasible here because we own the VM; the paper's JoNM exists precisely
//! because production VMs do not expose this interface. The Figure 1
//! compilation-space enumeration uses these plans.

use std::collections::HashMap;

use cse_bytecode::MethodId;

use crate::config::Tier;

/// How one method call executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Bytecode interpretation (temperature `t0`).
    Interpret,
    /// Execute code JIT-compiled at the given tier (temperature `t_i`).
    Compiled(Tier),
}

/// A forced compilation plan.
#[derive(Debug, Clone, Default)]
pub struct ForcedPlan {
    /// Mode for calls without a specific entry.
    pub default: Option<ExecMode>,
    /// Mode per (method, 0-based invocation index).
    pub per_call: HashMap<(MethodId, u64), ExecMode>,
}

impl ForcedPlan {
    /// Forces *every* call of every method to the given tier — the
    /// traditional `count=0` baseline.
    pub fn all(tier: Tier) -> ForcedPlan {
        ForcedPlan { default: Some(ExecMode::Compiled(tier)), per_call: HashMap::new() }
    }

    /// Forces every call to be interpreted.
    pub fn all_interpreted() -> ForcedPlan {
        ForcedPlan { default: Some(ExecMode::Interpret), per_call: HashMap::new() }
    }

    /// An empty plan that defers every decision to profiling (useful as a
    /// base for `set`).
    pub fn selective() -> ForcedPlan {
        ForcedPlan { default: None, per_call: HashMap::new() }
    }

    /// Pins one (method, invocation) pair.
    pub fn set(&mut self, method: MethodId, invocation: u64, mode: ExecMode) -> &mut Self {
        self.per_call.insert((method, invocation), mode);
        self
    }

    /// The forced mode for the given call, if any.
    pub fn mode_for(&self, method: MethodId, invocation: u64) -> Option<ExecMode> {
        self.per_call.get(&(method, invocation)).copied().or(self.default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_lookup_precedence() {
        let mut plan = ForcedPlan::all(Tier::T2);
        plan.set(MethodId(3), 1, ExecMode::Interpret);
        assert_eq!(plan.mode_for(MethodId(3), 0), Some(ExecMode::Compiled(Tier::T2)));
        assert_eq!(plan.mode_for(MethodId(3), 1), Some(ExecMode::Interpret));
        assert_eq!(plan.mode_for(MethodId(9), 7), Some(ExecMode::Compiled(Tier::T2)));
    }

    #[test]
    fn selective_plan_defers() {
        let mut plan = ForcedPlan::selective();
        plan.set(MethodId(0), 0, ExecMode::Compiled(Tier::T1));
        assert_eq!(plan.mode_for(MethodId(0), 0), Some(ExecMode::Compiled(Tier::T1)));
        assert_eq!(plan.mode_for(MethodId(0), 1), None);
    }
}
