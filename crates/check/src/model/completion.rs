//! A model of the worker pool's per-job completion record.
//!
//! Mirrors `Completion::fill` in `crates/service/src/pool.rs`: each of
//! K workers finishing one layer of the same job writes its layer's
//! slot, then decrements the remaining-layers counter with one atomic
//! `fetch_sub`. The worker whose decrement takes the counter to zero
//! assembles the job from every slot and fires the on-done callback.
//!
//! Invariants proved over every interleaving: the callback fires
//! **exactly once**, and the firing thread sees **every** slot
//! filled. The `decrement_first` variant swaps the two steps and
//! exists to prove the checker catches the resulting assembly from an
//! empty slot.

use super::Model;

const MAX_THREADS: usize = 4;

/// Per-thread program counter values.
mod pc {
    /// About to perform the first of its two steps.
    pub const FIRST: u8 = 0;
    /// About to perform the second.
    pub const SECOND: u8 = 1;
    /// Took the counter to zero: about to assemble and fire.
    pub const FIRE: u8 = 2;
    pub const DONE: u8 = 3;
}

/// The configurable completion model.
#[derive(Debug, Clone, Copy)]
pub struct CompletionModel {
    /// Workers, each reporting one layer of the same job (≤ 4).
    pub workers: usize,
    /// Decrement the counter *before* writing the slot — the bug
    /// variant the checker must catch.
    pub decrement_first: bool,
}

impl Default for CompletionModel {
    fn default() -> Self {
        // 4 workers × 2 steps: 8!/2⁴ = 2520 schedules (the finisher's
        // assembly step can only ever come last).
        CompletionModel {
            workers: 4,
            decrement_first: false,
        }
    }
}

impl CompletionModel {
    /// The decrement-before-fill bug variant (negative control).
    pub fn decrement_before_fill() -> Self {
        CompletionModel {
            decrement_first: true,
            ..Self::default()
        }
    }
}

/// Slots, the remaining-layers counter, and per-thread bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct CompletionState {
    slots: [bool; MAX_THREADS],
    remaining: u8,
    pcs: [u8; MAX_THREADS],
    /// Whether each thread's decrement replaced 1 (it finishes the job).
    last: [bool; MAX_THREADS],
    /// Callback firings so far.
    fired: u8,
    /// Slots the firing thread found empty when it assembled.
    missing: u8,
}

impl Model for CompletionModel {
    type State = CompletionState;

    fn name(&self) -> &'static str {
        if self.decrement_first {
            "pool-completion/decrement-before-fill (negative control)"
        } else {
            "pool-completion/fill-then-decrement"
        }
    }
    fn threads(&self) -> usize {
        self.workers
    }
    fn init(&self) -> CompletionState {
        CompletionState {
            slots: [false; MAX_THREADS],
            remaining: self.workers as u8,
            pcs: [pc::FIRST; MAX_THREADS],
            last: [false; MAX_THREADS],
            fired: 0,
            missing: 0,
        }
    }
    fn done(&self, s: &CompletionState, tid: usize) -> bool {
        s.pcs[tid] == pc::DONE
    }
    fn enabled(&self, _s: &CompletionState, _tid: usize) -> bool {
        true // Slot writes and the counter never block.
    }
    fn step(&self, s: &mut CompletionState, tid: usize) {
        match s.pcs[tid] {
            pc::FIRST | pc::SECOND => {
                let first = s.pcs[tid] == pc::FIRST;
                if first != self.decrement_first {
                    s.slots[tid] = true;
                } else {
                    // One atomic `fetch_sub(1)`: the thread whose
                    // decrement replaced 1 finishes the job.
                    s.last[tid] = s.remaining == 1;
                    s.remaining -= 1;
                }
                s.pcs[tid] = if first {
                    pc::SECOND
                } else if s.last[tid] {
                    pc::FIRE
                } else {
                    pc::DONE
                };
            }
            pc::FIRE => {
                // Assemble from every slot, then run the callback.
                s.missing = (0..self.workers).filter(|&t| !s.slots[t]).count() as u8;
                s.fired += 1;
                s.pcs[tid] = pc::DONE;
            }
            _ => unreachable!("stepped a finished thread"),
        }
    }
    fn check_step(&self, s: &CompletionState) -> Result<(), String> {
        if s.fired > 1 {
            return Err(format!("the callback fired {} times", s.fired));
        }
        if s.missing > 0 {
            return Err(format!(
                "the callback assembled the job with {} empty slot(s)",
                s.missing
            ));
        }
        Ok(())
    }
    fn check_final(&self, s: &CompletionState) -> Result<(), String> {
        if s.fired != 1 {
            return Err(format!("the callback fired {} times, not once", s.fired));
        }
        if s.remaining != 0 {
            return Err(format!("{} layer(s) never reported", s.remaining));
        }
        Ok(())
    }
}
