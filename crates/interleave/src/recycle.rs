//! Exhaustive interleaving exploration of the node-recycling pool
//! (`smr_core::recycle::NodePool`): magazines giving blocks to, and taking
//! blocks from, the shared cells.
//!
//! The pool's shared state is a fixed array of cells. Each cell is empty
//! (0) or holds the head of one *block*: a null-terminated chain of free
//! nodes whose length is stored in its head node. Exactly two operations
//! touch a cell — *give* (a CAS from 0 to the block's head) and *take* (an
//! unconditional swap to 0) — and the safety argument is an *ABA argument
//! by construction*:
//!
//! > A give's comparand is the constant 0, never a pointer read from shared
//! > memory, so no stale observation can make it succeed: it either finds
//! > the cell empty and publishes a block it owns, or fails and tries the
//! > next cell. A take owns the whole block the moment its swap returns, so
//! > reading the block's length and walking (or cutting) its links reads
//! > exclusively owned memory. Neither operation ever reads a node another
//! > thread can reach. The classic Treiber **pop-one** (read the head, read
//! > `head->next`, CAS the head to `next`) is unsafe here: a node popped by
//! > another thread can be handed out, be in active use, and have its block
//! > given back while the first thread's CAS still compares equal — the CAS
//! > then installs the *stale* `next` snapshot, splicing a node that is no
//! > longer free into the pool. The pool has no such operation.
//!
//! This module checks that argument mechanically. Every transition is one
//! atomic action under sequential consistency (one swap, one CAS attempt,
//! one load); link and length writes to *unpublished* memory are folded
//! into the publishing CAS, which is sound precisely because no other
//! thread can observe them earlier — the fold is itself part of the
//! ownership argument. A take of a block longer than a magazine keeps the
//! first `magazine` nodes and gives the rest back as a new block, as the
//! real refill does. The explorer runs every schedule and checks, after
//! each successful cell mutation and at quiescence:
//!
//! * **block integrity** — every chain reachable from a cell is
//!   duplicate-free, shares no node with another cell, contains only nodes
//!   whose model state is *in that cell*, and has the length its head
//!   records (a spliced-in magazine or in-use node is flagged immediately);
//! * **exclusive hand-out** — a node entering a magazine must come from a
//!   cell (double hand-out);
//! * **conservation** — at quiescence every node is exactly one of:
//!   reachable from its cell, parked in a magazine, held in use, or freed
//!   through the real allocator; a node marked pooled but unreachable is a
//!   lost node.
//!
//! Two fault-injected mutants must be caught: [`RecycleOp::PopOne`], the
//! forbidden pop, which [`pop_one_race`](RecycleScenario::pop_one_race)
//! drives against a concurrent take/give pair; and
//! [`RecycleOp::OverwriteGive`], a give that stores its head without the
//! CAS and so drops whatever block the cell held
//! ([`overwrite_race`](RecycleScenario::overwrite_race)). The pool's
//! occupancy hint and node count are *not* modelled: the hint only chooses
//! which cell to try first (the model tries them all), and the count only
//! bounds capacity; neither feeds the ownership protocol.

use std::fmt;

/// Where a node currently lives, from the model's omniscient view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// In the block held by the given cell (must be reachable from it).
    Cell(usize),
    /// Parked in the magazine of the given task.
    Magazine(usize),
    /// Handed out by `alloc` and currently in use by the given task.
    InUse(usize),
    /// Part of a not-yet-published chain owned by the task (between
    /// building a block and the CAS that publishes it).
    Pending(usize),
    /// Freed through the real allocator (a give that found no empty cell).
    Freed,
}

/// One high-level pool operation; compound operations expand into one
/// atomic action per explorer step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecycleOp {
    /// A magazine refill: swap the cells to 0 one by one, starting at the
    /// task's own cell, until one yields a block. The task keeps the first
    /// `magazine` nodes and gives the rest back as a new block.
    Take,
    /// Give `count` nodes from this task's magazine to the pool as one
    /// block: one CAS from 0 per cell tried, starting at the task's own
    /// cell. A block that finds every cell full is freed for real.
    Give {
        /// Nodes moved from the magazine into the block.
        count: usize,
    },
    /// Pop one node from the magazine and hand it out (local). An empty
    /// magazine is a pool miss that mints a fresh node.
    Alloc,
    /// Return the most recently allocated node to the magazine (local).
    Dispose,
    /// **Fault injection**: the forbidden Treiber pop-one on a cell — read
    /// the cell, read `head->next` (a node this task does *not* own), CAS
    /// the cell from `head` to `next`. Exists to prove the explorer catches
    /// the ABA splice; the real pool has no such operation.
    PopOne {
        /// The cell popped from.
        cell: usize,
    },
    /// **Fault injection**: a give that *stores* its block's head into the
    /// task's own cell instead of CASing it from 0, dropping any block the
    /// cell held.
    OverwriteGive {
        /// Nodes moved from the magazine into the block.
        count: usize,
    },
}

/// Micro-state of a task inside a compound operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Micro {
    /// Between operations.
    Idle,
    /// Take in flight: the next cell to swap, and how many were tried.
    Take { cell: usize, tried: usize },
    /// Give in flight: an owned block tries `cell` next (`tried` so far).
    Give {
        head: usize,
        cell: usize,
        tried: usize,
    },
    /// Faulty pop-one in flight: cell snapshot, then next snapshot.
    Pop {
        cell: usize,
        observed: usize,
        next: Option<usize>,
    },
}

/// A scenario: an initial pool plus one program per task.
#[derive(Debug, Clone)]
pub struct RecycleScenario {
    /// Nodes initially pooled as one block in cell 0 (ids `1..=nodes`).
    pub nodes: usize,
    /// Number of shared cells (at least 1).
    pub cells: usize,
    /// Most nodes a take keeps; the rest of a longer block goes back.
    pub magazine: usize,
    /// Per-task operation sequences.
    pub programs: Vec<Vec<RecycleOp>>,
    /// Human-readable description.
    pub name: String,
}

impl RecycleScenario {
    /// Two tasks racing the real protocol over one pooled block of `nodes`
    /// and two cells: each takes, cycles a node through alloc/dispose, and
    /// gives one node back. Exercises swap-vs-CAS and CAS-vs-CAS races with
    /// node reuse in between.
    pub fn spill_refill(nodes: usize) -> Self {
        let program = vec![
            RecycleOp::Take,
            RecycleOp::Alloc,
            RecycleOp::Dispose,
            RecycleOp::Give { count: 1 },
        ];
        Self {
            nodes,
            cells: 2,
            magazine: nodes,
            programs: vec![program.clone(), program],
            name: format!("recycle_spill_refill(nodes={nodes})"),
        }
    }

    /// The ABA trap: task 0 runs the forbidden pop-one on cell 0 while task
    /// 1 takes the whole block, takes the second node into active use (the
    /// model's magazine hands a taken block out from its tail), and gives
    /// the first node back into cell 0. In the interleaving where task 0
    /// snapshots `head = n1, next = n2` before the take and CASes after the
    /// give, the CAS succeeds — the cell holds `n1` again — and splices `n2`,
    /// a node currently in use, into the pool. The explorer must find it.
    pub fn pop_one_race() -> Self {
        Self {
            nodes: 2,
            cells: 1,
            magazine: 2,
            programs: vec![
                vec![RecycleOp::PopOne { cell: 0 }],
                vec![
                    RecycleOp::Take,
                    RecycleOp::Alloc,
                    RecycleOp::Give { count: 1 },
                ],
            ],
            name: "recycle_pop_one_race".into(),
        }
    }

    /// The overwrite trap: task 0 mints a node and gives it with a plain
    /// store into cell 0, which already holds the pooled block unless task 1
    /// took it first. Where the store lands on a full cell, the old block is
    /// lost. The explorer must find it.
    pub fn overwrite_race() -> Self {
        Self {
            nodes: 1,
            cells: 1,
            magazine: 1,
            programs: vec![
                vec![
                    RecycleOp::Alloc,
                    RecycleOp::Dispose,
                    RecycleOp::OverwriteGive { count: 1 },
                ],
                vec![RecycleOp::Take],
            ],
            name: "recycle_overwrite_race".into(),
        }
    }
}

/// A safety violation found under some schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecycleViolation {
    /// What went wrong.
    pub message: String,
    /// The task indices scheduled, in order, up to the violating step.
    pub schedule: Vec<usize>,
}

/// Result of exploring a [`RecycleScenario`].
#[derive(Debug, Clone)]
pub struct RecycleOutcome {
    /// Complete schedules explored.
    pub schedules: u64,
    /// First violation encountered, if any.
    pub violation: Option<RecycleViolation>,
    /// Whether the whole tree fit in the budget.
    pub complete: bool,
}

impl fmt::Display for RecycleOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.violation {
            Some(v) => write!(
                f,
                "VIOLATION after {} schedules: {}",
                self.schedules, v.message
            ),
            None => write!(f, "ok: {} schedules", self.schedules),
        }
    }
}

#[derive(Clone)]
struct RecState {
    /// `cells[c]`: head node id of the block in cell `c`, 0 = empty.
    cells: Vec<usize>,
    /// `link[id - 1]`: next-free pointer stored in the node's link word.
    link: Vec<usize>,
    /// `len[id - 1]`: the block length stored in a block head's length word.
    len: Vec<usize>,
    /// `place[id - 1]`: omniscient ownership state of each node.
    place: Vec<Place>,
    /// Per-task program counter, micro-state, magazine, and in-use stack.
    pc: Vec<usize>,
    micro: Vec<Micro>,
    mags: Vec<Vec<usize>>,
    in_use: Vec<Vec<usize>>,
}

impl RecState {
    fn initial(scenario: &RecycleScenario) -> Self {
        let tasks = scenario.programs.len();
        let mut cells = vec![0; scenario.cells.max(1)];
        let mut len = vec![0; scenario.nodes];
        if scenario.nodes > 0 {
            cells[0] = 1;
            len[0] = scenario.nodes;
        }
        Self {
            cells,
            // n1 → n2 → … → nN → null.
            link: (1..=scenario.nodes)
                .map(|id| if id == scenario.nodes { 0 } else { id + 1 })
                .collect(),
            len,
            place: vec![Place::Cell(0); scenario.nodes],
            pc: vec![0; tasks],
            micro: vec![Micro::Idle; tasks],
            mags: vec![Vec::new(); tasks],
            in_use: vec![Vec::new(); tasks],
        }
    }

    /// Walks every cell's block and checks its integrity: no node twice (a
    /// cycle or a node shared by two cells shows up as one), every
    /// reachable node in [`Place::Cell`] of that cell, and the length
    /// recorded at the head equal to the chain's length.
    fn check_cells(&self, schedule: &[usize]) -> Result<(), RecycleViolation> {
        let fail = |message: String| RecycleViolation {
            message,
            schedule: schedule.to_vec(),
        };
        let mut seen = vec![false; self.link.len()];
        for (c, &head) in self.cells.iter().enumerate() {
            let mut cur = head;
            let mut walked = 0;
            while cur != 0 {
                if seen[cur - 1] {
                    return Err(fail(format!(
                        "pool corrupt: node {cur} reachable twice (cycle or splice)"
                    )));
                }
                seen[cur - 1] = true;
                if self.place[cur - 1] != Place::Cell(c) {
                    return Err(fail(format!(
                        "pool corrupt: node {cur} reachable from cell {c} while {:?} — \
                         a stale next-snapshot was spliced in",
                        self.place[cur - 1]
                    )));
                }
                walked += 1;
                cur = self.link[cur - 1];
            }
            if head != 0 && self.len[head - 1] != walked {
                return Err(fail(format!(
                    "pool corrupt: cell {c}'s block records {} nodes but holds {walked}",
                    self.len[head - 1]
                )));
            }
        }
        Ok(())
    }

    /// Marks the chain from `head` as living in `place`.
    fn mark(&mut self, head: usize, place: Place) {
        let mut cur = head;
        while cur != 0 {
            self.place[cur - 1] = place;
            cur = self.link[cur - 1];
        }
    }
}

/// Explores every interleaving of `scenario` (up to `budget` complete
/// schedules), checking the pool's invariants after every cell mutation
/// and conservation at quiescence.
pub fn explore(scenario: &RecycleScenario, budget: u64) -> RecycleOutcome {
    let mut outcome = RecycleOutcome {
        schedules: 0,
        violation: None,
        complete: true,
    };
    let mut schedule = Vec::new();
    dfs(
        scenario,
        RecState::initial(scenario),
        &mut schedule,
        &mut outcome,
        budget,
    );
    outcome
}

fn enabled(scenario: &RecycleScenario, state: &RecState, task: usize) -> bool {
    state.micro[task] != Micro::Idle || state.pc[task] < scenario.programs[task].len()
}

/// The cell where `task`'s searches start (the real magazine's cursor).
fn home(state: &RecState, task: usize) -> usize {
    task % state.cells.len()
}

/// Executes one atomic action of `task`. Compound operations advance their
/// [`Micro`] state by exactly one shared access per call.
fn step(
    scenario: &RecycleScenario,
    state: &mut RecState,
    task: usize,
    schedule: &[usize],
) -> Result<(), RecycleViolation> {
    let fail = |message: String| RecycleViolation {
        message,
        schedule: schedule.to_vec(),
    };
    let cells = state.cells.len();
    match state.micro[task] {
        Micro::Idle => begin(scenario, state, task, schedule),
        // Atomic action: `swap(cell, 0)`. Everything the swap detaches is
        // exclusively owned from this instant, so the length read, the walk
        // and the cut that follow are local and fold into this step.
        Micro::Take { cell, tried } => {
            let head = std::mem::take(&mut state.cells[cell]);
            if head == 0 {
                state.micro[task] = if tried + 1 == cells {
                    state.pc[task] += 1; // every cell empty: a pool miss
                    Micro::Idle
                } else {
                    Micro::Take {
                        cell: (cell + 1) % cells,
                        tried: tried + 1,
                    }
                };
                return Ok(());
            }
            let mut cur = head;
            let mut kept = 0;
            let mut last = 0;
            while cur != 0 && kept < scenario.magazine.max(1) {
                if state.place[cur - 1] != Place::Cell(cell) {
                    return Err(fail(format!(
                        "take detached node {cur} while {:?} (double hand-out)",
                        state.place[cur - 1]
                    )));
                }
                state.place[cur - 1] = Place::Magazine(task);
                state.mags[task].push(cur);
                kept += 1;
                last = cur;
                cur = state.link[cur - 1];
            }
            state.link[last - 1] = 0;
            let rest = cur;
            while cur != 0 {
                if state.place[cur - 1] != Place::Cell(cell) {
                    return Err(fail(format!(
                        "take detached node {cur} while {:?} (double hand-out)",
                        state.place[cur - 1]
                    )));
                }
                cur = state.link[cur - 1];
            }
            let cur = rest;
            if cur == 0 {
                state.micro[task] = Micro::Idle;
                state.pc[task] += 1;
                return Ok(());
            }
            // Give the rest back as one block, into the cell just emptied
            // first. The give completes the take (and advances its pc).
            state.len[cur - 1] = state.len[head - 1] - kept;
            state.mark(cur, Place::Pending(task));
            state.micro[task] = Micro::Give {
                head: cur,
                cell,
                tried: 0,
            };
            Ok(())
        }
        // Atomic action: one CAS from 0. The block's link and length words
        // were written while it was unpublished and fold into the CAS (see
        // module docs — this fold *is* the ownership argument).
        Micro::Give { head, cell, tried } => {
            if state.cells[cell] == 0 {
                state.cells[cell] = head;
                state.mark(head, Place::Cell(cell));
                state.micro[task] = Micro::Idle;
                state.pc[task] += 1;
                return state.check_cells(schedule);
            }
            state.micro[task] = if tried + 1 == cells {
                // No empty cell: the block is freed for real.
                state.mark(head, Place::Freed);
                state.pc[task] += 1;
                Micro::Idle
            } else {
                Micro::Give {
                    head,
                    cell: (cell + 1) % cells,
                    tried: tried + 1,
                }
            };
            Ok(())
        }
        Micro::Pop {
            cell,
            observed,
            next,
        } => match next {
            // Atomic action: read `observed->next` — memory this task does
            // NOT own. The model allows the stale read (that is the bug
            // under test); the splice it enables is caught at the CAS.
            None => {
                state.micro[task] = Micro::Pop {
                    cell,
                    observed,
                    next: Some(state.link[observed - 1]),
                };
                Ok(())
            }
            // Atomic action: one CAS attempt against the stale snapshots.
            Some(nx) => {
                let now = state.cells[cell];
                if now == observed {
                    if state.place[observed - 1] != Place::Cell(cell) {
                        return Err(fail(format!(
                            "pop-one handed out node {observed} while {:?} (double hand-out)",
                            state.place[observed - 1]
                        )));
                    }
                    state.cells[cell] = nx;
                    if nx != 0 {
                        state.len[nx - 1] = state.len[observed - 1].saturating_sub(1);
                    }
                    state.place[observed - 1] = Place::Magazine(task);
                    state.mags[task].push(observed);
                    state.micro[task] = Micro::Idle;
                    state.pc[task] += 1;
                    state.check_cells(schedule)
                } else if now == 0 {
                    // Restarted against an empty cell: the pop misses.
                    state.micro[task] = Micro::Idle;
                    state.pc[task] += 1;
                    Ok(())
                } else {
                    state.micro[task] = Micro::Pop {
                        cell,
                        observed: now,
                        next: None,
                    };
                    Ok(())
                }
            }
        },
    }
}

/// Starts the operation at `pc`, performing its first atomic action.
fn begin(
    scenario: &RecycleScenario,
    state: &mut RecState,
    task: usize,
    schedule: &[usize],
) -> Result<(), RecycleViolation> {
    let fail = |message: String| RecycleViolation {
        message,
        schedule: schedule.to_vec(),
    };
    match scenario.programs[task][state.pc[task]] {
        RecycleOp::Take => {
            state.micro[task] = Micro::Take {
                cell: home(state, task),
                tried: 0,
            };
            step(scenario, state, task, schedule)
        }
        // Local action: pop `count` magazine nodes and link them into the
        // block to publish, recording its length at the head; then the
        // first CAS (or, for the mutant, the plain store). Like the real
        // give, a give of nothing returns early.
        RecycleOp::Give { count } | RecycleOp::OverwriteGive { count } => {
            let count = count.min(state.mags[task].len());
            if count == 0 {
                state.pc[task] += 1;
                return Ok(());
            }
            let mut head = 0usize;
            for _ in 0..count {
                let id = state.mags[task].pop().expect("checked above");
                state.place[id - 1] = Place::Pending(task);
                state.link[id - 1] = head;
                head = id;
            }
            state.len[head - 1] = count;
            let cell = home(state, task);
            if let RecycleOp::OverwriteGive { .. } = scenario.programs[task][state.pc[task]] {
                state.cells[cell] = head;
                state.mark(head, Place::Cell(cell));
                state.pc[task] += 1;
                return state.check_cells(schedule);
            }
            state.micro[task] = Micro::Give {
                head,
                cell,
                tried: 0,
            };
            step(scenario, state, task, schedule)
        }
        // Local action: magazine → in use. An empty magazine is a pool
        // miss: the real `alloc` falls back to the global allocator, so
        // the model mints a fresh node (which later disposes and gives
        // into the pool like any other — exactly the real flow).
        RecycleOp::Alloc => {
            let id = match state.mags[task].pop() {
                Some(id) => id,
                None => {
                    state.link.push(0);
                    state.len.push(0);
                    state.place.push(Place::InUse(task));
                    state.link.len()
                }
            };
            state.place[id - 1] = Place::InUse(task);
            state.in_use[task].push(id);
            state.pc[task] += 1;
            Ok(())
        }
        // Local action: in use → magazine.
        RecycleOp::Dispose => {
            let id = state.in_use[task]
                .pop()
                .ok_or_else(|| fail(format!("scenario bug: task {task} disposes nothing")))?;
            state.place[id - 1] = Place::Magazine(task);
            state.mags[task].push(id);
            state.pc[task] += 1;
            Ok(())
        }
        // Atomic action: the forbidden pop's cell snapshot.
        RecycleOp::PopOne { cell } => {
            let observed = state.cells[cell];
            if observed == 0 {
                state.pc[task] += 1; // empty cell: the pop misses
                return Ok(());
            }
            state.micro[task] = Micro::Pop {
                cell,
                observed,
                next: None,
            };
            Ok(())
        }
    }
}

/// Conservation at quiescence: every node is in exactly one place and
/// every pooled node is reachable from its cell.
fn check_quiescence(state: &RecState, schedule: &[usize]) -> Result<(), RecycleViolation> {
    let fail = |message: String| RecycleViolation {
        message,
        schedule: schedule.to_vec(),
    };
    state.check_cells(schedule)?;
    let mut reachable = vec![false; state.link.len()];
    for &head in &state.cells {
        let mut cur = head;
        while cur != 0 {
            reachable[cur - 1] = true;
            cur = state.link[cur - 1];
        }
    }
    for (i, place) in state.place.iter().enumerate() {
        match place {
            Place::Cell(_) if !reachable[i] => {
                return Err(fail(format!(
                    "lost node {} (pooled but unreachable)",
                    i + 1
                )));
            }
            Place::Pending(task) => {
                return Err(fail(format!(
                    "node {} still pending in task {task}'s unpublished block",
                    i + 1
                )));
            }
            _ => {}
        }
    }
    Ok(())
}

fn dfs(
    scenario: &RecycleScenario,
    state: RecState,
    schedule: &mut Vec<usize>,
    outcome: &mut RecycleOutcome,
    budget: u64,
) {
    if outcome.violation.is_some() {
        return;
    }
    if outcome.schedules >= budget {
        outcome.complete = false;
        return;
    }
    let tasks: Vec<usize> = (0..scenario.programs.len())
        .filter(|&t| enabled(scenario, &state, t))
        .collect();
    if tasks.is_empty() {
        if let Err(v) = check_quiescence(&state, schedule) {
            outcome.violation = Some(v);
            return;
        }
        outcome.schedules += 1;
        return;
    }
    for t in tasks {
        let mut next = state.clone();
        schedule.push(t);
        match step(scenario, &mut next, t, schedule) {
            Ok(()) => dfs(scenario, next, schedule, outcome, budget),
            Err(v) => outcome.violation = Some(v),
        }
        schedule.pop();
        if outcome.violation.is_some() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_refill_all_interleavings_safe() {
        // The real protocol (give = CAS from 0, take = swap to 0): every
        // schedule of two tasks taking, reusing, and giving over two cells
        // must keep every block intact and conserve every node.
        let outcome = explore(&RecycleScenario::spill_refill(3), 5_000_000);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.complete, "exploration must be exhaustive");
        assert!(outcome.schedules > 0);
    }

    #[test]
    fn empty_list_refills_miss_safely() {
        // Three tasks racing over a single-node pool: most takes miss or
        // find nothing; nothing may be lost or duplicated regardless.
        let program = vec![RecycleOp::Take, RecycleOp::Give { count: 1 }];
        let scenario = RecycleScenario {
            nodes: 1,
            cells: 2,
            magazine: 1,
            programs: vec![program.clone(), program.clone(), program],
            name: "recycle_contended_single_node".into(),
        };
        let outcome = explore(&scenario, 5_000_000);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.complete);
    }

    #[test]
    fn spill_refill_scenarios_conserve_under_spill_skew() {
        // Asymmetric give sizes force multi-node blocks to race both a
        // concurrent swap and a concurrent single-node give.
        let scenario = RecycleScenario {
            nodes: 4,
            cells: 2,
            magazine: 4,
            programs: vec![
                vec![RecycleOp::Take, RecycleOp::Give { count: 1 }],
                vec![
                    RecycleOp::Take,
                    RecycleOp::Alloc,
                    RecycleOp::Dispose,
                    RecycleOp::Give { count: 2 },
                ],
            ],
            name: "recycle_spill_skew".into(),
        };
        let outcome = explore(&scenario, 5_000_000);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.complete);
    }

    #[test]
    fn long_blocks_are_cut_and_given_back_safely() {
        // A block longer than a magazine: each take keeps two nodes and
        // gives the rest back while the other tasks take and give, so the
        // give-back races swaps and gives on both cells, and a full pool
        // frees the block for real.
        let program = vec![RecycleOp::Take, RecycleOp::Give { count: 2 }];
        let scenario = RecycleScenario {
            nodes: 5,
            cells: 2,
            magazine: 2,
            programs: vec![program.clone(), program.clone(), program],
            name: "recycle_cut_long_block".into(),
        };
        let outcome = explore(&scenario, 5_000_000);
        assert!(outcome.violation.is_none(), "{:?}", outcome.violation);
        assert!(outcome.complete);
    }

    #[test]
    fn pop_one_mutant_is_caught() {
        // The fault-injected Treiber pop-one must be caught: some schedule
        // lets the pop CAS succeed against stale snapshots and splice an
        // in-use node into the pool.
        let outcome = explore(&RecycleScenario::pop_one_race(), 5_000_000);
        let violation = outcome.violation.expect("the ABA splice must be detected");
        assert!(
            violation.message.contains("pool corrupt")
                || violation.message.contains("double hand-out"),
            "unexpected violation: {}",
            violation.message
        );
    }

    #[test]
    fn pop_one_schedule_is_reproducible() {
        // The violating schedule must replay to the same violation —
        // determinism is what makes the explorer's counterexamples useful.
        let first = explore(&RecycleScenario::pop_one_race(), 5_000_000)
            .violation
            .expect("violation");
        let second = explore(&RecycleScenario::pop_one_race(), 5_000_000)
            .violation
            .expect("violation");
        assert_eq!(first, second);
    }

    #[test]
    fn overwriting_give_mutant_is_caught() {
        // A give that stores instead of CASing from 0 loses the block the
        // cell held in every schedule where the take comes second.
        let outcome = explore(&RecycleScenario::overwrite_race(), 5_000_000);
        let violation = outcome.violation.expect("the lost block must be detected");
        assert!(
            violation.message.contains("lost node"),
            "unexpected violation: {}",
            violation.message
        );
    }
}
