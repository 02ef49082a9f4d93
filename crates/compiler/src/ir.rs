use dpu_dag::NodeId;
use dpu_isa::{PeId, PeOpcode};

/// A tree-shaped subgraph selected by block decomposition (§IV-A), placed
/// into a subtree *slot* of one PE tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subgraph {
    /// The subgraph's unique sink node.
    pub sink: NodeId,
    /// All nodes of the subgraph (the sink's unmapped ancestor cone), in
    /// topological order with the sink last.
    pub nodes: Vec<NodeId>,
    /// Unrolled tree depth (= longest path within the cone, in nodes).
    pub depth: u32,
    /// PE tree the subgraph is placed on.
    pub tree: u32,
    /// Leaf-port offset of the subtree slot within the tree; a multiple of
    /// `2^depth`.
    pub leaf_offset: u32,
}

/// One PE occurrence of a DAG node after spatial unrolling (a shared node
/// may be replicated onto several PEs, Fig. 9(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlacedNode {
    /// The node.
    pub node: NodeId,
    /// The PE evaluating this occurrence.
    pub pe: PeId,
}

/// A block: the unit of work of one `exec` instruction (§IV-A), together
/// with its spatial mapping (filled in by step 2).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// The subgraphs packed into this block.
    pub subgraphs: Vec<Subgraph>,
    /// Per-PE opcode configuration, including the bypass padding PEs.
    pub pe_config: Vec<(PeId, PeOpcode)>,
    /// Register-file operand fetches: `(global input port, value)`.
    pub port_reads: Vec<(u32, NodeId)>,
    /// Values this block must write back to the register file, with every
    /// PE occurrence that computes them (any occurrence may drive the
    /// write, giving the bank allocator freedom under constraint H).
    pub outputs: Vec<(NodeId, Vec<PeId>)>,
    /// Distinct input values read from the register file.
    pub inputs: Vec<NodeId>,
}

/// Register-bank homes chosen by the conflict-aware allocator (§IV-B).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BankAssignment {
    /// `bank_of[node] = Some(bank)` for every io value (block inputs,
    /// block outputs, DAG inputs and stored outputs).
    pub bank_of: Vec<Option<u32>>,
}

impl BankAssignment {
    /// Home bank of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` was not assigned (not an io value).
    pub fn bank(&self, n: NodeId) -> u32 {
        self.bank_of[n.index()].expect("node has no bank assignment")
    }
}

/// Abstract (pre-address-resolution) instruction: operands are SSA values
/// (binarized-DAG node ids) plus the bank they are expected to occupy.
/// [`crate::finalize`] resolves them into concrete register addresses by
/// replaying the automatic write-address policy.
#[derive(Debug, Clone, PartialEq)]
pub enum AInstr {
    /// Pipeline filler.
    Nop,
    /// Load data-memory row `row`; word at column `bank` enters `bank` at
    /// its automatic write address.
    Load {
        /// Data-memory row.
        row: u32,
        /// `(bank/column, value)` pairs; all banks distinct.
        dests: Vec<(u32, NodeId)>,
    },
    /// Store values to row `row`; value in `bank` goes to column `bank`.
    Store {
        /// Data-memory row.
        row: u32,
        /// `(bank/column, value)` pairs; all banks distinct.
        srcs: Vec<(u32, NodeId)>,
    },
    /// Cross-bank shuffle resolving bank conflicts (§III-D).
    Copy {
        /// `(src bank, value, dst bank)`; src banks pairwise distinct and
        /// dst banks pairwise distinct, at most [`dpu_isa::Instr::K`] moves.
        moves: Vec<(u32, NodeId, u32)>,
    },
    /// One datapath pass.
    Exec {
        /// `(global port, bank, value)` operand fetches.
        reads: Vec<(u32, u32, NodeId)>,
        /// PE configuration (non-Nop PEs only).
        pe_ops: Vec<(PeId, PeOpcode)>,
        /// `(bank, producing PE, value)` writebacks; banks pairwise
        /// distinct.
        writes: Vec<(u32, PeId, NodeId)>,
    },
}

impl AInstr {
    /// `(bank, value)` pairs read by this instruction, in operand order.
    /// Exec reads may list the same pair more than once (crossbar
    /// broadcast).
    pub fn bank_reads(
        &self,
    ) -> impl DoubleEndedIterator<Item = (u32, NodeId)> + ExactSizeIterator + '_ {
        let n = match self {
            AInstr::Nop | AInstr::Load { .. } => 0,
            AInstr::Store { srcs, .. } => srcs.len(),
            AInstr::Copy { moves } => moves.len(),
            AInstr::Exec { reads, .. } => reads.len(),
        };
        (0..n).map(move |k| match self {
            AInstr::Nop | AInstr::Load { .. } => unreachable!("no reads"),
            AInstr::Store { srcs, .. } => srcs[k],
            AInstr::Copy { moves } => (moves[k].0, moves[k].1),
            AInstr::Exec { reads, .. } => (reads[k].1, reads[k].2),
        })
    }

    /// `(bank, value)` pairs written by this instruction, in operand
    /// order. They land `D` cycles after issue for an exec
    /// ([`AInstr::is_exec`]) and at the end of the issue cycle otherwise.
    pub fn bank_writes(
        &self,
    ) -> impl DoubleEndedIterator<Item = (u32, NodeId)> + ExactSizeIterator + '_ {
        let n = match self {
            AInstr::Nop | AInstr::Store { .. } => 0,
            AInstr::Load { dests, .. } => dests.len(),
            AInstr::Copy { moves } => moves.len(),
            AInstr::Exec { writes, .. } => writes.len(),
        };
        (0..n).map(move |k| match self {
            AInstr::Nop | AInstr::Store { .. } => unreachable!("no writes"),
            AInstr::Load { dests, .. } => dests[k],
            AInstr::Copy { moves } => (moves[k].2, moves[k].1),
            AInstr::Exec { writes, .. } => (writes[k].0, writes[k].2),
        })
    }

    /// Whether writebacks land `D` cycles after issue (datapath-pipelined).
    pub fn is_exec(&self) -> bool {
        matches!(self, AInstr::Exec { .. })
    }
}

/// What a pass tracks per `(bank, value)` residency — the one table type
/// [`crate::reorder`], [`crate::spill`] and [`crate::finalize`] key by that
/// pair. A value lives in its home bank plus the few banks a `copy` sent it
/// to, so each value owns a short chain of per-bank entries, searched
/// linearly, in one arena: no hashing, no allocation per value, nothing
/// whose order depends on the process, and room for the pairs that occur
/// only (never `values × banks`).
pub(crate) struct Residency<T> {
    /// Arena index of each value's first entry ([`NO_ENTRY`] if none);
    /// grows with the highest value seen.
    first: Vec<u32>,
    entries: Vec<Entry<T>>,
}

const NO_ENTRY: u32 = u32::MAX;

struct Entry<T> {
    bank: u32,
    /// The same value's entry for another bank, or [`NO_ENTRY`].
    next: u32,
    /// `None` once removed; the entry stays linked for the pair's return.
    tracked: Option<T>,
}

impl<T> Residency<T> {
    pub(crate) fn new() -> Self {
        Residency {
            first: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// The pair's slot, linked in on first use.
    fn slot(&mut self, bank: u32, v: NodeId) -> &mut Option<T> {
        if v.index() >= self.first.len() {
            self.first.resize(v.index() + 1, NO_ENTRY);
        }
        let at = match self.find(bank, v) {
            Some(at) => at,
            None => {
                let next = std::mem::replace(&mut self.first[v.index()], self.entries.len() as u32);
                self.entries.push(Entry {
                    bank,
                    next,
                    tracked: None,
                });
                self.entries.len() - 1
            }
        };
        &mut self.entries[at].tracked
    }

    fn find(&self, bank: u32, v: NodeId) -> Option<usize> {
        let mut at = *self.first.get(v.index())?;
        while at != NO_ENTRY {
            let entry = &self.entries[at as usize];
            if entry.bank == bank {
                return Some(at as usize);
            }
            at = entry.next;
        }
        None
    }

    pub(crate) fn get(&self, bank: u32, v: NodeId) -> Option<&T> {
        self.entries[self.find(bank, v)?].tracked.as_ref()
    }

    pub(crate) fn get_mut(&mut self, bank: u32, v: NodeId) -> Option<&mut T> {
        let at = self.find(bank, v)?;
        self.entries[at].tracked.as_mut()
    }

    /// What is tracked for `(bank, v)`, starting from `T::default()` if
    /// nothing is.
    pub(crate) fn entry(&mut self, bank: u32, v: NodeId) -> &mut T
    where
        T: Default,
    {
        self.slot(bank, v).get_or_insert_with(T::default)
    }

    /// Tracks `t` for `(bank, v)`, returning what it replaced.
    pub(crate) fn insert(&mut self, bank: u32, v: NodeId, t: T) -> Option<T> {
        self.slot(bank, v).replace(t)
    }

    pub(crate) fn remove(&mut self, bank: u32, v: NodeId) -> Option<T> {
        let at = self.find(bank, v)?;
        self.entries[at].tracked.take()
    }
}

/// A set of positions in `0..len` (an order fixed by the pass that owns
/// it), one bit each — the one ordered-set type the passes use:
/// [`crate::step1`]'s candidates by locality key and [`crate::reorder`]'s
/// ready instructions by original position. Insert and remove flip a bit;
/// scans walk words from a position, in either direction.
pub(crate) struct PosSet {
    words: Vec<u64>,
    count: usize,
    /// No bit is set in a word below this one.
    low: usize,
}

impl PosSet {
    pub(crate) fn new(len: usize) -> Self {
        PosSet {
            words: vec![0; len.div_ceil(64)],
            count: 0,
            low: 0,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub(crate) fn insert(&mut self, i: usize) {
        let word = &mut self.words[i / 64];
        let bit = 1 << (i % 64);
        self.count += usize::from(*word & bit == 0);
        *word |= bit;
        self.low = self.low.min(i / 64);
    }

    pub(crate) fn remove(&mut self, i: usize) {
        let word = &mut self.words[i / 64];
        let bit = 1 << (i % 64);
        self.count -= usize::from(*word & bit != 0);
        *word &= !bit;
    }

    /// Members `>= at`, ascending, if `up`; members `< at`, descending,
    /// otherwise.
    pub(crate) fn walk(&self, at: usize, up: bool) -> impl Iterator<Item = usize> + '_ {
        let at = at.min(64 * self.words.len());
        let mut w = at / 64;
        let below = (1u64 << (at % 64)) - 1;
        let mut word = self
            .words
            .get(w)
            .map_or(0, |&x| if up { x & !below } else { x & below });
        std::iter::from_fn(move || {
            while word == 0 {
                w = if up { w + 1 } else { w.checked_sub(1)? };
                word = *self.words.get(w)?;
            }
            let bit = if up {
                word.trailing_zeros()
            } else {
                63 - word.leading_zeros()
            } as usize;
            word &= !(1 << bit);
            Some(64 * w + bit)
        })
    }

    /// Every member, ascending, starting at the lowest non-empty word.
    pub(crate) fn ascending(&mut self) -> impl Iterator<Item = usize> + '_ {
        while self.words.get(self.low) == Some(&0) {
            self.low += 1;
        }
        self.walk(64 * self.low, true)
    }
}

/// Lists keyed by a dense index, stored flat (compressed sparse rows): the
/// list of key `k` is `items[at[k]..at[k + 1]]`, in the order its pairs
/// came — two allocations in all where a `Vec<Vec<T>>` makes one per key.
pub(crate) struct Csr<T> {
    at: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy + Default> Csr<T> {
    /// The lists of keys `0..keys` from `(key, item)` pairs.
    pub(crate) fn new(keys: usize, pairs: impl Iterator<Item = (usize, T)> + Clone) -> Self {
        let mut at = vec![0u32; keys + 1];
        pairs.clone().for_each(|(k, _)| at[k + 1] += 1);
        for k in 0..keys {
            at[k + 1] += at[k];
        }
        let mut items = vec![T::default(); at[keys] as usize];
        let mut next = at.clone();
        pairs.for_each(|(k, t)| {
            items[next[k] as usize] = t;
            next[k] += 1;
        });
        Csr { at, items }
    }

    pub(crate) fn row(&self, k: usize) -> &[T] {
        &self.items[self.at[k] as usize..self.at[k + 1] as usize]
    }
}

/// Data-memory layout of a compiled program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataLayout {
    /// `(row, column)` of every DAG input value, indexed by input ordinal
    /// (the order [`dpu_dag::eval::evaluate`] consumes inputs).
    pub input_slots: Vec<(u32, u32)>,
    /// `(row, column)` where each requested output value is stored, in the
    /// order the outputs were requested.
    pub output_slots: Vec<(u32, u32)>,
    /// First row used for spill slots.
    pub spill_base: u32,
    /// Total rows used (inputs + outputs + spills).
    pub rows_used: u32,
}

/// Bank-conflict and repair statistics (Fig. 6(e), Fig. 10(b)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConflictStats {
    /// Block inputs that had to be copied because another input of the same
    /// exec lived in the same bank (constraint F violations).
    pub read_conflicts: u64,
    /// Block outputs that could not be written directly to their home bank
    /// (constraint G/H violations) and took a detour write + copy.
    pub write_conflicts: u64,
    /// `copy` instructions inserted to repair conflicts.
    pub copies_inserted: u64,
}

impl ConflictStats {
    /// Total conflicts (the paper's Fig. 6(e)/10(b) metric).
    pub fn total(&self) -> u64 {
        self.read_conflicts + self.write_conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ainstr_read_write_sets() {
        let e = AInstr::Exec {
            reads: vec![(0, 3, NodeId(7)), (1, 5, NodeId(8))],
            pe_ops: vec![],
            writes: vec![(2, PeId::new(0, 1, 0), NodeId(9))],
        };
        assert_eq!(
            e.bank_reads().collect::<Vec<_>>(),
            vec![(3, NodeId(7)), (5, NodeId(8))]
        );
        assert_eq!(e.bank_writes().collect::<Vec<_>>(), vec![(2, NodeId(9))]);
        assert!(e.is_exec());
        assert!(!AInstr::Nop.is_exec());
    }

    #[test]
    fn conflict_stats_total() {
        let c = ConflictStats {
            read_conflicts: 2,
            write_conflicts: 3,
            copies_inserted: 4,
        };
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn residency_tracks_pairs_not_values() {
        let mut r: Residency<u32> = Residency::new();
        let (v, w) = (NodeId(7), NodeId(2));
        assert_eq!(r.get(3, v), None);
        assert_eq!(r.remove(3, v), None);
        // One value in two banks, another value in one of them.
        assert_eq!(r.insert(3, v, 30), None);
        assert_eq!(r.insert(5, v, 50), None);
        assert_eq!(r.insert(3, w, 31), None);
        assert_eq!(r.get(3, v), Some(&30));
        assert_eq!(r.get(5, v), Some(&50));
        assert_eq!(r.get(3, w), Some(&31));
        assert_eq!(r.get(4, v), None);
        assert_eq!(r.get(3, NodeId(100)), None);
        // Replace, mutate, remove, come back.
        assert_eq!(r.insert(3, v, 33), Some(30));
        *r.get_mut(5, v).unwrap() += 1;
        assert_eq!(r.remove(5, v), Some(51));
        assert_eq!(r.get(5, v), None);
        assert_eq!(r.get_mut(5, v), None);
        assert_eq!(r.get(3, v), Some(&33));
        assert_eq!(*r.entry(5, v), 0);
        *r.entry(5, v) += 9;
        assert_eq!(r.insert(5, v, 1), Some(9));
        assert_eq!(*r.entry(3, w), 31);
    }
}
