//! The register file — the one statement of the write policy.
//!
//! DPU-v2 instruction words never name a register *write* address
//! (§III-B, Fig. 5(d)): each bank keeps a valid bit per register and a
//! priority encoder writes incoming data to the **lowest empty** one.
//! That makes the policy part of the ISA contract — whoever touches a
//! program has to re-enact it — so it is written once, here, generic
//! over what a register holds:
//!
//! | instantiation        | who                          | a slot holds            |
//! |----------------------|------------------------------|-------------------------|
//! | `RegFile<NodeId>`    | the compiler's address replay | which DAG value lives there |
//! | `RegFile<()>`        | the static verifier          | nothing — occupancy only |
//! | `RegFile<u32>`       | the simulator's decode, once per program | in flight: the value slot an `exec` result waits in (a register's own slot is a function of its address) |
//! | `RegFile<[f32; 1]>`  | the simulator's oracle       | the value               |
//!
//! No instantiation runs per request: the production executor walks the
//! value tape decode resolved by replaying this file once.
//!
//! The five rules, all of them in this file and nowhere else:
//!
//! 1. a write goes to the lowest invalid register of its bank
//!    ([`RegFile::write`], which *returns the address it chose*) and a
//!    full bank is a fault ([`Fault::Full`]);
//! 2. a read flagged `valid_rst` frees the register ([`RegFile::free`]);
//! 3. an `exec` result issued at cycle `c` lands at the end of cycle
//!    `c + D` ([`RegFile::schedule`]): in-flight writebacks sit in a ring
//!    of `D + 1` slots indexed by `cycle % (D + 1)`, which cannot collide
//!    because the slot for `c + D` was drained at the end of `c - 1`;
//! 4. a bank has one write port: a landing on a bank already written
//!    this cycle — by the issuing instruction's immediate writes or by
//!    another landing — is a fault ([`Fault::PortClash`], raised by
//!    [`RegFile::end_cycle`]);
//! 5. after the last instruction the pipeline drains until nothing is in
//!    flight ([`RegFile::drain`]).

use crate::ArchConfig;

/// Why a register write could not commit. Callers stamp it with what they
/// know (cycle, instruction index) and map it into their own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The bank has no empty register for an incoming write.
    Full {
        /// The bank.
        bank: u32,
    },
    /// The bank's single write port was already driven this cycle.
    PortClash {
        /// The bank.
        bank: u32,
    },
}

/// `banks × regs` registers with valid bits, the automatic write-address
/// generator and the `D + 1`-slot writeback ring. See the module docs.
#[derive(Clone)]
pub struct RegFile<T> {
    /// Registers per bank.
    regs: usize,
    /// Valid bits, `⌈regs / 64⌉` words per bank, bit set = valid. The
    /// priority encoder is `trailing_ones` of a bank's first word that has
    /// a clear bit.
    valid: Vec<u64>,
    /// `banks × regs` register contents, flat; a value means something
    /// only under a set valid bit (a freed register keeps its stale one).
    values: Vec<T>,
    /// In-flight `exec` writebacks, `(bank, value)` per landing cycle.
    ring: Vec<Vec<(u32, T)>>,
    /// Writebacks in flight across all ring slots.
    in_flight: usize,
    /// Banks written so far this cycle (the write-port conflict set), one
    /// bit per bank.
    written: Vec<u64>,
    cycle: u64,
}

/// The architectural state only: a register prints as `Some(value)` under
/// a set valid bit and `None` otherwise, so a cleared file prints like a
/// new one whatever stale values it holds.
impl<T: Copy + std::fmt::Debug> std::fmt::Debug for RegFile<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let banks = (self.values.len() / self.regs) as u32;
        let slots: Vec<Vec<Option<T>>> = (0..banks)
            .map(|bank| {
                (0..self.regs as u32)
                    .map(|addr| self.read(bank, addr))
                    .collect()
            })
            .collect();
        f.debug_struct("RegFile")
            .field("slots", &slots)
            .field("ring", &self.ring)
            .field("in_flight", &self.in_flight)
            .field("written", &self.written)
            .field("cycle", &self.cycle)
            .finish()
    }
}

impl<T: Copy> RegFile<T> {
    /// An empty register file for `cfg` at cycle 0. `blank` is what the
    /// storage under a clear valid bit starts out as; nothing reads it.
    pub fn new(cfg: &ArchConfig, blank: T) -> Self {
        let (banks, regs) = (cfg.banks as usize, cfg.regs_per_bank as usize);
        RegFile {
            regs,
            valid: vec![0; banks * regs.div_ceil(64)],
            values: vec![blank; banks * regs],
            ring: vec![Vec::new(); cfg.depth as usize + 1],
            in_flight: 0,
            written: vec![0; banks.div_ceil(64)],
            cycle: 0,
        }
    }

    /// Back to the state of [`RegFile::new`] without reallocating: only
    /// the valid bits are cleared, never the values under them.
    pub fn clear(&mut self) {
        self.valid.fill(0);
        for slot in &mut self.ring {
            slot.clear();
        }
        self.in_flight = 0;
        self.written.fill(0);
        self.cycle = 0;
    }

    /// Cycles completed so far ([`RegFile::end_cycle`] calls).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Scheduled writebacks that have not landed yet.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// The valid-bit words of `bank`.
    fn bank_words(&self, bank: u32) -> std::ops::Range<usize> {
        let words = self.regs.div_ceil(64);
        bank as usize * words..(bank as usize + 1) * words
    }

    /// The register's content, `None` while its valid bit is clear.
    pub fn read(&self, bank: u32, addr: u32) -> Option<T> {
        let word = self.valid[self.bank_words(bank)][addr as usize / 64];
        (word >> (addr % 64) & 1 == 1)
            .then(|| self.values[bank as usize * self.regs + addr as usize])
    }

    /// Clears the register's valid bit (a `valid_rst` read).
    pub fn free(&mut self, bank: u32, addr: u32) {
        let words = self.bank_words(bank);
        self.valid[words][addr as usize / 64] &= !(1 << (addr % 64));
    }

    /// Valid registers per bank (Fig. 10(c/d)'s occupancy).
    pub fn occupancy(&self) -> impl Iterator<Item = u32> + '_ {
        self.valid
            .chunks(self.regs.div_ceil(64))
            .map(|bank| bank.iter().map(|w| w.count_ones()).sum())
    }

    /// Priority-encoder write, this cycle: `value` goes to the lowest
    /// empty register of `bank`, whose address is returned.
    ///
    /// # Errors
    ///
    /// [`Fault::Full`] if the bank has no empty register.
    pub fn write(&mut self, bank: u32, value: T) -> Result<u32, Fault> {
        let words = self.bank_words(bank);
        let (w, word) = self.valid[words]
            .iter_mut()
            .enumerate()
            .find(|(_, word)| **word != u64::MAX)
            .ok_or(Fault::Full { bank })?;
        let addr = w * 64 + word.trailing_ones() as usize;
        // The last word's bits at and above `regs` are never set, so a
        // bank whose `regs` registers are all valid is caught here.
        if addr >= self.regs {
            return Err(Fault::Full { bank });
        }
        *word |= 1 << (addr % 64);
        self.values[bank as usize * self.regs + addr] = value;
        self.written[bank as usize / 64] |= 1 << (bank % 64);
        Ok(addr as u32)
    }

    fn slot(&self, cycles_ahead: usize) -> usize {
        ((self.cycle + cycles_ahead as u64) % self.ring.len() as u64) as usize
    }

    /// Schedules the writebacks of an `exec` issued this cycle: each
    /// `(bank, value)` lands at the end of cycle `cycle + D`.
    pub fn schedule(&mut self, writes: impl IntoIterator<Item = (u32, T)>) {
        let slot = self.slot(self.ring.len() - 1);
        let before = self.ring[slot].len();
        self.ring[slot].extend(writes);
        self.in_flight += self.ring[slot].len() - before;
    }

    /// What lands at the end of the current cycle (the compiler stalls a
    /// `load`/`copy` that would clash with one of these).
    pub fn due(&self) -> &[(u32, T)] {
        &self.ring[self.slot(0)]
    }

    /// Ends the cycle: lands what is due, calling `landed(bank, addr,
    /// value)` per writeback, and advances the cycle counter.
    ///
    /// # Errors
    ///
    /// [`Fault::PortClash`] if a landing hits a bank already written this
    /// cycle, [`Fault::Full`] if it hits a full bank. The cycle counter is
    /// not advanced, so [`RegFile::cycle`] is the faulting cycle.
    pub fn end_cycle(&mut self, mut landed: impl FnMut(u32, u32, T)) -> Result<(), Fault> {
        let slot = self.slot(0);
        if !self.ring[slot].is_empty() {
            // Take the slot's buffer (`write` borrows `self`), then hand
            // it back cleared so its capacity stays warm.
            let mut due = std::mem::take(&mut self.ring[slot]);
            self.in_flight -= due.len();
            for &(bank, value) in &due {
                if self.written[bank as usize / 64] >> (bank % 64) & 1 == 1 {
                    return Err(Fault::PortClash { bank });
                }
                landed(bank, self.write(bank, value)?, value);
            }
            due.clear();
            self.ring[slot] = due;
        }
        self.written.fill(0);
        self.cycle += 1;
        Ok(())
    }

    /// Pipeline drain: ends cycles until nothing is in flight.
    ///
    /// # Errors
    ///
    /// As [`RegFile::end_cycle`].
    pub fn drain(&mut self, mut landed: impl FnMut(u32, u32, T)) -> Result<(), Fault> {
        while self.in_flight > 0 {
            self.end_cycle(&mut landed)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// The write policy restated naively: per bank the set of occupied
    /// addresses, a map of what each holds, a list of in-flight
    /// `(landing cycle, bank, token)`, and the banks written this cycle.
    struct Model {
        regs: u32,
        depth: u64,
        occupied: Vec<BTreeSet<u32>>,
        holds: BTreeMap<(u32, u32), u32>,
        in_flight: Vec<(u64, u32, u32)>,
        written: BTreeSet<u32>,
        cycle: u64,
    }

    impl Model {
        fn write(&mut self, bank: u32, token: u32) -> Result<u32, Fault> {
            let set = &mut self.occupied[bank as usize];
            let addr = (0..self.regs)
                .find(|a| !set.contains(a))
                .ok_or(Fault::Full { bank })?;
            set.insert(addr);
            self.holds.insert((bank, addr), token);
            self.written.insert(bank);
            Ok(addr)
        }

        /// Ends the cycle; returns what landed as `(bank, addr, token)`.
        fn end_cycle(&mut self) -> Result<Vec<(u32, u32, u32)>, Fault> {
            let now = self.cycle;
            let (due, later): (Vec<_>, Vec<_>) =
                self.in_flight.iter().partition(|&&(at, _, _)| at == now);
            self.in_flight = later;
            let mut landed = Vec::new();
            for (_, bank, token) in due {
                if self.written.contains(&bank) {
                    return Err(Fault::PortClash { bank });
                }
                landed.push((bank, self.write(bank, token)?, token));
            }
            self.written.clear();
            self.cycle += 1;
            Ok(landed)
        }
    }

    /// The priority encoder across valid-bit word boundaries (the script
    /// test below keeps banks small): 130 registers are three words, the
    /// last one partial.
    #[test]
    fn lowest_free_register_crosses_valid_bit_words() {
        let cfg = ArchConfig::new(1, 2, 130).expect("valid");
        let mut rf = RegFile::new(&cfg, 0u32);
        for addr in 0..130 {
            assert_eq!(rf.write(1, addr), Ok(addr));
        }
        assert_eq!(rf.write(1, 0), Err(Fault::Full { bank: 1 }));
        assert_eq!(rf.occupancy().collect::<Vec<_>>(), [0, 130]);
        for addr in [129, 64, 63, 128] {
            rf.free(1, addr);
            assert_eq!(rf.read(1, addr), None);
        }
        for addr in [63, 64, 128, 129] {
            assert_eq!(rf.write(1, 1000 + addr), Ok(addr), "lowest free first");
            assert_eq!(rf.read(1, addr), Some(1000 + addr));
        }
        assert_eq!(rf.write(1, 0), Err(Fault::Full { bank: 1 }));
        assert_eq!(rf.write(0, 7), Ok(0), "the neighbouring bank is untouched");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random write / read / free / schedule / end-cycle scripts agree
        /// with the naive model step for step: the address chosen is the
        /// lowest free one, a value scheduled at cycle `c` appears at the
        /// end of cycle `c + D` and not before, a second write to a bank
        /// in one cycle is a `PortClash` whichever of the two was issued
        /// first, a full bank is `Full`, the drain ends exactly when
        /// nothing is in flight, and `clear()` gives back a fresh file.
        #[test]
        fn regfile_matches_naive_model(
            depth in 1u32..=3,
            regs in 2u32..=4,
            script in proptest::collection::vec((0u32..9, any::<u32>(), any::<u32>()), 1..120),
        ) {
            let banks = 1 << depth;
            let cfg = ArchConfig::new(depth, banks, regs).expect("valid");
            let mut rf = RegFile::new(&cfg, 0u32);
            let mut model = Model {
                regs,
                depth: u64::from(depth),
                occupied: vec![BTreeSet::new(); banks as usize],
                holds: BTreeMap::new(),
                in_flight: Vec::new(),
                written: BTreeSet::new(),
                cycle: 0,
            };
            let mut faulted = false;
            for (token, (op, b, a)) in script.into_iter().enumerate() {
                let (token, bank, addr) = (token as u32, b % banks, a % regs);
                match op {
                    0 | 1 => {
                        let want = model.write(bank, token);
                        prop_assert_eq!(rf.write(bank, token), want);
                        faulted = want.is_err();
                    }
                    2 => {
                        model.occupied[bank as usize].remove(&addr);
                        model.holds.remove(&(bank, addr));
                        rf.free(bank, addr);
                    }
                    3 | 4 => {
                        model.in_flight.push((model.cycle + model.depth, bank, token));
                        rf.schedule([(bank, token)]);
                    }
                    5 => prop_assert_eq!(
                        rf.due().to_vec(),
                        model
                            .in_flight
                            .iter()
                            .filter(|&&(at, _, _)| at == model.cycle)
                            .map(|&(_, bank, token)| (bank, token))
                            .collect::<Vec<_>>()
                    ),
                    _ => {
                        let want = model.end_cycle();
                        let mut landed = Vec::new();
                        let got = rf.end_cycle(|b, a, t| landed.push((b, a, t)));
                        prop_assert_eq!(got.map(|()| landed), want.clone());
                        faulted = want.is_err();
                    }
                }
                if faulted {
                    // What a faulted file holds is unspecified: its owner
                    // aborts the run (and `clear()`s before the next).
                    break;
                }
                prop_assert_eq!(rf.cycle(), model.cycle);
                prop_assert_eq!(rf.in_flight(), model.in_flight.len());
                for bank in 0..banks {
                    for addr in 0..regs {
                        prop_assert_eq!(
                            rf.read(bank, addr),
                            model.holds.get(&(bank, addr)).copied()
                        );
                    }
                }
                prop_assert_eq!(
                    rf.occupancy().collect::<Vec<_>>(),
                    model.occupied.iter().map(|s| s.len() as u32).collect::<Vec<_>>()
                );
            }
            if !faulted {
                let mut want = Ok(());
                while want.is_ok() && !model.in_flight.is_empty() {
                    want = model.end_cycle().map(|_| ());
                }
                prop_assert_eq!(rf.drain(|_, _, _| {}), want);
                if want.is_ok() {
                    prop_assert_eq!(rf.in_flight(), 0);
                    prop_assert_eq!(rf.cycle(), model.cycle);
                }
            }
            rf.clear();
            prop_assert_eq!(format!("{rf:?}"), format!("{:?}", RegFile::new(&cfg, 0u32)));
        }
    }
}
