//! Concurrent compile-once program cache, with optional disk spill for
//! warm restarts.
//!
//! Compilation dominates the cost of serving a DAG the first time it is
//! seen (milliseconds, vs microseconds to simulate small programs), so
//! the serving engine never compiles the same work twice: programs are
//! cached by [`CacheKey`] — the DAG's structural fingerprint plus the
//! [`ArchConfig`] it was compiled for — and shared as
//! [`Arc<Compiled>`] across every request and worker thread.
//!
//! Concurrency model: a `RwLock` map from key to *slot*; a slot's
//! compiled program and its decode are write-once cells (`OnceLock`),
//! because a key's program never changes. Looking up a hot key takes the
//! map read lock and loads two cells; the first thread to reach a new
//! slot compiles while holding just that slot's compile mutex, so (a) a
//! program is compiled **exactly once** per distinct key no matter how
//! many threads — or engine shards: one cache serves every shard of a
//! dispatcher — race on it, and (b) compiling one DAG never blocks
//! serving a different one. A thread that panics while holding one of
//! these locks takes nobody with it: every guarded state is a single
//! assignment or a `HashMap` operation, so the next taker recovers the
//! guard (`PoisonError::into_inner`) instead of propagating the poison.
//!
//! # Persistence
//!
//! A cache built over a [`SpillStore`] additionally writes every freshly
//! compiled program to a content-addressed file in the spill directory
//! and, on a lookup miss, checks the store **before** compiling. Keys are
//! content hashes, so the fleet's compile work is shared through the
//! filesystem: an engine restarted over the same directory starts warm
//! (its first lookups back-fill from disk and count as hits, not
//! compiles), and a freshly added shard can [`ProgramCache::prewarm`]
//! from a peer's spill before taking traffic. Spill files carry a
//! version, a checksum, the cache key, and a compiler-options
//! fingerprint; anything stale, truncated, corrupt, or compiled with
//! different options is **rejected** (counted in
//! [`CacheStats::spill_rejects`]) and the cache falls back to compiling —
//! a spill file is an optimization, never a source of truth.

use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{
    Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

use dpu_compiler::{compile, CompileError, CompileOptions, Compiled};
use dpu_dag::Dag;
use dpu_isa::{ArchConfig, Fnv1a, Topology};
use dpu_sim::{DecodedProgram, SimError};

use crate::DagKey;

/// Cache key: what was compiled, for which architecture point.
///
/// The compiler options are deliberately *not* part of the key — a cache
/// is constructed with one [`CompileOptions`] and every entry uses it,
/// mirroring how a deployed engine pins one compiler configuration. (The
/// spill layer, which *can* outlive one cache, fingerprints the options
/// in every file instead.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Structural fingerprint of the DAG.
    pub dag: DagKey,
    /// Architecture the program was compiled for.
    pub config: ArchConfig,
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a compiled program (including threads that
    /// waited on a concurrent compile of the same key rather than
    /// duplicating it, and lookups back-filled from the spill store).
    pub hits: u64,
    /// Lookups that compiled — exactly one per distinct key, plus one
    /// per failed compile (not cached: the next lookup retries).
    pub misses: u64,
    /// Programs held: every key a lookup or prewarm filled (the cache
    /// removes none).
    pub entries: usize,
    /// Programs loaded from the spill store instead of compiled — lookup
    /// back-fills (which also count as [`CacheStats::hits`]) plus
    /// [`ProgramCache::prewarm`] loads (which are not lookups and touch
    /// neither `hits` nor `misses`).
    pub spill_hits: u64,
    /// Freshly compiled programs written to the spill store.
    pub spill_writes: u64,
    /// Spill files rejected as stale, truncated, corrupt, or compiled
    /// with different options (the cache compiled instead). Includes
    /// [`CacheStats::spill_unverifiable`].
    pub spill_rejects: u64,
    /// Spill files that decoded cleanly (magic, version, checksum and key
    /// all valid) but whose program failed static verification — the
    /// checksum-alone trust gap. Also counted in
    /// [`CacheStats::spill_rejects`].
    pub spill_unverifiable: u64,
    /// Decodes run ([`ProgramCache::get_decoded`]), refused programs
    /// included — at most one per entry that was ever executed, plus one
    /// per [`ProgramCache::get_decoded`] of a key with no entry.
    /// The decoded form is derived state: it is never spilled, so a warm
    /// restart rebuilds it (counted again here) from the verified
    /// compiled program.
    pub decode_count: u64,
}

impl CacheStats {
    /// Fraction of lookups served without compiling; 0 when no lookups
    /// happened yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Version of the spill-file wrapper around the compiler's
/// [`Compiled::to_bytes`] blob. Bump on any wrapper change; mismatched
/// files are rejected, never reinterpreted.
const SPILL_VERSION: u32 = 1;

const SPILL_MAGIC: [u8; 4] = *b"DPUS";

/// File extension of spill files.
pub const SPILL_EXT: &str = "dpuc";

/// Outcome of a [`SpillStore::load`].
#[derive(Debug)]
pub enum SpillLookup {
    /// The store had a valid program for the key.
    Loaded(Box<Compiled>),
    /// No spill file exists for the key.
    Absent,
    /// A file exists but failed validation (wrong magic/version/key/
    /// options, truncation, corruption) — the caller must compile. The
    /// reason is carried for diagnostics.
    Rejected(String),
    /// The file decoded cleanly — magic, version, key, options and
    /// checksum all valid — but the program inside failed static
    /// verification ([`dpu_verify::verify_program`]) or its derived
    /// config facts do not admit the requested configuration. A checksum
    /// proves the bytes are the bytes that were written, not that the
    /// program is well-formed; this variant closes that gap with the
    /// exact invariant violated.
    Unverifiable(dpu_verify::VerifyError),
}

/// A content-addressed on-disk store of compiled programs — the
/// persistence layer under [`ProgramCache`].
///
/// Each program lives in its own file named after its [`CacheKey`]
/// (DAG fingerprint + architecture point), so a directory can be shared
/// freely: between restarts of one engine (warm restart), between the
/// shards of a dispatcher, or copied to a new machine to pre-warm a
/// scale-out shard. Writes go through a unique temporary file followed
/// by an atomic rename, so concurrent writers (or a reader racing a
/// writer) never observe a partial file.
///
/// Every file records the cache key it serves and a fingerprint of the
/// [`CompileOptions`] it was compiled with; [`SpillStore::load`] rejects
/// anything that does not match exactly, on top of the compiler codec's
/// own version and checksum validation ([`Compiled::from_bytes`]).
pub struct SpillStore {
    dir: PathBuf,
    options_tag: u64,
}

impl std::fmt::Debug for SpillStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillStore")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

/// Stable fingerprint of the compiler options a spill was produced with.
/// Programs compiled with different options are different programs; the
/// tag keeps one shared directory from poisoning caches pinned to other
/// options.
fn options_fingerprint(options: &CompileOptions) -> u64 {
    // Exhaustive destructuring (no `..`): adding a field to
    // `CompileOptions` breaks this build until the fingerprint covers
    // it — a codegen-affecting option silently excluded here would let
    // one fleet serve another fleet's differently-compiled programs.
    let CompileOptions {
        window,
        spill_policy,
        partition_threshold,
        bank_policy,
        seed,
    } = options;
    let mut h = Fnv1a::default();
    h.word(*window as u64);
    h.word(match spill_policy {
        dpu_compiler::SpillPolicy::FurthestNextUse => 0,
        dpu_compiler::SpillPolicy::NearestNextUse => 1,
        dpu_compiler::SpillPolicy::Arbitrary => 2,
    });
    h.word(*partition_threshold as u64);
    h.word(match bank_policy {
        dpu_compiler::BankPolicy::ConflictAware => 0,
        dpu_compiler::BankPolicy::Random => 1,
    });
    h.word(*seed);
    h.finish()
}

/// The spill wrapper's topology byte — the compiler codec's tag
/// ([`dpu_compiler::persist`] owns the `Topology` ↔ byte mapping so the
/// two formats can never drift apart).
fn topology_tag(t: Topology) -> u8 {
    dpu_compiler::persist::topology_tag(t)
}

fn write_key(out: &mut Vec<u8>, key: &CacheKey) {
    out.extend_from_slice(&key.dag.0.to_le_bytes());
    out.extend_from_slice(&key.config.depth.to_le_bytes());
    out.extend_from_slice(&key.config.banks.to_le_bytes());
    out.extend_from_slice(&key.config.regs_per_bank.to_le_bytes());
    out.push(topology_tag(key.config.topology));
    out.extend_from_slice(&key.config.data_mem_rows.to_le_bytes());
}

/// Byte length of the spill header: magic + version + key + options tag.
const SPILL_HEADER_LEN: usize = 4 + 4 + (8 + 4 + 4 + 4 + 1 + 4) + 8;

/// Parses a spill header, returning `(key, options_tag)` or a rejection
/// reason. The key's config is validated through [`ArchConfig`]'s own
/// constructor so a corrupt header can never mint an impossible config.
fn parse_header(bytes: &[u8]) -> Result<(CacheKey, u64), String> {
    if bytes.len() < SPILL_HEADER_LEN {
        return Err("spill header truncated".into());
    }
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
    if bytes[0..4] != SPILL_MAGIC {
        return Err("bad spill magic".into());
    }
    let version = u32_at(4);
    if version != SPILL_VERSION {
        return Err(format!(
            "spill version {version} (this build reads {SPILL_VERSION})"
        ));
    }
    let dag = DagKey(u64_at(8));
    let topology =
        dpu_compiler::persist::topology_from_tag(bytes[28]).map_err(|e| e.to_string())?;
    let mut config = ArchConfig::with_topology(u32_at(16), u32_at(20), u32_at(24), topology)
        .map_err(|e| format!("spill header config: {e}"))?;
    config.data_mem_rows = u32_at(29);
    Ok((CacheKey { dag, config }, u64_at(33)))
}

impl SpillStore {
    /// Opens (creating if needed) a spill directory for programs compiled
    /// with `options`.
    ///
    /// # Errors
    ///
    /// Forwards the I/O error if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>, options: &CompileOptions) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SpillStore {
            dir,
            options_tag: options_fingerprint(options),
        })
    }

    /// The directory this store spills into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Content-addressed file path of `key`. The compiler-options
    /// fingerprint is part of the address: caches pinned to different
    /// options coexist in one shared directory instead of perpetually
    /// overwriting (and then rejecting) each other's spills.
    pub fn path_for(&self, key: &CacheKey) -> PathBuf {
        let c = &key.config;
        self.dir.join(format!(
            "{:016x}-d{}b{}r{}t{}m{}-o{:016x}.{SPILL_EXT}",
            key.dag.0,
            c.depth,
            c.banks,
            c.regs_per_bank,
            topology_tag(c.topology),
            c.data_mem_rows,
            self.options_tag,
        ))
    }

    /// Loads and validates the spilled program for `key`, if any. Every
    /// failure mode short of "file does not exist" is a *rejection*: the
    /// caller compiles instead and the file is left for diagnostics.
    ///
    /// A checksum match alone does not admit a program: the decoded
    /// program must also pass static verification (`dpu-verify`) and its
    /// derived config facts must admit `key.config`, otherwise the load
    /// is [`SpillLookup::Unverifiable`].
    pub fn load(&self, key: &CacheKey) -> SpillLookup {
        let path = self.path_for(key);
        let mut bytes = Vec::new();
        match std::fs::File::open(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return SpillLookup::Absent,
            Err(e) => return SpillLookup::Rejected(format!("{}: {e}", path.display())),
            Ok(mut f) => {
                if let Err(e) = f.read_to_end(&mut bytes) {
                    return SpillLookup::Rejected(format!("{}: {e}", path.display()));
                }
            }
        }
        let (file_key, tag) = match parse_header(&bytes) {
            Ok(h) => h,
            Err(why) => return SpillLookup::Rejected(why),
        };
        if file_key != *key {
            return SpillLookup::Rejected("spill file serves a different cache key".into());
        }
        if tag != self.options_tag {
            return SpillLookup::Rejected("spill compiled with different compiler options".into());
        }
        match Compiled::from_bytes(&bytes[SPILL_HEADER_LEN..]) {
            Ok(compiled) if compiled.program.config == key.config => {
                match compiled.verify() {
                    Ok(report) if report.facts.admits(&key.config) => {
                        SpillLookup::Loaded(Box::new(compiled))
                    }
                    // Unreachable when the program verifies under its own
                    // config (the facts are derived under it), kept as
                    // defense in depth for future cross-config loads.
                    Ok(report) => {
                        SpillLookup::Unverifiable(dpu_verify::VerifyError::FootprintOverflow {
                            rows_used: report.facts.min_data_mem_rows,
                            data_mem_rows: key.config.data_mem_rows,
                        })
                    }
                    Err(e) => SpillLookup::Unverifiable(e),
                }
            }
            Ok(_) => SpillLookup::Rejected("spilled program config mismatch".into()),
            Err(e) => SpillLookup::Rejected(e.to_string()),
        }
    }

    /// Writes `compiled` as the spill for `key`, atomically (temp file +
    /// rename), so concurrent readers and writers over a shared directory
    /// never see partial files.
    ///
    /// # Errors
    ///
    /// Forwards I/O errors; the cache treats spilling as best-effort.
    pub fn store(&self, key: &CacheKey, compiled: &Compiled) -> std::io::Result<()> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let mut header = Vec::with_capacity(SPILL_HEADER_LEN);
        header.extend_from_slice(&SPILL_MAGIC);
        header.extend_from_slice(&SPILL_VERSION.to_le_bytes());
        write_key(&mut header, key);
        header.extend_from_slice(&self.options_tag.to_le_bytes());
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&header)?;
        f.write_all(&compiled.to_bytes())?;
        drop(f);
        let result = std::fs::rename(&tmp, self.path_for(key));
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Scans the directory and returns the cache key of every spill file
    /// whose header matches this store's compiler options. Unreadable or
    /// foreign files are skipped — scanning never fails a serving path.
    pub fn keys(&self) -> Vec<CacheKey> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(SPILL_EXT) {
                continue;
            }
            let mut header = vec![0u8; SPILL_HEADER_LEN];
            let ok = std::fs::File::open(&path)
                .and_then(|mut f| f.read_exact(&mut header))
                .is_ok();
            if !ok {
                continue;
            }
            if let Ok((key, tag)) = parse_header(&header) {
                if tag == self.options_tag {
                    out.push(key);
                }
            }
        }
        // Deterministic order regardless of directory iteration order
        // (every config field participates, so keys differing only in
        // topology or memory size still sort stably).
        out.sort_by_key(|k| {
            (
                k.dag,
                k.config.depth,
                k.config.banks,
                k.config.regs_per_bank,
                topology_tag(k.config.topology),
                k.config.data_mem_rows,
            )
        });
        out
    }
}

/// The read guard of a program-store lock, poisoned or not. A store is
/// shared by every engine shard of a dispatcher, and what its locks guard
/// is consistent between any two statements (a single assignment or a
/// `HashMap` operation), so a shard that panicked while holding one must
/// not fail the survivors' next lookup.
pub(crate) fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// The write guard of a program-store lock; see [`read`].
pub(crate) fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// The guard of a program-store mutex; see [`read`].
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A program's decode, or the error decode refused the program with.
type Decoded = Result<Arc<DecodedProgram>, SimError>;

/// One cache slot. The slot is created empty under the map write lock
/// (cheap), and filled by whichever thread wins the slot's compile mutex
/// (the one expensive compile); losers block on that mutex and then read
/// the result. A key's program never changes, so both cells are
/// write-once: a hit is a load, and concurrent lookups of a hot program
/// never serialize.
struct Slot {
    compiled: OnceLock<Arc<Compiled>>,
    /// The pre-decoded execution form — or the error decode refused the
    /// program with — attached on the first decoded execution and shared
    /// across every shard and worker from then on (the cell itself makes
    /// racing decoders run one decode). Derived state only: it is rebuilt
    /// from `compiled`, never spilled — the spill layer persists exactly
    /// the verified compiled program, so a warm restart re-decodes on
    /// first execute instead of trusting a second on-disk representation.
    decoded: OnceLock<Decoded>,
    /// Held only while filling `compiled` ([`ProgramCache::fill`]): a cell
    /// cannot run a fallible initializer once, and a failed compile must
    /// leave the slot empty for the next caller to retry.
    compile_lock: Mutex<()>,
}

/// How [`ProgramCache::fill`] left a slot.
enum Fill {
    /// Another thread had filled it by the time the compile lock was won.
    Resident,
    /// Back-filled from the spill store.
    Loaded,
    /// Compiled here.
    Compiled,
    /// Still empty: nothing valid was spilled and there was no DAG to
    /// compile from (a prewarm).
    Empty,
}

/// Concurrent compile-once cache of [`Compiled`] programs.
///
/// One instance serves every engine shard of a dispatcher, whatever their
/// configurations (the key carries the [`ArchConfig`]). Which shard's
/// thread compiles a key first is a race; sharing is sound only because
/// compilation is seeded and byte-deterministic — the winner's program is
/// the one every loser would have produced (`tests/golden_bytes.rs`
/// compiles each of its cells twice and compares bytes).
///
/// The cache keeps what it is given and removes nothing. Inside a
/// [`ProgramStore`](crate::ProgramStore) it holds programs only for the
/// DAGs the store registered, which the store keeps anyway, plus what a
/// [`ProgramCache::prewarm`] loads from the spill files of one
/// configuration. A bound, were one needed, belongs on the store as a
/// whole.
pub struct ProgramCache {
    options: CompileOptions,
    spill: Option<SpillStore>,
    map: RwLock<HashMap<CacheKey, Arc<Slot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    spill_hits: AtomicU64,
    spill_writes: AtomicU64,
    spill_rejects: AtomicU64,
    spill_unverifiable: AtomicU64,
    decode_count: AtomicU64,
    /// Reason of the most recent spill rejection, for diagnostics
    /// ([`ProgramCache::last_spill_reject`]).
    last_reject: Mutex<Option<String>>,
}

impl std::fmt::Debug for ProgramCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgramCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl ProgramCache {
    /// An in-memory cache compiling with `options`.
    pub fn new(options: CompileOptions) -> Self {
        Self::with_store(options, None)
    }

    /// A cache compiling with `options`, persisted through `spill` when
    /// there is one: misses check the spill directory before compiling
    /// and fresh compiles are spilled back — see the [module docs](self).
    pub fn with_store(options: CompileOptions, spill: Option<SpillStore>) -> Self {
        ProgramCache {
            options,
            spill,
            map: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            spill_hits: AtomicU64::new(0),
            spill_writes: AtomicU64::new(0),
            spill_rejects: AtomicU64::new(0),
            spill_unverifiable: AtomicU64::new(0),
            decode_count: AtomicU64::new(0),
            last_reject: Mutex::new(None),
        }
    }

    /// The compiler options every entry is compiled with.
    pub fn options(&self) -> &CompileOptions {
        &self.options
    }

    /// Why the most recent spill file was rejected, if any ever was —
    /// the operator-facing answer to a non-zero
    /// [`CacheStats::spill_rejects`].
    pub fn last_spill_reject(&self) -> Option<String> {
        lock(&self.last_reject).clone()
    }

    fn note_reject(&self, why: String) {
        self.spill_rejects.fetch_add(1, Ordering::Relaxed);
        *lock(&self.last_reject) = Some(why);
    }

    /// Returns the compiled program for `(key, config)`, compiling `dag`
    /// on first use. `key` must be `dag`'s fingerprint (the engine keeps
    /// this association; [`crate::dag_fingerprint`] computes it).
    ///
    /// # Errors
    ///
    /// Forwards [`CompileError`]. Failed compilations are not cached;
    /// a later call with the same key retries.
    pub fn get_or_compile(
        &self,
        dag: &Dag,
        key: DagKey,
        config: &ArchConfig,
    ) -> Result<Arc<Compiled>, CompileError> {
        let key = CacheKey {
            dag: key,
            config: *config,
        };
        self.compiled_in(&self.slot(key), &key, dag, 1)
    }

    /// Returns the pre-decoded execution form for `key`, building it from
    /// `compiled` on first use and sharing the same `Arc<DecodedProgram>`
    /// with every shard and worker thereafter. `compiled` must be the
    /// program [`ProgramCache::get_or_compile`] returned for the same
    /// key. This call never makes an entry: for a key with none (a
    /// program compiled elsewhere) it decodes and returns the decode
    /// uncached. (The engine's per-round path visits the slot once for
    /// both forms.)
    ///
    /// The decoded form is never spilled: after a warm restart the slot
    /// is back-filled from disk with only the verified compiled program,
    /// and the first decoded execution rebuilds the derived form here
    /// (visible as [`CacheStats::decode_count`] climbing again).
    ///
    /// # Errors
    ///
    /// The [`SimError`] [`DecodedProgram::decode`] refused the program
    /// with. Decode replays the whole schedule, so this is every fault a
    /// run of the program could meet (an empty-register read, a write-port
    /// clash, a bank overflow, a row out of range, a malformed
    /// instruction) — possible only for a corrupt program, which static
    /// spill verification already screens for. The refusal is cached like
    /// a decoded form: a key's program never changes, so neither does the
    /// verdict, and a later call returns it without replaying again.
    pub fn get_decoded(
        &self,
        key: CacheKey,
        compiled: &Compiled,
    ) -> Result<Arc<DecodedProgram>, SimError> {
        let slot = read(&self.map).get(&key).cloned();
        match slot {
            Some(slot) => self.decoded_in(&slot, compiled),
            None => self.decode(compiled),
        }
    }

    /// One visit to `key`'s slot for everything a round group runs: the
    /// compiled program (compiled from `dag` on first use, exactly as
    /// [`ProgramCache::get_or_compile`]) and its decode (as
    /// [`ProgramCache::get_decoded`]), both taken from the same slot.
    /// `requests` is the size of the group: each member is served from the
    /// cache, so each counts in [`CacheStats::hits`] — all but the one
    /// that compiled — and grouping does not deflate the per-request
    /// [`CacheStats::hit_rate`] CI gates.
    pub(crate) fn lookup(
        &self,
        dag: &Dag,
        key: DagKey,
        config: &ArchConfig,
        requests: u64,
    ) -> Result<(Arc<Compiled>, Decoded), CompileError> {
        let key = CacheKey {
            dag: key,
            config: *config,
        };
        let slot = self.slot(key);
        let compiled = self.compiled_in(&slot, &key, dag, requests)?;
        let decoded = self.decoded_in(&slot, &compiled);
        Ok((compiled, decoded))
    }

    /// The program in `slot`, filled first if the slot is empty; counts
    /// `requests` lookups.
    fn compiled_in(
        &self,
        slot: &Arc<Slot>,
        key: &CacheKey,
        dag: &Dag,
        requests: u64,
    ) -> Result<Arc<Compiled>, CompileError> {
        let mut hits = requests;
        if slot.compiled.get().is_none() {
            match self.fill(slot, key, Some(dag)) {
                Ok(Fill::Compiled) => hits -= 1,
                // Served without compiling — a racer's compile or a
                // back-fill from disk (what makes a restart warm): hits.
                Ok(_) => {}
                Err(e) => {
                    self.discard_if_empty(key, slot);
                    return Err(e);
                }
            }
        }
        self.hits.fetch_add(hits, Ordering::Relaxed);
        Ok(Arc::clone(slot.compiled.get().expect("slot was filled")))
    }

    /// The one way a slot gets its program: under the slot's compile lock
    /// (so fills are mutually exclusive and concurrent callers for one key
    /// block here, then find it filled), from the spill store when a valid
    /// file exists — the load already ran the static verifier — else by
    /// compiling `dag`, when there is one, and spilling the result.
    fn fill(&self, slot: &Slot, key: &CacheKey, dag: Option<&Dag>) -> Result<Fill, CompileError> {
        let _filling = lock(&slot.compile_lock);
        if slot.compiled.get().is_some() {
            return Ok(Fill::Resident);
        }
        if let Some(store) = &self.spill {
            match store.load(key) {
                SpillLookup::Loaded(compiled) => {
                    self.spill_hits.fetch_add(1, Ordering::Relaxed);
                    slot.compiled.get_or_init(|| Arc::new(*compiled));
                    return Ok(Fill::Loaded);
                }
                SpillLookup::Rejected(why) => self.note_reject(why),
                SpillLookup::Unverifiable(e) => {
                    self.spill_unverifiable.fetch_add(1, Ordering::Relaxed);
                    self.note_reject(format!("static verification: {e}"));
                }
                SpillLookup::Absent => {}
            }
        }
        let Some(dag) = dag else {
            return Ok(Fill::Empty);
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let compiled = Arc::new(compile(dag, &key.config, &self.options)?);
        let compiled = slot.compiled.get_or_init(|| compiled);
        if let Some(store) = &self.spill {
            // Best-effort: a failed spill write costs a future cold
            // compile, never a serving error.
            if store.store(key, compiled).is_ok() {
                self.spill_writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(Fill::Compiled)
    }

    /// Unmaps the slot a fill left empty (a failed compile, a prewarm with
    /// nothing valid to load), unless another lookup holds it and will
    /// retry, so that [`CacheStats::entries`] counts programs: a failed
    /// compile or a rejected prewarm leaves no empty slot behind.
    fn discard_if_empty(&self, key: &CacheKey, slot: &Arc<Slot>) {
        let mut map = write(&self.map);
        let ours = map.get(key).is_some_and(|s| Arc::ptr_eq(s, slot));
        // The map's reference and the caller's.
        if ours && slot.compiled.get().is_none() && Arc::strong_count(slot) == 2 {
            map.remove(key);
        }
    }

    /// The decode in `slot`, run first if the cell is empty.
    fn decoded_in(&self, slot: &Slot, compiled: &Compiled) -> Decoded {
        slot.decoded.get_or_init(|| self.decode(compiled)).clone()
    }

    fn decode(&self, compiled: &Compiled) -> Decoded {
        self.decode_count.fetch_add(1, Ordering::Relaxed);
        DecodedProgram::decode(&compiled.program).map(Arc::new)
    }

    /// Back-fills the in-memory cache from the spill store: every spilled
    /// program for `config` is loaded without waiting for a request to
    /// miss on it. Returns the number of programs loaded; a key already
    /// resident — a sibling shard's prewarm got there first — loads
    /// nothing.
    ///
    /// This is the scale-out path: point a **new** engine's spill
    /// directory at a peer's (or a copy of it), prewarm, and the shard
    /// takes its first request with the fleet's compile work already in
    /// memory. Without a spill store this is a no-op.
    pub fn prewarm(&self, config: &ArchConfig) -> usize {
        let Some(store) = &self.spill else {
            return 0;
        };
        let mut loaded = 0;
        for key in store.keys() {
            if key.config != *config {
                continue;
            }
            if read(&self.map).contains_key(&key) {
                continue;
            }
            let slot = self.slot(key);
            if let Ok(Fill::Loaded) = self.fill(&slot, &key, None) {
                loaded += 1;
            } else {
                self.discard_if_empty(&key, &slot);
            }
        }
        loaded
    }

    /// Finds or creates the slot for `key`.
    fn slot(&self, key: CacheKey) -> Arc<Slot> {
        if let Some(slot) = read(&self.map).get(&key) {
            return Arc::clone(slot);
        }
        let mut map = write(&self.map);
        let slot = map.entry(key).or_insert_with(|| {
            Arc::new(Slot {
                compiled: OnceLock::new(),
                decoded: OnceLock::new(),
                compile_lock: Mutex::new(()),
            })
        });
        Arc::clone(slot)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        read(&self.map).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
            spill_hits: self.spill_hits.load(Ordering::Relaxed),
            spill_writes: self.spill_writes.load(Ordering::Relaxed),
            spill_rejects: self.spill_rejects.load(Ordering::Relaxed),
            spill_unverifiable: self.spill_unverifiable.load(Ordering::Relaxed),
            decode_count: self.decode_count.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag_fingerprint;
    use dpu_dag::{DagBuilder, Op};

    impl ProgramCache {
        /// Fills `key`'s slot with `compiled` as if it had been compiled
        /// or loaded — how a test (here or in `pool.rs`) gets a program
        /// past the verifier that guards every real way in.
        pub(crate) fn plant(&self, key: CacheKey, compiled: Compiled) {
            let slot = Slot {
                compiled: OnceLock::from(Arc::new(compiled)),
                decoded: OnceLock::new(),
                compile_lock: Mutex::new(()),
            };
            write(&self.map).insert(key, Arc::new(slot));
        }
    }

    fn dag(seed: u32) -> Dag {
        let mut b = DagBuilder::new();
        let x = b.input();
        let y = b.input();
        let mut acc = b.node(Op::Add, &[x, y]).unwrap();
        for _ in 0..seed % 5 {
            acc = b.node(Op::Mul, &[acc, y]).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn second_lookup_hits_and_shares() {
        let cache = ProgramCache::new(CompileOptions::default());
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let d = dag(1);
        let k = dag_fingerprint(&d);
        let a = cache.get_or_compile(&d, k, &cfg).unwrap();
        let b = cache.get_or_compile(&d, k, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn decoded_form_attaches_once_and_is_shared() {
        let cache = ProgramCache::new(CompileOptions::default());
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let d = dag(3);
        let k = dag_fingerprint(&d);
        let compiled = cache.get_or_compile(&d, k, &cfg).unwrap();
        let key = CacheKey {
            dag: k,
            config: cfg,
        };
        let a = cache.get_decoded(key, &compiled).unwrap();
        let b = cache.get_decoded(key, &compiled).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "decoded form is decoded once");
        assert_eq!(cache.stats().decode_count, 1);
        // Compiled lookups are unaffected by the attached decoded form.
        let again = cache.get_or_compile(&d, k, &cfg).unwrap();
        assert!(Arc::ptr_eq(&compiled, &again));
    }

    /// Decode replays the whole schedule, so it is the place a corrupt
    /// program is met: it must come back as an error — never a panic,
    /// which would fail every shard's round on that key — and the refusal
    /// is cached, not replayed per round.
    #[test]
    fn refused_decode_is_cached_and_poisons_nothing() {
        use dpu_isa::Instr;
        let cache = ProgramCache::new(CompileOptions::default());
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let (bad_dag, good_dag) = (dag(3), dag(4));
        let key = |d: &Dag| CacheKey {
            dag: dag_fingerprint(d),
            config: cfg,
        };
        let good = cache
            .get_or_compile(&good_dag, key(&good_dag).dag, &cfg)
            .unwrap();
        // Two corruptions `Program` literals allow and `Instr::validate`
        // would have caught: an `exec` whose opcode vector is short (an
        // index past its end) and a read of a bank that does not exist
        // (an index past the valid bits).
        let mut corrupt = (*good).clone();
        for instr in &mut corrupt.program.instrs {
            match instr {
                Instr::Exec(e) => e.pe_ops.truncate(1),
                Instr::Store { reads, .. } => {
                    for r in reads.iter_mut().flatten() {
                        r.bank += cfg.banks;
                    }
                }
                _ => {}
            }
        }
        cache.plant(key(&bad_dag), corrupt.clone());
        let first = cache.get_decoded(key(&bad_dag), &corrupt).unwrap_err();
        assert!(matches!(first, SimError::Malformed { .. }), "{first:?}");
        let second = cache.get_decoded(key(&bad_dag), &corrupt).unwrap_err();
        assert_eq!(first, second, "the verdict cannot change");
        assert_eq!(cache.stats().decode_count, 1, "one replay, then the memo");
        // The slot's lock survived, and so did the rest of the cache.
        assert!(!cache.slot(key(&bad_dag)).compile_lock.is_poisoned());
        cache.get_decoded(key(&good_dag), &good).unwrap();
        assert_eq!(cache.stats().decode_count, 2);
    }

    #[test]
    fn distinct_configs_are_distinct_entries() {
        let cache = ProgramCache::new(CompileOptions::default());
        let d = dag(2);
        let k = dag_fingerprint(&d);
        cache
            .get_or_compile(&d, k, &ArchConfig::new(2, 8, 16).unwrap())
            .unwrap();
        cache
            .get_or_compile(&d, k, &ArchConfig::new(3, 16, 32).unwrap())
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.len(), 2);
    }

    /// A lookup of a key whose program is not cached yet decodes it,
    /// counts the decode, and makes no entry: `get_decoded` never creates
    /// a slot, so `entries` keeps counting programs.
    #[test]
    fn decode_of_an_absent_key_makes_no_entry() {
        let cache = ProgramCache::new(CompileOptions::default());
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let d = dag(1);
        let key = CacheKey {
            dag: dag_fingerprint(&d),
            config: cfg,
        };
        let compiled = compile(&d, &cfg, &CompileOptions::default()).unwrap();
        cache.get_decoded(key, &compiled).unwrap();
        let s = cache.stats();
        assert_eq!((s.misses, s.decode_count, s.entries), (0, 1, 0));
    }

    /// Containment: one cache serves every shard of a dispatcher, so a
    /// shard that panics while holding a slot's compile lock or the map
    /// lock must not fail the survivors' lookups — of the same key or of
    /// any other — through a poisoned lock.
    #[test]
    fn a_panic_under_a_cache_lock_fails_nobody_else() {
        let cache = ProgramCache::new(CompileOptions::default());
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let (da, db) = (dag(1), dag(2));
        let (ka, kb) = (dag_fingerprint(&da), dag_fingerprint(&db));
        let key_a = CacheKey {
            dag: ka,
            config: cfg,
        };
        std::thread::scope(|scope| {
            let died = scope.spawn(|| {
                let slot = cache.slot(key_a);
                let _compiling = slot.compile_lock.lock().unwrap();
                let _mapping = cache.map.write().unwrap();
                panic!("shard dies mid-compile");
            });
            assert!(died.join().is_err());
        });
        assert!(cache.map.is_poisoned() && cache.slot(key_a).compile_lock.is_poisoned());
        let other = scope_lookup(&cache, &db, kb, &cfg);
        let same = scope_lookup(&cache, &da, ka, &cfg);
        assert!(other.1.is_ok() && same.1.is_ok());
        let s = cache.stats();
        assert_eq!((s.misses, s.decode_count, s.entries), (2, 2, 2));
        assert_eq!(cache.prewarm(&cfg), 0);
    }

    /// A [`ProgramCache::lookup`] from another thread, as a surviving
    /// shard would make it.
    fn scope_lookup(
        cache: &ProgramCache,
        dag: &Dag,
        key: DagKey,
        cfg: &ArchConfig,
    ) -> (Arc<Compiled>, Decoded) {
        std::thread::scope(|scope| {
            scope
                .spawn(|| cache.lookup(dag, key, cfg, 1).unwrap())
                .join()
                .unwrap()
        })
    }

    /// Spins until `ready` holds; a minute without it is a failure (of the
    /// code under test: every wait below is for progress it must make).
    fn wait_until(what: &str, ready: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !ready() {
            assert!(
                start.elapsed() < std::time::Duration::from_secs(60),
                "never happened: {what}"
            );
            std::thread::yield_now();
        }
    }

    /// Lookups that race on one key share one compile. No sleeps: a
    /// handshake on the slot. The test holds the slot's compile lock, so
    /// the fill the first racer enters stays in flight until it lets go;
    /// before letting go it asserts that all three racers are inside the
    /// one slot the map holds, and that the slot is still empty.
    #[test]
    fn racing_lookups_share_one_compile() {
        let cache = ProgramCache::new(CompileOptions::default());
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let d = dag(3);
        let key = CacheKey {
            dag: dag_fingerprint(&d),
            config: cfg,
        };
        let slot = cache.slot(key);
        let filling = lock(&slot.compile_lock);
        let results: Vec<Arc<Compiled>> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| cache.get_or_compile(&d, key.dag, &cfg).unwrap()))
                .collect();
            // The slot's holders: the map, this test, one per racer.
            wait_until("racers in the slot", || Arc::strong_count(&slot) == 5);
            let mapped = read(&cache.map).get(&key).cloned();
            assert!(mapped.is_some_and(|m| Arc::ptr_eq(&m, &slot)));
            assert!(slot.compiled.get().is_none(), "the fill was not in flight");
            drop(filling);
            racers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results {
            assert!(Arc::ptr_eq(&results[0], r), "the key compiled twice");
        }
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (1, 2, 1));
    }

    /// A slot held between `slot()` and its fill stays the key's mapped
    /// slot while other keys compile, and the lookup that follows fills
    /// that live slot: one compile, which the next lookup shares.
    #[test]
    fn held_slot_stays_mapped_while_other_keys_compile() {
        let cache = ProgramCache::new(CompileOptions::default());
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let dags: Vec<Dag> = (0..3).map(dag).collect();
        let key = CacheKey {
            dag: dag_fingerprint(&dags[0]),
            config: cfg,
        };
        let held = cache.slot(key);
        assert!(held.compiled.get().is_none());
        for d in &dags[1..] {
            cache.get_or_compile(d, dag_fingerprint(d), &cfg).unwrap();
        }
        let mapped = read(&cache.map).get(&key).cloned();
        assert!(
            mapped.is_some_and(|m| Arc::ptr_eq(&m, &held)),
            "the held slot was replaced; its fill would be orphaned"
        );
        let a = cache.get_or_compile(&dags[0], key.dag, &cfg).unwrap();
        let b = cache.get_or_compile(&dags[0], key.dag, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "the finished compile was lost");
        assert!(Arc::ptr_eq(held.compiled.get().unwrap(), &a));
        let s = cache.stats();
        assert_eq!((s.misses, s.hits, s.entries), (3, 1, 3));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dpu-cache-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Known answers, computed before the options tag moved to
    /// `dpu_isa::Fnv1a`: a spill written under the default options still
    /// carries the tag (header bytes 33..41) this build looks for, under
    /// the file name it looks for.
    #[test]
    fn default_options_tag_and_spill_path_are_pinned() {
        let dir = temp_dir("pinned-tag");
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let d = dag(3);
        let key = CacheKey {
            dag: dag_fingerprint(&d),
            config: cfg,
        };
        let store = SpillStore::new(&dir, &CompileOptions::default()).unwrap();
        let compiled = compile(&d, &cfg, &CompileOptions::default()).unwrap();
        store.store(&key, &compiled).unwrap();
        let path = store.path_for(&key);
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "d32fdf02861a9a45-d2b8r16t1m16384-o7bfae9b6d7db5fca.dpuc"
        );
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(
            u64::from_le_bytes(bytes[33..41].try_into().unwrap()),
            0x7bfa_e9b6_d7db_5fca
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_store_roundtrips_and_backfills() {
        let dir = temp_dir("roundtrip");
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let d = dag(3);
        let k = dag_fingerprint(&d);

        // Cold cache compiles and spills.
        let store = SpillStore::new(&dir, &CompileOptions::default()).unwrap();
        let cold = ProgramCache::with_store(CompileOptions::default(), Some(store));
        let compiled = cold.get_or_compile(&d, k, &cfg).unwrap();
        let s = cold.stats();
        assert_eq!((s.misses, s.spill_writes, s.spill_hits), (1, 1, 0));

        // A "restarted" cache over the same directory back-fills on miss:
        // zero compiles, and the reloaded program is exactly the
        // compiled one.
        let store = SpillStore::new(&dir, &CompileOptions::default()).unwrap();
        let warm = ProgramCache::with_store(CompileOptions::default(), Some(store));
        let reloaded = warm.get_or_compile(&d, k, &cfg).unwrap();
        let s = warm.stats();
        assert_eq!((s.hits, s.misses, s.spill_hits), (1, 0, 1));
        assert_eq!(reloaded.program, compiled.program);
        assert_eq!(reloaded.layout, compiled.layout);
        assert_eq!(reloaded.outputs, compiled.outputs);

        // Prewarm path: a third cache loads it without any lookup.
        let store = SpillStore::new(&dir, &CompileOptions::default()).unwrap();
        let peer = ProgramCache::with_store(CompileOptions::default(), Some(store));
        assert_eq!(peer.prewarm(&cfg), 1);
        assert_eq!(peer.len(), 1);
        let served = peer.get_or_compile(&d, k, &cfg).unwrap();
        let s = peer.stats();
        assert_eq!((s.hits, s.misses), (1, 0), "prewarmed key must hit");
        assert_eq!(served.program, compiled.program);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spill_rejects_other_options_and_configs() {
        let dir = temp_dir("options");
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let d = dag(4);
        let k = dag_fingerprint(&d);
        let store = SpillStore::new(&dir, &CompileOptions::default()).unwrap();
        let cache = ProgramCache::with_store(CompileOptions::default(), Some(store));
        cache.get_or_compile(&d, k, &cfg).unwrap();

        // Different compiler options: the content address differs (the
        // options fingerprint is part of the file name), so each options
        // set keeps its own spills — neither fleet overwrites the
        // other's, and the foreign file never appears in a scan.
        let other_opts = CompileOptions {
            window: 4,
            ..Default::default()
        };
        let store = SpillStore::new(&dir, &other_opts).unwrap();
        assert!(store.keys().is_empty(), "foreign options visible in scan");
        let other = ProgramCache::with_store(other_opts.clone(), Some(store));
        other.get_or_compile(&d, k, &cfg).unwrap();
        let s = other.stats();
        assert_eq!((s.misses, s.spill_hits), (1, 0));
        // Both options' spills now coexist; the original is untouched.
        let store = SpillStore::new(&dir, &CompileOptions::default()).unwrap();
        assert_eq!(store.keys().len(), 1);
        let store = SpillStore::new(&dir, &other_opts).unwrap();
        assert_eq!(store.keys().len(), 1);

        // Different config: content address differs, so it's absent, and
        // prewarm for that config loads nothing.
        let store = SpillStore::new(&dir, &CompileOptions::default()).unwrap();
        let cache2 = ProgramCache::with_store(CompileOptions::default(), Some(store));
        assert_eq!(cache2.prewarm(&ArchConfig::new(3, 16, 32).unwrap()), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Hostile header bytes: a depth whose `2^D` overflows `u32` is a typed
    /// rejection, not a shift-overflow panic in `parse_header`.
    #[test]
    fn spill_header_with_overflowing_depth_is_rejected() {
        let dir = temp_dir("deep-header");
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let d = dag(3);
        let key = CacheKey {
            dag: dag_fingerprint(&d),
            config: cfg,
        };
        let store = SpillStore::new(&dir, &CompileOptions::default()).unwrap();
        let compiled = compile(&d, &cfg, &CompileOptions::default()).unwrap();
        store.store(&key, &compiled).unwrap();
        let path = store.path_for(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[16..20].copy_from_slice(&40u32.to_le_bytes()); // the key's depth
        std::fs::write(&path, &bytes).unwrap();
        match store.load(&key) {
            SpillLookup::Rejected(why) => assert!(why.contains("D=40"), "{why}"),
            other => panic!("expected a rejection, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The checksum-alone trust gap, end to end: a spill file whose bytes
    /// are perfectly intact (valid magic, version, key, options tag and
    /// checksum) but whose *program* is corrupt must be refused at load by
    /// the static verifier with a typed reason — and the cache falls back
    /// to compiling instead of serving the broken program.
    #[test]
    fn semantically_corrupt_spill_is_refused_by_verifier() {
        let dir = temp_dir("unverifiable");
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let d = dag(3);
        let k = dag_fingerprint(&d);
        let key = CacheKey {
            dag: k,
            config: cfg,
        };
        let store = SpillStore::new(&dir, &CompileOptions::default()).unwrap();
        let cache = ProgramCache::with_store(CompileOptions::default(), Some(store));
        let good = cache.get_or_compile(&d, k, &cfg).unwrap();

        // Tamper semantically: drop the program's last store, so an
        // output is never written. Then re-spill through the store's own
        // API — the file gets a *correct* checksum over corrupt contents.
        let mut bad = (*good).clone();
        let last_store = bad
            .program
            .instrs
            .iter()
            .rposition(|i| {
                matches!(
                    i,
                    dpu_isa::Instr::Store { .. } | dpu_isa::Instr::StoreK { .. }
                )
            })
            .expect("program stores its outputs");
        bad.program.instrs.remove(last_store);
        SpillStore::new(&dir, &CompileOptions::default())
            .unwrap()
            .store(&key, &bad)
            .unwrap();

        // A restarted cache must refuse the entry at load (typed, counted)
        // and compile instead — never panic, never serve the bad program.
        let store = SpillStore::new(&dir, &CompileOptions::default()).unwrap();
        match store.load(&key) {
            SpillLookup::Unverifiable(e) => {
                assert!(
                    matches!(
                        e,
                        dpu_verify::VerifyError::OutputNotStored { .. }
                            | dpu_verify::VerifyError::ReadUndefined { .. }
                    ),
                    "unexpected diagnostic: {e}"
                );
            }
            other => panic!("expected Unverifiable, got {other:?}"),
        }
        let recompiles = || {
            let store = SpillStore::new(&dir, &CompileOptions::default()).unwrap();
            let fresh = ProgramCache::with_store(CompileOptions::default(), Some(store));
            let recompiled = fresh.get_or_compile(&d, k, &cfg).unwrap();
            assert_eq!(recompiled.program, good.program);
            let s = fresh.stats();
            assert_eq!(
                (
                    s.misses,
                    s.spill_rejects,
                    s.spill_unverifiable,
                    s.spill_hits
                ),
                (1, 1, 1, 0)
            );
            let why = fresh.last_spill_reject().expect("reason recorded");
            assert!(why.contains("static verification"), "reason: {why}");
        };
        recompiles();

        // A second corruption the checksum cannot see: the pristine
        // program with a misdeclared schedule length (the recompile above
        // spilled a good entry back; this overwrites it).
        let mut bad = (*good).clone();
        bad.stats.total_cycles += 1;
        SpillStore::new(&dir, &CompileOptions::default())
            .unwrap()
            .store(&key, &bad)
            .unwrap();
        let store = SpillStore::new(&dir, &CompileOptions::default()).unwrap();
        match store.load(&key) {
            SpillLookup::Unverifiable(dpu_verify::VerifyError::CycleMismatch {
                replayed,
                declared,
            }) => assert_eq!(
                (replayed, declared),
                (good.stats.total_cycles, good.stats.total_cycles + 1)
            ),
            other => panic!("expected Unverifiable(CycleMismatch), got {other:?}"),
        }
        recompiles();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A rejected spill file is observable: the counter climbs and the
    /// reason survives for diagnostics.
    #[test]
    fn rejected_spill_reason_is_observable() {
        let dir = temp_dir("reject-reason");
        let cfg = ArchConfig::new(2, 8, 16).unwrap();
        let d = dag(2);
        let k = dag_fingerprint(&d);
        let store = SpillStore::new(&dir, &CompileOptions::default()).unwrap();
        let cache = ProgramCache::with_store(CompileOptions::default(), Some(store));
        cache.get_or_compile(&d, k, &cfg).unwrap();
        assert!(cache.last_spill_reject().is_none());

        // Corrupt the spilled file, then look it up through a fresh cache.
        let path = SpillStore::new(&dir, &CompileOptions::default())
            .unwrap()
            .path_for(&CacheKey {
                dag: k,
                config: cfg,
            });
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        // A prewarm meets it first: nothing loads, and the rejected file
        // leaves no empty slot behind.
        let store = SpillStore::new(&dir, &CompileOptions::default()).unwrap();
        let fresh = ProgramCache::with_store(CompileOptions::default(), Some(store));
        assert_eq!((fresh.prewarm(&cfg), fresh.len()), (0, 0));
        assert_eq!(fresh.stats().spill_rejects, 1);
        fresh.get_or_compile(&d, k, &cfg).unwrap();
        let s = fresh.stats();
        assert_eq!((s.misses, s.spill_rejects), (1, 2));
        let why = fresh.last_spill_reject().expect("reason recorded");
        assert!(why.contains("checksum"), "unexpected reason: {why}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
