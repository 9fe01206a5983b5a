//! Disk persistence for the graph cache: spill and restore of
//! materialized structures.
//!
//! A [`SpillStore`] is a directory of spill files, one per materialized
//! [`RepGraph`] of any width (the counter structure is width 0), named
//! by the structure's [`CacheKey`]: `g-<fnv>-n<n>-w<width>.spill`, where
//! `<fnv>` is the FNV-1a of the workload's canonical bytes
//! ([`WorkloadKey`](icstar_sym::WorkloadKey)). On a cache miss the store
//! is probed first; a valid file reconstructs the bundle without
//! re-exploration — restarts and horizontally-scaled replicas warm-start
//! from the same directory instead of re-building multi-million-state
//! structures.
//!
//! The on-disk format (version 3) is **versioned and checksummed**:
//!
//! ```text
//! magic    8 bytes  "ICSPILL!"
//! version  u32 LE   bumped on any incompatible layout or naming change
//! key      u64 FNV-1a of the workload bytes · u32 n · u32 width
//! length   u64 LE   payload byte count
//! payload  workload bytes · graph bytes      (see below)
//! checksum u64 LE   FNV-1a over the payload
//! ```
//!
//! The payload starts with the workload's canonical bytes themselves,
//! not just their hash: on restore they are compared to the requested
//! key's bytes, so a hash collision can cost a rejected file but never a
//! wrong structure — the same exact identity the in-memory cache keys
//! on. The graph bytes then encode the Kripke structure (state names,
//! sorted label atoms, successor lists, initial state), the index set
//! (empty at width 0), and the compiled [`TransFairness`]
//! (per-requirement state bit sets and transition edge sets, both over
//! the structure's dense state ids — state creation order is preserved
//! on decode, so the indices stay valid).
//!
//! **Any** defect — truncation, checksum mismatch, unknown version,
//! wrong key, workload mismatch, malformed graph bytes — rejects the
//! file silently: the caller falls back to a fresh build (and re-spills
//! it, healing the file). Corruption can cost a rebuild, never a wrong
//! answer. Writes go through a temp file + atomic rename so a crashed
//! writer leaves no half-written spill under the final name.
//! [`SpillStore::open`] reads the header of every `*.spill` file and
//! deletes those of another format version, which nothing reads any
//! more.

use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use icstar_kripke::bits::BitSet;
use icstar_kripke::{Atom, IndexedKripke, Kripke, KripkeBuilder, StateId, CANONICAL_INDEX};
use icstar_mc::fair::{FairReq, TransFairness};
use icstar_sym::RepGraph;
use icstar_telemetry::Counter;

use crate::cache::CacheKey;

/// The 8-byte file magic.
pub const SPILL_MAGIC: &[u8; 8] = b"ICSPILL!";

/// The current on-disk format version. Readers reject any other value.
pub const SPILL_VERSION: u32 = 3;

/// Decode-side sanity cap on any single element count (states, edges,
/// atoms). Far above any graph the engine can materialize; prevents a
/// corrupt length field from provoking an absurd allocation.
const MAX_COUNT: u32 = 1 << 28;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Primitive encoding (little-endian, length-prefixed strings).
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over a byte slice; every accessor returns
/// `None` past the end, which rejects the file.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// An element count, rejected when absurd ([`MAX_COUNT`]).
    fn count(&mut self) -> Option<u32> {
        self.u32().filter(|&c| c <= MAX_COUNT)
    }

    fn str(&mut self) -> Option<String> {
        let len = self.count()? as usize;
        let bytes = self.bytes(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }
}

// ---------------------------------------------------------------------
// Graph encoding.
// ---------------------------------------------------------------------

fn encode_atom(out: &mut Vec<u8>, a: &Atom) {
    match a {
        Atom::Plain(name) => {
            put_u8(out, 0);
            put_str(out, name);
        }
        Atom::Indexed(name, i) => {
            put_u8(out, 1);
            put_str(out, name);
            put_u32(out, *i);
        }
        Atom::ExactlyOne(name) => {
            put_u8(out, 2);
            put_str(out, name);
        }
    }
}

fn decode_atom(c: &mut Cursor) -> Option<Atom> {
    match c.u8()? {
        0 => Some(Atom::Plain(c.str()?)),
        1 => {
            let name = c.str()?;
            Some(Atom::Indexed(name, c.u32()?))
        }
        2 => Some(Atom::ExactlyOne(c.str()?)),
        _ => None,
    }
}

fn encode_kripke(out: &mut Vec<u8>, k: &Kripke) {
    put_u32(out, k.num_states() as u32);
    put_u32(out, k.initial().0);
    for s in k.states() {
        put_str(out, k.state_name(s));
        let atoms = k.label_atoms(s);
        put_u32(out, atoms.len() as u32);
        for a in &atoms {
            encode_atom(out, a);
        }
        let succs = k.successors(s);
        put_u32(out, succs.len() as u32);
        for t in succs {
            put_u32(out, t.0);
        }
    }
}

/// Rebuilds the structure through [`KripkeBuilder`], creating states in
/// file order — dense [`StateId`]s come out identical to the encoded
/// ones, which the fairness requirements' state indices rely on.
fn decode_kripke(c: &mut Cursor) -> Option<Kripke> {
    let n = c.count()?;
    let init = c.u32()?;
    if init >= n {
        return None;
    }
    let mut builder = KripkeBuilder::new();
    let mut ids: Vec<StateId> = Vec::with_capacity(n as usize);
    let mut adjacency: Vec<Vec<u32>> = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let name = c.str()?;
        let natoms = c.count()?;
        let mut atoms = Vec::with_capacity(natoms as usize);
        for _ in 0..natoms {
            atoms.push(decode_atom(c)?);
        }
        ids.push(builder.state_labeled(name, atoms));
        let nsuccs = c.count()?;
        let mut succs = Vec::with_capacity(nsuccs as usize);
        for _ in 0..nsuccs {
            let t = c.u32()?;
            if t >= n {
                return None;
            }
            succs.push(t);
        }
        adjacency.push(succs);
    }
    for (q, succs) in adjacency.iter().enumerate() {
        for &t in succs {
            builder.edge(ids[q], ids[t as usize]);
        }
    }
    builder.build(ids[init as usize]).ok()
}

fn encode_fairness(out: &mut Vec<u8>, f: &TransFairness) {
    let reqs = f.reqs();
    put_u32(out, reqs.len() as u32);
    for req in reqs {
        let states = req.states();
        put_u32(out, states.capacity() as u32);
        put_u32(out, states.len() as u32);
        for bit in states.iter() {
            put_u32(out, bit as u32);
        }
        let edges = req.edges();
        put_u32(out, edges.len() as u32);
        for &(a, b) in edges {
            put_u32(out, a);
            put_u32(out, b);
        }
    }
}

/// Mirrors the invariants the checker relies on as rejections: every
/// requirement's state set spans exactly the structure's states (so
/// `TransFairness::new` cannot panic on mixed capacities), and every
/// requirement edge is a transition of the structure (a non-edge could
/// make the fair-SCC test accept a component no path satisfies).
fn decode_fairness(c: &mut Cursor, kripke: &Kripke) -> Option<TransFairness> {
    let num_states = kripke.num_states() as u32;
    let nreqs = c.count()?;
    let mut reqs = Vec::with_capacity(nreqs as usize);
    for _ in 0..nreqs {
        let capacity = c.count()?;
        if capacity != num_states {
            return None;
        }
        let mut states = BitSet::new(capacity as usize);
        let nbits = c.count()?;
        for _ in 0..nbits {
            let bit = c.u32()?;
            if bit >= capacity {
                return None;
            }
            states.insert(bit as usize);
        }
        let nedges = c.count()?;
        let mut edges = Vec::with_capacity(nedges as usize);
        for _ in 0..nedges {
            let a = c.u32()?;
            let b = c.u32()?;
            if a >= num_states || b >= num_states || !kripke.has_edge(StateId(a), StateId(b)) {
                return None;
            }
            edges.push((a, b));
        }
        reqs.push(FairReq::new(states, edges));
    }
    Some(TransFairness::new(reqs))
}

fn decode_indices(c: &mut Cursor) -> Option<Vec<u32>> {
    let n = c.count()?;
    let mut indices = Vec::with_capacity(n as usize);
    for _ in 0..n {
        indices.push(c.u32()?);
    }
    // Mirror `IndexedKripke::new`'s invariants as rejections instead of
    // panics: strictly increasing (sorted, duplicate-free), canonical
    // index absent.
    if indices.windows(2).any(|w| w[0] >= w[1]) || indices.contains(&CANONICAL_INDEX) {
        return None;
    }
    Some(indices)
}

/// A label-set check `IndexedKripke::new` would otherwise assert: every
/// indexed atom's index must be in the index set.
fn indices_cover_labels(k: &Kripke, indices: &[u32]) -> bool {
    k.states().all(|s| {
        k.label_atoms(s)
            .iter()
            .all(|a| a.index().is_none_or(|i| indices.binary_search(&i).is_ok()))
    })
}

// ---------------------------------------------------------------------
// File assembly.
// ---------------------------------------------------------------------

fn assemble(key: &CacheKey, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 64);
    out.extend_from_slice(SPILL_MAGIC);
    put_u32(&mut out, SPILL_VERSION);
    put_u64(&mut out, fnv1a(key.workload.bytes()));
    put_u32(&mut out, key.n);
    put_u32(&mut out, key.width);
    put_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    put_u64(&mut out, fnv1a(payload));
    out
}

/// Checks magic, version, key, length, and checksum; returns the
/// verified payload slice.
fn verified_payload<'a>(bytes: &'a [u8], key: &CacheKey) -> Option<&'a [u8]> {
    let mut c = Cursor::new(bytes);
    if c.bytes(8)? != SPILL_MAGIC || c.u32()? != SPILL_VERSION {
        return None;
    }
    if c.u64()? != fnv1a(key.workload.bytes()) || c.u32()? != key.n || c.u32()? != key.width {
        return None;
    }
    let len = usize::try_from(c.u64()?).ok()?;
    let payload = c.bytes(len)?;
    let checksum = c.u64()?;
    if !c.at_end() || fnv1a(payload) != checksum {
        return None;
    }
    Some(payload)
}

// ---------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------

/// A directory of spill files the [`GraphCache`](crate::GraphCache)
/// persists materialized structures into. See the module docs for the
/// file format and rejection rules. All methods are `&self` and
/// thread-safe; concurrent writers of the same key race benignly (both
/// write the same bytes, the rename is atomic).
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    spills: Counter,
    restores: Counter,
    rejects: Counter,
    warm_files: u64,
}

impl SpillStore {
    /// Opens (creating if needed) the spill directory.
    ///
    /// # Errors
    ///
    /// Propagates directory creation/listing failures.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        // Only this format's files are warm-start inventory. Spill files
        // of another version are never read, so they are removed rather
        // than kept as a second copy of every spilled structure; a failed
        // removal is ignored, as failed writes are. Files without the
        // magic are not ours and stay.
        let mut warm_files = 0;
        for entry in fs::read_dir(&dir)?.filter_map(Result::ok) {
            let path = entry.path();
            if path.extension().is_none_or(|e| e != "spill") {
                continue;
            }
            let mut head = [0u8; 12];
            let read = fs::File::open(&path).and_then(|mut f| f.read_exact(&mut head));
            if read.is_err() || &head[..8] != SPILL_MAGIC {
                continue;
            }
            if head[8..] == SPILL_VERSION.to_le_bytes() {
                warm_files += 1;
            } else {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(SpillStore {
            dir,
            spills: Counter::detached(),
            restores: Counter::detached(),
            rejects: Counter::detached(),
            warm_files,
        })
    }

    /// The directory spill files live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Spill files of this format present when the store was opened —
    /// the warm-start inventory a restarted server begins with.
    pub fn warm_files(&self) -> u64 {
        self.warm_files
    }

    /// Structures written to disk by this store.
    pub fn spills(&self) -> u64 {
        self.spills.get()
    }

    /// Structures reconstructed from disk by this store.
    pub fn restores(&self) -> u64 {
        self.restores.get()
    }

    /// Files probed but rejected (truncated, corrupt, version- or
    /// workload-mismatched) — each one cost a rebuild, never a wrong
    /// structure.
    pub fn rejects(&self) -> u64 {
        self.rejects.get()
    }

    pub(crate) fn counters(&self) -> (&Counter, &Counter, &Counter) {
        (&self.spills, &self.restores, &self.rejects)
    }

    /// The file the structure under `key` spills to. The hash of the
    /// workload bytes names the file, so fair/unfair or otherwise
    /// distinct templates never alias; a hash collision is caught by the
    /// stored workload bytes on restore.
    pub fn path(&self, key: &CacheKey) -> PathBuf {
        let fnv = fnv1a(key.workload.bytes());
        (self.dir).join(format!("g-{fnv:016x}-n{}-w{}.spill", key.n, key.width))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, path)
    }

    /// Writes `graph`, the structure under `key`, to disk. Write
    /// failures (permissions, full disk) are swallowed — persistence is
    /// an optimization, never load-bearing.
    pub fn spill(&self, key: &CacheKey, graph: &RepGraph) {
        let mut payload = Vec::new();
        let workload = key.workload.bytes();
        put_u32(&mut payload, workload.len() as u32);
        payload.extend_from_slice(workload);
        encode_kripke(&mut payload, &graph.kripke);
        put_u32(&mut payload, graph.kripke.indices().len() as u32);
        for &i in graph.kripke.indices() {
            put_u32(&mut payload, i);
        }
        encode_fairness(&mut payload, &graph.fairness);
        let bytes = assemble(key, &payload);
        if self.write_atomic(&self.path(key), &bytes).is_ok() {
            self.spills.inc();
        }
    }

    /// Restores the structure under `key` from disk, or `None`: absent,
    /// or rejected per the module rules (each rejection counts in
    /// [`SpillStore::rejects`]).
    pub fn restore(&self, key: &CacheKey) -> Option<RepGraph> {
        let bytes = fs::read(self.path(key)).ok()?;
        let graph = verified_payload(&bytes, key).and_then(|payload| {
            // The stored workload bytes must equal the requested key's —
            // the on-disk form of the cache's exact identity.
            let mut c = Cursor::new(payload);
            let len = c.count()? as usize;
            if c.bytes(len)? != key.workload.bytes() {
                return None;
            }
            let kripke = decode_kripke(&mut c)?;
            let indices = decode_indices(&mut c)?;
            if !indices_cover_labels(&kripke, &indices) {
                return None;
            }
            let fairness = decode_fairness(&mut c, &kripke)?;
            c.at_end().then(|| RepGraph {
                kripke: IndexedKripke::new(kripke, indices),
                fairness,
            })
        });
        match &graph {
            Some(_) => self.restores.inc(),
            None => self.rejects.inc(),
        }
        graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_sym::{
        barrier_template, msi_template, mutex_template, ring_station_template, wakeup_template,
        CountingSpec, GuardedBuilder, GuardedTemplate, SymEngine,
    };

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "icstar-spill-{}-{}-{tag}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every gallery family, plain and with the fairness declarations
    /// its liveness rows use.
    fn gallery() -> Vec<GuardedTemplate> {
        let fig41 = {
            let mut b = GuardedBuilder::new();
            let a = b.state("a", ["a"]);
            let f = b.state("b", ["b"]);
            b.edge(a, f);
            b.edge(f, f);
            b.build(a)
        };
        let ring = ring_station_template(4, 1);
        let fair = vec![
            fig41.clone().with_fairness("fall", [(0, 1)]),
            mutex_template().with_fairness("enter", [(1, 2)]),
            ring.clone()
                .with_fairness("advance", [(0, 1), (1, 2), (2, 3), (3, 0)]),
            barrier_template()
                .with_fairness("arrive", [(0, 1), (2, 3)])
                .with_fairness("release", [(1, 2), (3, 0)]),
            msi_template().with_fairness("writeback", [(2, 0)]),
            wakeup_template().with_fairness("wake", [(0, 1)]),
        ];
        let plain = [
            fig41,
            mutex_template(),
            ring,
            barrier_template(),
            msi_template(),
            wakeup_template(),
        ];
        plain.into_iter().chain(fair).collect()
    }

    fn assert_same(a: &RepGraph, b: &RepGraph, what: &str) {
        let (ka, kb) = (&a.kripke, &b.kripke);
        assert_eq!(ka.num_states(), kb.num_states(), "{what}: states");
        assert_eq!(ka.initial(), kb.initial(), "{what}: initial");
        assert_eq!(ka.indices(), kb.indices(), "{what}: indices");
        for s in ka.states() {
            assert_eq!(ka.state_name(s), kb.state_name(s), "{what}: name");
            assert_eq!(ka.label_atoms(s), kb.label_atoms(s), "{what}: label");
            assert_eq!(ka.successors(s), kb.successors(s), "{what}: edges");
        }
        let (ra, rb) = (a.fairness.reqs(), b.fairness.reqs());
        assert_eq!(ra.len(), rb.len(), "{what}: requirements");
        for (ra, rb) in ra.iter().zip(rb) {
            assert!(ra.states().iter().eq(rb.states().iter()), "{what}");
            assert_eq!(ra.edges(), rb.edges(), "{what}: fairness edges");
        }
    }

    /// Spills and restores every gallery family at each of `widths`
    /// (n = 4) and checks the restored structure against a fresh build.
    fn assert_round_trips(tag: &str, widths: std::ops::RangeInclusive<u32>) {
        let dir = temp_dir(tag);
        let store = SpillStore::open(&dir).unwrap();
        let n = 4;
        let mut expected = 0;
        for t in gallery() {
            let s = CountingSpec::standard(&t);
            let engine = SymEngine::with_spec(t.clone(), s.clone());
            for width in widths.clone() {
                expected += 1;
                let what = format!("{:?} fair {}, width {width}", t.state_name(0), t.is_fair());
                let built = engine.graph(n, width).unwrap();
                let key = CacheKey::of(&t, &s, n, width);
                store.spill(&key, &built);
                let restored = store.restore(&key).expect("restores");
                assert_same(&built, &restored, &what);
                assert_same(&engine.graph(n, width).unwrap(), &restored, &what);
                // A file written under one width's key is refused under
                // another's.
                let other = CacheKey::of(&t, &s, n, (width + 1) % 3);
                fs::copy(store.path(&key), store.path(&other)).unwrap();
                let rejects = store.rejects();
                assert!(store.restore(&other).is_none(), "{what}");
                assert_eq!(store.rejects(), rejects + 1, "{what}");
                fs::remove_file(store.path(&other)).unwrap();
            }
        }
        assert_eq!(store.restores(), expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counter_round_trip_is_structural_identity() {
        assert_round_trips("counter-round-trip", 0..=0);
    }

    #[test]
    fn rep_round_trip_preserves_indices_and_fairness() {
        assert_round_trips("rep-round-trip", 1..=2);
    }

    /// Spills the mutex counter structure at `n` and returns its path.
    fn spill_mutex(store: &SpillStore, n: u32) -> PathBuf {
        let t = mutex_template();
        let s = CountingSpec::standard(&t);
        let key = CacheKey::of(&t, &s, n, 0);
        store.spill(&key, &SymEngine::new(t.clone()).counter_graph(n));
        store.path(&key)
    }

    fn restore_mutex(store: &SpillStore, n: u32) -> Option<RepGraph> {
        let t = mutex_template();
        store.restore(&CacheKey::of(&t, &CountingSpec::standard(&t), n, 0))
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let dir = temp_dir("version");
        let store = SpillStore::open(&dir).unwrap();
        let path = spill_mutex(&store, 4);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] ^= 0xff; // version field
        fs::write(&path, &bytes).unwrap();
        assert!(restore_mutex(&store, 4).is_none());
        assert_eq!(store.rejects(), 1);
        // Version 1 files are refused too.
        bytes[8] ^= 0xff;
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(restore_mutex(&store, 4).is_none());
        assert_eq!(store.rejects(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checksum_corruption_is_rejected() {
        let dir = temp_dir("corrupt");
        let store = SpillStore::open(&dir).unwrap();
        let path = spill_mutex(&store, 4);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(restore_mutex(&store, 4).is_none());
        assert_eq!(store.rejects(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncation_is_rejected() {
        let dir = temp_dir("trunc");
        let store = SpillStore::open(&dir).unwrap();
        let path = spill_mutex(&store, 4);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        assert!(restore_mutex(&store, 4).is_none());
        assert_eq!(store.rejects(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes a checksummed mutex counter spill at `n` whose graph is
    /// `k`, with an empty index set, and whose fairness section is the
    /// raw `fairness` bytes.
    fn write_counter_spill(store: &SpillStore, n: u32, k: &Kripke, fairness: &[u8]) {
        let t = mutex_template();
        let s = CountingSpec::standard(&t);
        let mut payload = Vec::new();
        let key = CacheKey::of(&t, &s, n, 0);
        let workload = key.workload.bytes();
        put_u32(&mut payload, workload.len() as u32);
        payload.extend_from_slice(workload);
        encode_kripke(&mut payload, k);
        put_u32(&mut payload, 0);
        payload.extend_from_slice(fairness);
        fs::write(store.path(&key), assemble(&key, &payload)).unwrap();
    }

    #[test]
    fn mismatched_fairness_capacities_are_rejected() {
        let dir = temp_dir("fair-capacity");
        let store = SpillStore::open(&dir).unwrap();
        let k = SymEngine::new(mutex_template()).counter_graph(4).kripke;
        let states = k.num_states() as u32;
        // Two edge-free requirements, one a state short.
        let mut fairness = Vec::new();
        put_u32(&mut fairness, 2);
        for capacity in [states, states - 1] {
            put_u32(&mut fairness, capacity);
            put_u32(&mut fairness, 0);
            put_u32(&mut fairness, 0);
        }
        write_counter_spill(&store, 4, &k, &fairness);
        assert!(restore_mutex(&store, 4).is_none());
        assert_eq!(store.rejects(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fairness_edges_outside_the_structure_are_rejected() {
        let dir = temp_dir("fair-edge");
        let store = SpillStore::open(&dir).unwrap();
        let k = SymEngine::new(mutex_template()).counter_graph(4).kripke;
        let (a, b) = k
            .states()
            .flat_map(|a| k.states().map(move |b| (a, b)))
            .find(|&(a, b)| !k.has_edge(a, b))
            .expect("the mutex counter structure is not complete");
        // One requirement whose only edge is in range but not a transition.
        let mut fairness = Vec::new();
        for word in [1, k.num_states() as u32, 0, 1, a.0, b.0] {
            put_u32(&mut fairness, word);
        }
        write_counter_spill(&store, 4, &k, &fairness);
        assert!(restore_mutex(&store, 4).is_none());
        assert_eq!(store.rejects(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_not_a_reject() {
        let dir = temp_dir("missing");
        let store = SpillStore::open(&dir).unwrap();
        assert!(restore_mutex(&store, 3).is_none());
        assert_eq!(store.rejects(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn warm_files_counts_existing_spills() {
        let dir = temp_dir("warm");
        {
            let store = SpillStore::open(&dir).unwrap();
            assert_eq!(store.warm_files(), 0);
            spill_mutex(&store, 4);
            spill_mutex(&store, 5);
        }
        // Spill files of another version are never read: open removes
        // them by their header and does not count them — version-1
        // counter and representative files, and version-2 files named by
        // the two fingerprints. Files without the spill magic stay,
        // whatever their name.
        let header = |version: u32| [&SPILL_MAGIC[..], &version.to_le_bytes()].concat();
        let stale = [
            (dir.join("c-0000000000000001-0000000000000002-n4.spill"), 1),
            (
                dir.join("r-0000000000000001-0000000000000002-n4-w1.spill"),
                1,
            ),
            (
                dir.join("g-0000000000000001-0000000000000002-n4-w0.spill"),
                2,
            ),
        ];
        for (path, version) in &stale {
            fs::write(path, header(*version)).unwrap();
        }
        fs::write(dir.join("notes.txt"), b"keep").unwrap();
        fs::write(dir.join("foreign.spill"), b"not a spill file").unwrap();
        let reopened = SpillStore::open(&dir).unwrap();
        assert_eq!(reopened.warm_files(), 2);
        for (path, _) in &stale {
            assert!(!path.exists(), "{} survived open", path.display());
        }
        assert!(dir.join("notes.txt").exists());
        assert!(dir.join("foreign.spill").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
