//! The results archive: a directory-backed, JSON-persisted store of
//! campaign runs, keyed by content-addressed run ids.
//!
//! A finished [`CampaignResult`] used to evaporate unless the caller
//! hand-wired CSV paths. [`ResultStore`] makes results durable and
//! addressable: every archived run records the *effective*
//! [`CampaignSpec`], the full result, and provenance metadata, under a
//! [`RunId`] derived from the canonical spec JSON — so the same experiment
//! (same device, seed, frequencies, knobs) always lands on the same id, and
//! two stores built from the same specs agree on every address.
//!
//! ```no_run
//! use latest_core::store::ResultStore;
//! use latest_core::spec::CampaignSpec;
//! # use latest_core::CampaignSession;
//! let spec = CampaignSpec::builder("a100")
//!     .frequencies_mhz(&[705, 1410])
//!     .build()
//!     .unwrap();
//! let result = CampaignSession::new(spec.resolve().unwrap()).run().unwrap();
//!
//! let store = ResultStore::open("latest-store").unwrap();
//! let id = store.put(&spec, &result).unwrap();
//! let back = store.get(&id).unwrap();
//! assert_eq!(back.result.seed, result.seed);
//! assert_eq!(store.latest_for(&spec).unwrap().unwrap().run_id, id);
//! ```
//!
//! Layout: one file per run, `<root>/<run-id>.json`, written atomically
//! (temp + rename). Loads validate integrity: the stored spec must re-hash
//! to the file's id, parse-validate, and agree with the stored result's
//! seed and device index — a corrupted or hand-edited archive entry is
//! reported, never silently served.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::campaign::CampaignResult;
use crate::spec::{CampaignSpec, FleetSpec};

/// Content-addressed identity of an archived run: a stable hash of the
/// effective spec's canonical JSON (which covers device, seed, frequencies
/// and every stopping-rule knob).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunId(String);

impl RunId {
    /// Derive the id of the run a spec describes.
    ///
    /// Stable across re-serialisation: the canonical JSON emitted by
    /// [`CampaignSpec::to_json`] has a fixed field order, so
    /// spec → JSON → spec → JSON is byte-identical and re-hashes to the
    /// same id.
    ///
    /// The spec names its device; the hash does not cover the device's
    /// parameters. That is sound because every caller that archives a run
    /// (`latest run --store`, the queue's worker pool, the tests that build
    /// archives) resolves the spec through the built-in registries, where
    /// one name means one device — see [`CampaignSpec::resolve_with`].
    pub fn of_spec(spec: &CampaignSpec) -> RunId {
        let (h1, h2) = content_hash128(spec.to_json().as_bytes());
        RunId(format!("run-{h1:016x}{h2:016x}"))
    }

    /// Parse an id string (`run-<32 hex>`), rejecting malformed input.
    pub fn parse(text: &str) -> Result<RunId, StoreError> {
        let hex = text
            .strip_prefix("run-")
            .filter(|h| h.len() == 32 && h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| StoreError::BadRunId {
                text: text.to_string(),
            })?;
        Ok(RunId(format!("run-{}", hex.to_ascii_lowercase())))
    }

    /// The id as a string (`run-<32 hex>`); also the archive file stem.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The *family* id of the experiment a spec describes: the id the spec
    /// would have under seed 0.
    ///
    /// Re-runs of the same experiment conventionally vary only the seed, so
    /// the family id groups them — [`ResultStore::gc`] keeps the most
    /// recent N entries per family. Two specs differing in anything other
    /// than the seed land in different families.
    pub fn family_of(spec: &CampaignSpec) -> RunId {
        let mut normalized = spec.clone();
        normalized.seed = 0;
        RunId::of_spec(&normalized)
    }
}

impl std::fmt::Display for RunId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// 128 content-address bits over a canonical byte string: FNV-1a twice
/// with distinct offset bases. Dependency-free and deterministic across
/// platforms; the single hashing scheme behind [`RunId`] and the queue's
/// job keys — one implementation so the two addressing spaces can never
/// silently drift.
pub fn content_hash128(bytes: &[u8]) -> (u64, u64) {
    (
        fnv1a64(bytes, 0xcbf2_9ce4_8422_2325),
        fnv1a64(bytes, 0x6c62_272e_07bb_0142),
    )
}

fn fnv1a64(bytes: &[u8], offset_basis: u64) -> u64 {
    let mut hash = offset_basis;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Provenance metadata recorded next to every archived run. Deliberately
/// free of wall-clock timestamps: an archive entry's bytes are a pure
/// function of the run, so re-archiving the same run is a no-op and
/// rendered bundles stay bitwise reproducible.
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    /// Version of this tool that produced the result.
    pub tool_version: String,
    /// Resolved device name (e.g. `NVIDIA A100-SXM4-40GB`).
    pub device_name: String,
    /// Device unit index.
    pub device_index: usize,
    /// Hostname the spec names for output files.
    pub hostname: String,
    /// Campaign seed.
    pub seed: u64,
    /// Ordered pairs scheduled.
    pub pairs_total: usize,
    /// Pairs that completed with measurements.
    pub pairs_completed: usize,
    /// The spec's free-text description.
    pub description: String,
}

impl Provenance {
    fn derive(spec: &CampaignSpec, result: &CampaignResult) -> Provenance {
        Provenance {
            tool_version: env!("CARGO_PKG_VERSION").to_string(),
            device_name: result.device_name.clone(),
            device_index: result.device_index,
            hostname: spec.hostname.clone(),
            seed: result.seed,
            pairs_total: result.pairs().len(),
            pairs_completed: result.completed().count(),
            description: spec.description.clone(),
        }
    }
}

impl serde::Serialize for Provenance {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("tool_version".to_string(), self.tool_version.to_value()),
            ("device_name".to_string(), self.device_name.to_value()),
            ("device_index".to_string(), self.device_index.to_value()),
            ("hostname".to_string(), self.hostname.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("pairs_total".to_string(), self.pairs_total.to_value()),
            (
                "pairs_completed".to_string(),
                self.pairs_completed.to_value(),
            ),
            ("description".to_string(), self.description.to_value()),
        ])
    }
}

impl serde::Deserialize for Provenance {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value.as_map().ok_or_else(|| {
            serde::Error::custom(format!("expected map for Provenance, got {value:?}"))
        })?;
        let field = |name: &str| serde::field(entries, name, "Provenance");
        Ok(Provenance {
            tool_version: serde::Deserialize::from_value(field("tool_version")?)?,
            device_name: serde::Deserialize::from_value(field("device_name")?)?,
            device_index: serde::Deserialize::from_value(field("device_index")?)?,
            hostname: serde::Deserialize::from_value(field("hostname")?)?,
            seed: serde::Deserialize::from_value(field("seed")?)?,
            pairs_total: serde::Deserialize::from_value(field("pairs_total")?)?,
            pairs_completed: serde::Deserialize::from_value(field("pairs_completed")?)?,
            description: serde::Deserialize::from_value(field("description")?)?,
        })
    }
}

/// One archived run: the effective spec, the full result, and provenance.
#[derive(Clone, Debug)]
pub struct StoredRun {
    /// The run's content address.
    pub run_id: RunId,
    /// Provenance metadata.
    pub provenance: Provenance,
    /// The effective campaign spec the result was produced from.
    pub spec: CampaignSpec,
    /// The full campaign result.
    pub result: CampaignResult,
}

const STORE_FORMAT: u64 = 1;

impl serde::Serialize for StoredRun {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("format".to_string(), STORE_FORMAT.to_value()),
            (
                "run_id".to_string(),
                self.run_id.as_str().to_string().to_value(),
            ),
            ("provenance".to_string(), self.provenance.to_value()),
            ("spec".to_string(), self.spec.to_value()),
            ("result".to_string(), self.result.to_value()),
        ])
    }
}

impl serde::Deserialize for StoredRun {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value.as_map().ok_or_else(|| {
            serde::Error::custom(format!("expected map for StoredRun, got {value:?}"))
        })?;
        let field = |name: &str| serde::field(entries, name, "StoredRun");
        let format: u64 = serde::Deserialize::from_value(field("format")?)?;
        if format != STORE_FORMAT {
            return Err(serde::Error::custom(format!(
                "unsupported archive format {format} (this tool reads {STORE_FORMAT})"
            )));
        }
        let id_text: String = serde::Deserialize::from_value(field("run_id")?)?;
        let run_id = RunId::parse(&id_text)
            .map_err(|e| serde::Error::custom(format!("bad run_id in archive entry: {e}")))?;
        Ok(StoredRun {
            run_id,
            provenance: serde::Deserialize::from_value(field("provenance")?)?,
            spec: serde::Deserialize::from_value(field("spec")?)?,
            result: serde::Deserialize::from_value(field("result")?)?,
        })
    }
}

/// Errors surfaced by the archive.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A run id string is not `run-<32 hex>`.
    BadRunId {
        /// The offending text.
        text: String,
    },
    /// The requested run is not in the archive.
    NotFound {
        /// The requested id.
        run_id: String,
    },
    /// An archive entry failed to parse.
    Parse {
        /// File involved.
        path: PathBuf,
        /// Parser message.
        message: String,
    },
    /// An archive entry parsed but failed integrity validation (stored spec
    /// re-hashes to a different id, or disagrees with the stored result).
    Corrupt {
        /// File involved.
        path: PathBuf,
        /// What disagreed.
        reason: String,
    },
    /// A run-id prefix matched more than one archived run.
    AmbiguousPrefix {
        /// The prefix given.
        prefix: String,
        /// Every matching id.
        matches: Vec<String>,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O: {e}"),
            StoreError::BadRunId { text } => {
                write!(
                    f,
                    "malformed run id {text:?} (expected run-<32 hex digits>)"
                )
            }
            StoreError::NotFound { run_id } => write!(f, "run {run_id} is not in the archive"),
            StoreError::Parse { path, message } => {
                write!(f, "unreadable archive entry {}: {message}", path.display())
            }
            StoreError::Corrupt { path, reason } => {
                write!(f, "corrupt archive entry {}: {reason}", path.display())
            }
            StoreError::AmbiguousPrefix { prefix, matches } => write!(
                f,
                "run id prefix {prefix:?} is ambiguous ({})",
                matches.join(", ")
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// Write `contents` to `path` atomically: write a temp file beside it, then
/// rename it over `path`, so a crash mid-write never corrupts an existing
/// file and a reader sees either the old bytes or the new.
///
/// The temp name carries the pid and a per-process counter, so concurrent
/// writers of one path (two jobs archiving the same run) never share a temp
/// file; the last rename wins and every writer's bytes are whole. The name
/// is a dot-file ending in `.tmp`, never `.json`, so the directory scans
/// that key on the `.json` suffix skip it.
pub fn write_atomic(path: &Path, contents: impl AsRef<[u8]>) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!(
        ".{name}.{}-{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// A directory-backed archive of campaign runs.
#[derive(Clone, Debug)]
pub struct ResultStore {
    root: PathBuf,
}

impl ResultStore {
    /// Open (creating if necessary) the archive rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> StoreResult<ResultStore> {
        let root = dir.into();
        fs::create_dir_all(&root)?;
        Ok(ResultStore { root })
    }

    /// The archive's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_of(&self, id: &RunId) -> PathBuf {
        self.root.join(format!("{}.json", id.as_str()))
    }

    /// Archive one run under the id its spec hashes to, returning that id.
    ///
    /// Idempotent: re-putting the same (spec, result) rewrites the same
    /// bytes at the same address. A different result under the same spec
    /// (e.g. a partial checkpoint vs the finished run) overwrites — the
    /// archive keeps the latest result per address, which is what
    /// [`ResultStore::latest_for`] means.
    pub fn put(&self, spec: &CampaignSpec, result: &CampaignResult) -> StoreResult<RunId> {
        let run_id = RunId::of_spec(spec);
        let doc = StoredRun {
            run_id: run_id.clone(),
            provenance: Provenance::derive(spec, result),
            spec: spec.clone(),
            result: result.clone(),
        };
        let json = serde_json::to_string_pretty(&doc).expect("stored run serialises");
        write_atomic(&self.path_of(&run_id), json)?;
        Ok(run_id)
    }

    /// Archive every member of a fleet run per slot, returning the member
    /// run ids in slot order. Members whose campaigns never started
    /// (cancelled fleets) are skipped.
    pub fn put_fleet(
        &self,
        spec: &FleetSpec,
        results: &[CampaignResult],
    ) -> StoreResult<Vec<RunId>> {
        let mut ids = Vec::new();
        for (member, result) in spec.members.iter().zip(results) {
            ids.push(self.put(member, result)?);
        }
        Ok(ids)
    }

    /// Load one archived run, validating its integrity.
    pub fn get(&self, id: &RunId) -> StoreResult<StoredRun> {
        let path = self.path_of(id);
        let text = fs::read_to_string(&path).map_err(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                StoreError::NotFound {
                    run_id: id.to_string(),
                }
            } else {
                StoreError::Io(e)
            }
        })?;
        let doc: StoredRun = serde_json::from_str(&text).map_err(|e| StoreError::Parse {
            path: path.clone(),
            message: e.to_string(),
        })?;
        self.validate(&path, id, &doc)?;
        Ok(doc)
    }

    fn validate(&self, path: &Path, requested: &RunId, doc: &StoredRun) -> StoreResult<()> {
        let corrupt = |reason: String| StoreError::Corrupt {
            path: path.to_path_buf(),
            reason,
        };
        if &doc.run_id != requested {
            return Err(corrupt(format!(
                "entry records id {} but was addressed as {requested}",
                doc.run_id
            )));
        }
        let rehash = RunId::of_spec(&doc.spec);
        if rehash != doc.run_id {
            return Err(corrupt(format!(
                "stored spec re-hashes to {rehash}, not {} — the spec or id was edited",
                doc.run_id
            )));
        }
        if doc.result.seed != doc.spec.seed {
            return Err(corrupt(format!(
                "result seed {} disagrees with spec seed {}",
                doc.result.seed, doc.spec.seed
            )));
        }
        if doc.result.device_index != doc.spec.device_index {
            return Err(corrupt(format!(
                "result device index {} disagrees with spec device index {}",
                doc.result.device_index, doc.spec.device_index
            )));
        }
        if let Err(errors) = doc.spec.validate() {
            return Err(corrupt(format!(
                "stored spec no longer validates: {errors}"
            )));
        }
        Ok(())
    }

    /// The archived run a spec addresses, if present.
    pub fn latest_for(&self, spec: &CampaignSpec) -> StoreResult<Option<StoredRun>> {
        match self.get(&RunId::of_spec(spec)) {
            Ok(run) => Ok(Some(run)),
            Err(StoreError::NotFound { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Whether a run id is present (without loading the result).
    pub fn contains(&self, id: &RunId) -> bool {
        self.path_of(id).is_file()
    }

    /// Every archived run, sorted by id (validated on load).
    pub fn list(&self) -> StoreResult<Vec<StoredRun>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".json") {
                if let Ok(id) = RunId::parse(stem) {
                    ids.push(id);
                }
            }
        }
        ids.sort();
        ids.into_iter().map(|id| self.get(&id)).collect()
    }

    /// Delete one archived run, returning whether it was present.
    ///
    /// Removing an absent id is not an error (`Ok(false)`): deletion is
    /// idempotent so queue retention and `list-runs --prune` can race
    /// harmlessly with each other.
    pub fn remove(&self, id: &RunId) -> StoreResult<bool> {
        match fs::remove_file(self.path_of(id)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// Bound archive growth: keep only the `keep_latest_n_per_spec` most
    /// recently written runs of each experiment *family* (the spec modulo
    /// seed — see [`RunId::family_of`]) and delete the rest, returning the
    /// removed ids in ascending order.
    ///
    /// Recency is file modification time (entry bytes are deliberately
    /// timestamp-free), with ties broken by id so the outcome is
    /// deterministic. `keep_latest_n_per_spec == 0` empties the archive.
    pub fn gc(&self, keep_latest_n_per_spec: usize) -> StoreResult<Vec<RunId>> {
        use std::collections::BTreeMap;
        let mut families: BTreeMap<RunId, Vec<(std::time::SystemTime, RunId)>> = BTreeMap::new();
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            let Some(stem) = name.strip_suffix(".json") else {
                continue;
            };
            let Ok(id) = RunId::parse(stem) else {
                continue;
            };
            let run = match self.get(&id) {
                Ok(run) => run,
                // A torn or tampered entry must not block pruning every
                // valid one — it is skipped (and left in place: gc bounds
                // growth, it does not adjudicate corruption).
                Err(StoreError::Parse { .. } | StoreError::Corrupt { .. }) => continue,
                Err(e) => return Err(e),
            };
            let mtime = fs::metadata(self.path_of(&run.run_id))?.modified()?;
            families
                .entry(RunId::family_of(&run.spec))
                .or_default()
                .push((mtime, run.run_id));
        }
        let mut removed = Vec::new();
        for (_, mut members) in families {
            // Newest first; mtime ties broken by id for determinism.
            members.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            for (_, id) in members.into_iter().skip(keep_latest_n_per_spec) {
                self.remove(&id)?;
                removed.push(id);
            }
        }
        removed.sort();
        Ok(removed)
    }

    /// Resolve a full run id or an unambiguous prefix (≥ 4 hex digits after
    /// `run-`, or the bare hex) to the archived id it names.
    pub fn resolve(&self, text: &str) -> StoreResult<RunId> {
        if let Ok(id) = RunId::parse(text) {
            if self.contains(&id) {
                return Ok(id);
            }
            return Err(StoreError::NotFound {
                run_id: id.to_string(),
            });
        }
        let needle = text.strip_prefix("run-").unwrap_or(text).to_lowercase();
        if needle.len() < 4 || !needle.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(StoreError::BadRunId {
                text: text.to_string(),
            });
        }
        let mut matches = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".json") {
                if let Ok(id) = RunId::parse(stem) {
                    if id.as_str()["run-".len()..].starts_with(&needle) {
                        matches.push(id);
                    }
                }
            }
        }
        matches.sort();
        match matches.len() {
            0 => Err(StoreError::NotFound {
                run_id: format!("run-{needle}…"),
            }),
            1 => Ok(matches.remove(0)),
            _ => Err(StoreError::AmbiguousPrefix {
                prefix: text.to_string(),
                matches: matches.iter().map(|m| m.to_string()).collect(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CampaignSession;

    fn spec(seed: u64) -> CampaignSpec {
        CampaignSpec::builder("a100")
            .frequencies_mhz(&[705, 1410])
            .measurements(4, 8)
            .simulated_sms(Some(2))
            .seed(seed)
            .build()
            .unwrap()
    }

    fn run(spec: &CampaignSpec) -> CampaignResult {
        CampaignSession::new(spec.resolve().unwrap()).run().unwrap()
    }

    fn temp_store(tag: &str) -> ResultStore {
        let dir =
            std::env::temp_dir().join(format!("latest_store_test_{tag}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        ResultStore::open(dir).unwrap()
    }

    #[test]
    fn run_id_is_content_addressed_and_stable() {
        let s = spec(7);
        let id1 = RunId::of_spec(&s);
        // Re-serialisation changes nothing.
        let reparsed = CampaignSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(RunId::of_spec(&reparsed), id1);
        // Any knob change moves the address.
        let mut other = s.clone();
        other.seed = 8;
        assert_ne!(RunId::of_spec(&other), id1);
        // Ids parse back to themselves.
        assert_eq!(RunId::parse(id1.as_str()).unwrap(), id1);
        assert!(RunId::parse("run-xyz").is_err());
        assert!(RunId::parse("not-an-id").is_err());
    }

    #[test]
    fn put_get_round_trips_with_provenance() {
        let store = temp_store("roundtrip");
        let s = spec(11);
        let r = run(&s);
        let id = store.put(&s, &r).unwrap();
        let back = store.get(&id).unwrap();
        assert_eq!(back.spec, s);
        assert_eq!(back.result.seed, r.seed);
        assert_eq!(back.provenance.pairs_total, r.pairs().len());
        assert_eq!(back.provenance.device_name, r.device_name);
        assert!(store.contains(&id));
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn put_is_idempotent_and_latest_for_finds_it() {
        let store = temp_store("idem");
        let s = spec(13);
        let r = run(&s);
        let id1 = store.put(&s, &r).unwrap();
        let bytes1 = fs::read(store.root().join(format!("{id1}.json"))).unwrap();
        let id2 = store.put(&s, &r).unwrap();
        let bytes2 = fs::read(store.root().join(format!("{id2}.json"))).unwrap();
        assert_eq!(id1, id2);
        assert_eq!(bytes1, bytes2, "re-put must rewrite identical bytes");
        let latest = store.latest_for(&s).unwrap().unwrap();
        assert_eq!(latest.run_id, id1);
        assert!(store.latest_for(&spec(999)).unwrap().is_none());
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn list_and_prefix_resolution() {
        let store = temp_store("list");
        let s1 = spec(1);
        let s2 = spec(2);
        store.put(&s1, &run(&s1)).unwrap();
        store.put(&s2, &run(&s2)).unwrap();
        let all = store.list().unwrap();
        assert_eq!(all.len(), 2);
        assert!(all.windows(2).all(|w| w[0].run_id < w[1].run_id));
        // A long-enough unique prefix resolves.
        let id = RunId::of_spec(&s1);
        let short = &id.as_str()[..12]; // "run-" + 8 hex
        assert_eq!(store.resolve(short).unwrap(), id);
        assert!(matches!(
            store.resolve("run-ffff"),
            Err(StoreError::NotFound { .. }) | Err(StoreError::AmbiguousPrefix { .. })
        ));
        assert!(matches!(
            store.resolve("zz"),
            Err(StoreError::BadRunId { .. })
        ));
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn remove_is_idempotent() {
        let store = temp_store("remove");
        let s = spec(41);
        let id = store.put(&s, &run(&s)).unwrap();
        assert!(store.contains(&id));
        assert!(store.remove(&id).unwrap());
        assert!(!store.contains(&id));
        assert!(!store.remove(&id).unwrap(), "second remove reports absent");
        assert!(matches!(store.get(&id), Err(StoreError::NotFound { .. })));
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn gc_keeps_latest_n_per_family() {
        let store = temp_store("gc");
        // One family (same spec, seeds 1..=3) plus an unrelated spec.
        let family: Vec<CampaignSpec> = (1..=3).map(spec).collect();
        let mut ids = Vec::new();
        for (i, s) in family.iter().enumerate() {
            ids.push(store.put(s, &run(s)).unwrap());
            // Distinct mtimes so "latest" is well defined (coarse
            // filesystems round to a second).
            let path = store.root().join(format!("{}.json", ids[i]));
            let t = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000_000 + i as u64 * 100);
            let f = fs::File::options().append(true).open(&path).unwrap();
            f.set_modified(t).unwrap();
        }
        let other = CampaignSpec::builder("gh200")
            .frequencies_mhz(&[705, 1980])
            .measurements(4, 8)
            .simulated_sms(Some(2))
            .build()
            .unwrap();
        let other_id = store.put(&other, &run(&other)).unwrap();

        assert_eq!(
            RunId::family_of(&family[0]),
            RunId::family_of(&family[2]),
            "same spec modulo seed shares a family"
        );
        assert_ne!(RunId::family_of(&family[0]), RunId::family_of(&other));

        let removed = store.gc(1).unwrap();
        // The two oldest family members go; the newest and the unrelated
        // spec stay.
        assert_eq!(removed.len(), 2);
        assert!(removed.contains(&ids[0]) && removed.contains(&ids[1]));
        assert!(store.contains(&ids[2]));
        assert!(store.contains(&other_id));
        assert!(store.gc(1).unwrap().is_empty(), "gc is idempotent");
        assert!(!store.gc(0).unwrap().is_empty());
        assert!(store.list().unwrap().is_empty(), "gc(0) empties the store");
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn gc_skips_corrupt_entries_instead_of_failing() {
        let store = temp_store("gc_corrupt");
        let family: Vec<CampaignSpec> = (1..=2).map(spec).collect();
        let mut ids = Vec::new();
        for (i, s) in family.iter().enumerate() {
            ids.push(store.put(s, &run(s)).unwrap());
            let path = store.root().join(format!("{}.json", ids[i]));
            let t = std::time::SystemTime::UNIX_EPOCH
                + std::time::Duration::from_secs(1_000_000 + i as u64 * 100);
            let f = fs::File::options().append(true).open(&path).unwrap();
            f.set_modified(t).unwrap();
        }
        // Tear a third entry: valid id filename, garbage content.
        let torn = store
            .root()
            .join("run-ffffffffffffffffffffffffffffffff.json");
        fs::write(&torn, "{torn").unwrap();
        // Pruning still works on the valid family; the torn entry neither
        // fails the call nor gets deleted.
        let removed = store.gc(1).unwrap();
        assert_eq!(removed, vec![ids[0].clone()]);
        assert!(store.contains(&ids[1]));
        assert!(torn.is_file());
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn ambiguous_prefix_error_lists_every_candidate() {
        let store = temp_store("ambig");
        let mut ids = Vec::new();
        // Seeds until two ids share a 1-hex-digit prefix; resolve() needs 4
        // digits, so synthesize the collision by renaming the second file
        // onto a shared prefix instead of fishing for a real hash collision.
        let s1 = spec(51);
        let s2 = spec(52);
        ids.push(store.put(&s1, &run(&s1)).unwrap());
        ids.push(store.put(&s2, &run(&s2)).unwrap());
        let shared = "deadbeef";
        ids = ids
            .into_iter()
            .map(|id| {
                let forged = format!("run-{shared}{}", &id.as_str()[12..]);
                fs::rename(
                    store.root().join(format!("{id}.json")),
                    store.root().join(format!("{forged}.json")),
                )
                .unwrap();
                RunId::parse(&forged).unwrap()
            })
            .collect();
        let err = store.resolve(shared).unwrap_err();
        match err {
            StoreError::AmbiguousPrefix { matches, .. } => {
                assert_eq!(matches.len(), 2);
                for id in &ids {
                    assert!(matches.contains(&id.to_string()), "missing {id}");
                }
            }
            other => panic!("expected AmbiguousPrefix, got {other}"),
        }
        // And the rendered message carries every candidate too.
        let msg = store.resolve(shared).unwrap_err().to_string();
        for id in &ids {
            assert!(msg.contains(id.as_str()), "message must list {id}: {msg}");
        }
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn tampered_entries_are_rejected() {
        let store = temp_store("tamper");
        let s = spec(21);
        let id = store.put(&s, &run(&s)).unwrap();
        let path = store.root().join(format!("{id}.json"));
        // Edit the stored spec's seed without re-hashing.
        let text = fs::read_to_string(&path).unwrap();
        let edited = text.replacen("\"seed\": 21", "\"seed\": 22", 2);
        assert_ne!(text, edited);
        fs::write(&path, edited).unwrap();
        assert!(matches!(store.get(&id), Err(StoreError::Corrupt { .. })));
        // Unparseable JSON is a parse error, not a panic.
        fs::write(&path, "{not json").unwrap();
        assert!(matches!(store.get(&id), Err(StoreError::Parse { .. })));
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn fleet_members_are_stored_per_slot() {
        let store = temp_store("fleet");
        let fleet = FleetSpec::new().member(spec(31)).member(spec(32));
        let results: Vec<CampaignResult> = fleet.members.iter().map(run).collect();
        let ids = store.put_fleet(&fleet, &results).unwrap();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1]);
        for (member, id) in fleet.members.iter().zip(&ids) {
            assert_eq!(&RunId::of_spec(member), id);
            assert!(store.contains(id));
        }
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn concurrent_puts_of_one_run_all_succeed() {
        // Concurrent writers of one run (a fleet job and a campaign job
        // sharing a member spec) must not collide on a shared temp file.
        let store = temp_store("concurrent");
        let s = spec(41);
        let r = run(&s);
        const ROUNDS: usize = 200;
        const WRITERS: usize = 4;
        let barrier = std::sync::Barrier::new(WRITERS);
        let failures: usize = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|_| {
                    scope.spawn(|| {
                        (0..ROUNDS)
                            .filter(|_| {
                                barrier.wait();
                                store.put(&s, &r).is_err()
                            })
                            .count()
                    })
                })
                .collect();
            writers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(
            failures,
            0,
            "{failures} of {} puts failed",
            WRITERS * ROUNDS
        );
        let sequential = temp_store("concurrent_reference");
        let name = format!("{}.json", sequential.put(&s, &r).unwrap());
        assert_eq!(
            fs::read(store.root().join(&name)).unwrap(),
            fs::read(sequential.root().join(&name)).unwrap()
        );
        // No temp file outlives its write.
        assert_eq!(fs::read_dir(store.root()).unwrap().count(), 1);
        fs::remove_dir_all(store.root()).ok();
        fs::remove_dir_all(sequential.root()).ok();
    }
}
