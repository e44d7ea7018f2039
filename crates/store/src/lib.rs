//! The persistent compiled-artifact store.
//!
//! An on-disk, content-addressed cache of the three compiled products
//! the in-memory `SchemaCache` interns — compiled DTD schemas, baked
//! rule DFAs, and Theorem 20 delrelab `B_out` products — serialized as
//! `.xta` artifacts (see `xmlta_service::artifact`). Mounted under the
//! cache via [`xmlta_service::ArtifactBackend`], it turns every compile
//! miss into a read-through (validate-and-adopt, no rebuild) and every
//! fresh compile into a write-behind, so a restarted daemon cold-starts
//! warm and a fleet can ship precompiled artifacts to servers.
//!
//! # Layout
//!
//! ```text
//! ROOT/
//!   schema/<key:016x>-<sigma>.xta         one artifact per cache key
//!   schema/<key:016x>-<sigma>.xta.atime   last-use time (decimal nanos)
//!   rule/...
//!   bout/...
//! ```
//!
//! The file name *is* the cache key (`key` is the structural fingerprint
//! the `SchemaCache` uses; `sigma` the alphabet-size half of rule/bout
//! keys). `xmlta store verify` re-derives the key from the decoded
//! artifact and flags mismatches; `xmlta store gc --max-bytes` evicts
//! least-recently-used entries by the `.atime` sibling file.
//!
//! # Concurrency and failure contract
//!
//! Writes are temp-file + rename in the same directory, so concurrent
//! daemons sharing one store dir never observe a torn artifact; an entry
//! that already exists is left alone (content-addressed names mean a
//! racing writer produced identical bytes). Every I/O failure is
//! swallowed: the store is an optimization layered under a cache that
//! recompiles on any miss, so `load`/`save` degrade to "no store" rather
//! than surface errors. Corrupt entries are rejected by the *cache*
//! (checksum + structural verification) and counted as `store_corrupt`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};
use xmlta_service::artifact::{self, ArtifactKind};
use xmlta_service::ArtifactBackend;

/// A mounted artifact store rooted at one directory.
pub struct Store {
    root: PathBuf,
    /// Distinguishes temp files written by concurrent threads of this
    /// process (the pid distinguishes processes).
    seq: AtomicU64,
}

/// One store entry, as listed by [`Store::entries`].
pub struct Entry {
    /// Which product kind the entry holds.
    pub kind: ArtifactKind,
    /// The structural-fingerprint half of the cache key.
    pub key: u64,
    /// The alphabet-size half of the cache key.
    pub sigma: usize,
    /// Artifact size in bytes (the `.atime` sibling is not counted).
    pub bytes: u64,
    /// Last-use time in nanoseconds since the epoch (0 when unknown).
    pub atime: u128,
    /// Path of the artifact file.
    pub path: PathBuf,
}

/// What [`Store::verify`] found.
#[derive(Default)]
pub struct VerifyReport {
    /// Entries that decoded and re-fingerprinted to their file name.
    pub ok: usize,
    /// Entries that did not, with the reason (these are exactly the
    /// entries the cache would count as `store_corrupt` and recompile).
    pub corrupt: Vec<(PathBuf, String)>,
}

/// What [`Store::gc`] did.
#[derive(Default)]
pub struct GcReport {
    /// Entries removed (least recently used first).
    pub removed: usize,
    /// Bytes those entries held.
    pub removed_bytes: u64,
    /// Entries kept.
    pub kept: usize,
    /// Bytes the kept entries hold.
    pub kept_bytes: u64,
}

impl Store {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        for kind in ArtifactKind::all() {
            fs::create_dir_all(root.join(kind.dir()))?;
        }
        Ok(Store {
            root,
            seq: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, kind: ArtifactKind, key: u64, sigma: usize) -> PathBuf {
        self.root
            .join(kind.dir())
            .join(format!("{key:016x}-{sigma}.xta"))
    }

    fn atime_path(path: &Path) -> PathBuf {
        let mut name = path.as_os_str().to_os_string();
        name.push(".atime");
        PathBuf::from(name)
    }

    /// Writes `bytes` to `path` atomically (temp file + rename in the
    /// same directory).
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut tmp_name = std::ffi::OsString::from(format!(".tmp-{}-{seq}-", std::process::id()));
        tmp_name.push(path.file_name().unwrap_or_default());
        let tmp = path.with_file_name(tmp_name);
        fs::write(&tmp, bytes)?;
        let renamed = fs::rename(&tmp, path);
        if renamed.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        renamed
    }

    /// Stamps the entry's `.atime` sibling with the current time.
    fn touch(&self, path: &Path) {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let _ = self.write_atomic(&Store::atime_path(path), nanos.to_string().as_bytes());
    }

    /// All artifact entries currently in the store, in no particular
    /// order. Files that do not look like artifacts (temp leftovers,
    /// `.atime` siblings, foreign files) are skipped.
    pub fn entries(&self) -> io::Result<Vec<Entry>> {
        let mut out = Vec::new();
        for kind in ArtifactKind::all() {
            let dir = self.root.join(kind.dir());
            for item in fs::read_dir(&dir)? {
                let item = item?;
                let path = item.path();
                let Some((key, sigma)) = parse_entry_name(&path) else {
                    continue;
                };
                let bytes = item.metadata().map(|m| m.len()).unwrap_or(0);
                let atime = fs::read_to_string(Store::atime_path(&path))
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
                    .unwrap_or(0);
                out.push(Entry {
                    kind,
                    key,
                    sigma,
                    bytes,
                    atime,
                    path,
                });
            }
        }
        Ok(out)
    }

    /// Re-decodes and re-fingerprints every entry, flagging entries the
    /// cache would reject: undecodable bytes (truncation, corruption,
    /// version skew) and entries whose decoded identity does not match
    /// the file name they are filed under (stale or misfiled).
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let _span = xmlta_obs::span("store");
        let mut report = VerifyReport::default();
        for entry in self.entries()? {
            let bytes = match fs::read(&entry.path) {
                Ok(b) => b,
                Err(e) => {
                    report
                        .corrupt
                        .push((entry.path, format!("unreadable: {e}")));
                    continue;
                }
            };
            match artifact::decode(&bytes) {
                Err(e) => report.corrupt.push((entry.path, e.to_string())),
                Ok(decoded) => {
                    let identity = artifact::identity(&decoded);
                    if identity != (entry.kind, entry.key, entry.sigma) {
                        report.corrupt.push((
                            entry.path,
                            format!(
                                "filed under {}/{:016x}-{} but re-fingerprints to {}/{:016x}-{}",
                                entry.kind.dir(),
                                entry.key,
                                entry.sigma,
                                identity.0.dir(),
                                identity.1,
                                identity.2
                            ),
                        ));
                    } else {
                        report.ok += 1;
                    }
                }
            }
        }
        Ok(report)
    }

    /// Evicts least-recently-used entries (by `.atime` sibling; entries
    /// without one sort oldest) until the artifacts left hold at most
    /// `max_bytes` bytes.
    pub fn gc(&self, max_bytes: u64) -> io::Result<GcReport> {
        let mut entries = self.entries()?;
        entries.sort_by_key(|e| e.atime);
        let mut total: u64 = entries.iter().map(|e| e.bytes).sum();
        let mut report = GcReport::default();
        for entry in entries {
            if total <= max_bytes {
                report.kept += 1;
                report.kept_bytes += entry.bytes;
                continue;
            }
            let _ = fs::remove_file(&entry.path);
            let _ = fs::remove_file(Store::atime_path(&entry.path));
            total -= entry.bytes;
            report.removed += 1;
            report.removed_bytes += entry.bytes;
        }
        Ok(report)
    }
}

/// `<key:016x>-<sigma>.xta` → `(key, sigma)`.
fn parse_entry_name(path: &Path) -> Option<(u64, usize)> {
    let name = path.file_name()?.to_str()?;
    let stem = name.strip_suffix(".xta")?;
    let (key_hex, sigma) = stem.split_once('-')?;
    if key_hex.len() != 16 {
        return None;
    }
    Some((u64::from_str_radix(key_hex, 16).ok()?, sigma.parse().ok()?))
}

impl ArtifactBackend for Store {
    fn load(&self, kind: ArtifactKind, key: u64, sigma: usize) -> Option<Vec<u8>> {
        let path = self.path_for(kind, key, sigma);
        let bytes = fs::read(&path).ok()?;
        self.touch(&path);
        Some(bytes)
    }

    fn save(&self, kind: ArtifactKind, key: u64, sigma: usize, bytes: &[u8]) -> bool {
        let path = self.path_for(kind, key, sigma);
        if path.exists() {
            // Content-addressed: whoever wrote it first wrote the same
            // artifact. Not counted as a write.
            return false;
        }
        if self.write_atomic(&path, bytes).is_err() {
            return false;
        }
        self.touch(&path);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xmlta_base::Alphabet;
    use xmlta_schema::Dtd;
    use xmlta_service::SchemaCache;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("xmlta-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_dtd(src: &str) -> Dtd {
        let mut a = Alphabet::from_names(["r", "x", "y"]);
        Dtd::parse(src, &mut a).expect("test dtd")
    }

    #[test]
    fn save_load_roundtrip_and_existing_entries_are_not_rewritten() {
        let root = temp_root("roundtrip");
        let store = Store::open(&root).unwrap();
        let bytes = b"xta payload stand-in".to_vec();
        assert!(store.load(ArtifactKind::Schema, 7, 3).is_none());
        assert!(store.save(ArtifactKind::Schema, 7, 3, &bytes));
        assert_eq!(
            store.load(ArtifactKind::Schema, 7, 3).as_deref(),
            Some(&bytes[..])
        );
        // Second save of the same key: already present, not a write.
        assert!(!store.save(ArtifactKind::Schema, 7, 3, &bytes));
        // A second handle onto the same directory sees the entry.
        let other = Store::open(&root).unwrap();
        assert_eq!(
            other.load(ArtifactKind::Schema, 7, 3).as_deref(),
            Some(&bytes[..])
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn keys_are_disjoint_across_kinds_and_sigma() {
        let root = temp_root("keys");
        let store = Store::open(&root).unwrap();
        assert!(store.save(ArtifactKind::Rule, 1, 2, b"a"));
        assert!(store.save(ArtifactKind::Rule, 1, 3, b"b"));
        assert!(store.save(ArtifactKind::Bout, 1, 2, b"c"));
        assert_eq!(
            store.load(ArtifactKind::Rule, 1, 2).as_deref(),
            Some(&b"a"[..])
        );
        assert_eq!(
            store.load(ArtifactKind::Rule, 1, 3).as_deref(),
            Some(&b"b"[..])
        );
        assert_eq!(
            store.load(ArtifactKind::Bout, 1, 2).as_deref(),
            Some(&b"c"[..])
        );
        assert!(store.load(ArtifactKind::Schema, 1, 2).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_evicts_least_recently_used_first() {
        let root = temp_root("gc");
        let store = Store::open(&root).unwrap();
        for key in 0..4u64 {
            assert!(store.save(ArtifactKind::Rule, key, 1, &[0u8; 100]));
            // Deterministic recency: older key = older atime.
            let path = store.path_for(ArtifactKind::Rule, key, 1);
            fs::write(Store::atime_path(&path), format!("{}", 1000 + key)).unwrap();
        }
        let report = store.gc(250).unwrap();
        assert_eq!((report.removed, report.kept), (2, 2));
        assert_eq!(report.removed_bytes, 200);
        assert!(store.load(ArtifactKind::Rule, 0, 1).is_none());
        assert!(store.load(ArtifactKind::Rule, 1, 1).is_none());
        assert!(store.load(ArtifactKind::Rule, 2, 1).is_some());
        assert!(store.load(ArtifactKind::Rule, 3, 1).is_some());
        // Already under budget: nothing else to remove.
        let report = store.gc(250).unwrap();
        assert_eq!(report.removed, 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn load_refreshes_atime() {
        let root = temp_root("atime");
        let store = Store::open(&root).unwrap();
        assert!(store.save(ArtifactKind::Rule, 1, 1, &[0u8; 10]));
        assert!(store.save(ArtifactKind::Rule, 2, 1, &[0u8; 10]));
        let p1 = store.path_for(ArtifactKind::Rule, 1, 1);
        let p2 = store.path_for(ArtifactKind::Rule, 2, 1);
        fs::write(Store::atime_path(&p1), "100").unwrap();
        fs::write(Store::atime_path(&p2), "200").unwrap();
        // Loading the "older" entry stamps it newer than the other.
        store.load(ArtifactKind::Rule, 1, 1).unwrap();
        let report = store.gc(10).unwrap();
        assert_eq!((report.removed, report.kept), (1, 1));
        assert!(store.load(ArtifactKind::Rule, 1, 1).is_some());
        assert!(store.load(ArtifactKind::Rule, 2, 1).is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn verify_flags_corruption_and_misfiled_entries() {
        let root = temp_root("verify");
        let store = Store::open(&root).unwrap();
        // Populate through the cache so the entries are real artifacts.
        let mut with_store = SchemaCache::new();
        with_store.set_store(Arc::new(Store::open(&root).unwrap()));
        with_store.compile_dtd(&sample_dtd("r -> x* y*\nx -> \ny -> "));
        let clean = store.verify().unwrap();
        assert!(clean.ok > 0, "prewarmed store should verify clean");
        assert!(clean.corrupt.is_empty());
        // Flip one byte mid-artifact: checksum must flag it.
        let entry = &store.entries().unwrap()[0];
        let mut bytes = fs::read(&entry.path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&entry.path, &bytes).unwrap();
        let report = store.verify().unwrap();
        assert_eq!(report.corrupt.len(), 1);
        // Restore, then file a valid artifact under the wrong key.
        bytes[mid] ^= 0x40;
        fs::write(&entry.path, &bytes).unwrap();
        let wrong = entry
            .path
            .with_file_name(format!("{:016x}-{}.xta", 0xdead_beef_u64, entry.sigma));
        fs::write(&wrong, &bytes).unwrap();
        let report = store.verify().unwrap();
        assert_eq!(report.corrupt.len(), 1);
        assert!(
            report.corrupt[0].1.contains("re-fingerprints"),
            "{}",
            report.corrupt[0].1
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn cache_roundtrips_schema_through_the_store() {
        let root = temp_root("cache");
        let dtd = sample_dtd("r -> x* y\nx -> y?\ny -> ");
        // First cache compiles fresh and writes behind.
        let mut warm = SchemaCache::new();
        warm.set_store(Arc::new(Store::open(&root).unwrap()));
        let compiled = warm.compile_dtd(&dtd);
        let stats = warm.stats();
        assert!(stats.store_writes > 0, "fresh compile should persist");
        assert_eq!(stats.store_hits, 0);
        // Second cache (fresh process stand-in) adopts from the store.
        let mut cold = SchemaCache::new();
        cold.set_store(Arc::new(Store::open(&root).unwrap()));
        let adopted = cold.compile_dtd(&dtd);
        let stats = cold.stats();
        assert!(stats.store_hits > 0, "restart should adopt from the store");
        assert_eq!(stats.store_writes, 0, "nothing recompiled, nothing written");
        assert_eq!(stats.store_corrupt, 0);
        // Adopted artifact is structurally the compiled schema.
        assert_eq!(adopted.alphabet_size(), compiled.alphabet_size());
        assert_eq!(adopted.start(), compiled.start());
        assert!(adopted.is_dfa_dtd());
        let _ = fs::remove_dir_all(&root);
    }
}
