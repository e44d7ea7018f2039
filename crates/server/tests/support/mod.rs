//! Test support shared by the server integration suites (each includes it
//! with `mod support;`).

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process sequence number: together with the pid it keeps every
/// [`TempPath`] distinct, even across tests of one binary running in
/// parallel with the same tag.
static SEQ: AtomicU64 = AtomicU64::new(0);

/// A scratch path under the system temp dir — a socket file or a
/// directory — that is unique per call and removed (recursively, for a
/// directory) when dropped, panicking tests included. Nothing is created:
/// binding or opening the path is the caller's business.
pub struct TempPath(PathBuf);

impl TempPath {
    /// A fresh path `xmlta-{tag}-{pid}-{n}`. The tag names the suite and,
    /// where a test runs per transport, the transport (`chaos-tcp-srv`).
    pub fn new(tag: &str) -> TempPath {
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("xmlta-{tag}-{}-{n}", std::process::id()));
        // A leftover of a killed run whose pid was recycled.
        remove(&path);
        TempPath(path)
    }
}

impl Deref for TempPath {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        remove(&self.0);
    }
}

fn remove(path: &Path) {
    if path.is_dir() {
        let _ = std::fs::remove_dir_all(path);
    } else {
        let _ = std::fs::remove_file(path);
    }
}
