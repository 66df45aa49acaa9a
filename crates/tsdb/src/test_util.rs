//! Scratch-directory helper used by this crate's tests and by downstream
//! crates' archive/recovery tests and benches.  Not part of the storage
//! engine proper.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory under the system temp dir, removed
/// (recursively) on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create `jamm-tsdb-<label>-<pid>-<n>` under [`std::env::temp_dir`].
    /// Panics when the directory cannot be made: this is a test helper, and
    /// a test without its scratch directory has nothing to run on.
    #[allow(clippy::expect_used)]
    pub fn new(label: &str) -> TempDir {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("jamm-tsdb-{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
