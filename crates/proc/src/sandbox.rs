//! Per-fault sandbox directories with RAII cleanup.
//!
//! Every process-tier start materializes the (possibly mutated)
//! configuration payload into its own throwaway directory under
//! [`sandbox_root`]. The directory is owned by a [`SandboxGuard`]
//! whose `Drop` removes it — and because the guard lives on the
//! adapter's stack, cleanup runs on *every* exit path, including the
//! panics the campaign executor's per-fault isolation catches: the
//! unwind drops the guard before `catch_unwind` ever sees the payload.
//!
//! Leak accounting is global and monotonic ([`created`]/[`cleaned`]),
//! so a chaos test can assert "no sandbox survived this campaign"
//! without enumerating directories it does not own.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counter giving each sandbox a unique name within the
/// process.
static NEXT_SANDBOX: AtomicU64 = AtomicU64::new(0);
/// Sandboxes ever created in this process.
static CREATED: AtomicU64 = AtomicU64::new(0);
/// Sandboxes whose `Drop` ran (whether or not the filesystem removal
/// succeeded — a failed removal is still reported by
/// [`root_is_clean`]).
static CLEANED: AtomicU64 = AtomicU64::new(0);

/// Sandboxes created since the process started.
pub fn created() -> u64 {
    CREATED.load(Ordering::SeqCst)
}

/// Sandboxes cleaned up since the process started.
pub fn cleaned() -> u64 {
    CLEANED.load(Ordering::SeqCst)
}

/// The per-process root under which every sandbox lives:
/// `$TMPDIR/conferr-proc-<pid>`. Keyed by pid so concurrent campaigns
/// in different processes never collide, and so a test can check the
/// whole root for leftovers it must own.
pub fn sandbox_root() -> PathBuf {
    std::env::temp_dir().join(format!("conferr-proc-{}", std::process::id()))
}

/// `true` iff this process's sandbox root holds no sandboxes — either
/// it was never created, or every guard cleaned up behind itself.
pub fn root_is_clean() -> bool {
    match fs::read_dir(sandbox_root()) {
        Ok(mut entries) => entries.next().is_none(),
        Err(_) => true,
    }
}

/// Maps a configuration file name to a safe sandbox file name: path
/// separators and parent references must not escape the sandbox.
fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '_') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() || cleaned.chars().all(|c| c == '.') {
        "_".to_string()
    } else {
        cleaned
    }
}

/// One fault's scratch directory, removed when the guard drops.
#[derive(Debug)]
pub struct SandboxGuard {
    dir: PathBuf,
}

impl SandboxGuard {
    /// Creates a fresh, empty sandbox directory under
    /// [`sandbox_root`], tagged with `label` for post-mortem
    /// readability.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn new(label: &str) -> io::Result<Self> {
        let n = NEXT_SANDBOX.fetch_add(1, Ordering::SeqCst);
        let dir = sandbox_root().join(format!("{}-{n}", sanitize(label)));
        // `create_dir_all` creates the shared root and then the
        // sandbox non-atomically; a concurrent guard's Drop may
        // remove the just-emptied root in between. The race window is
        // a few instructions wide, so a bounded retry closes it.
        let mut last_err = None;
        for _ in 0..32 {
            match fs::create_dir_all(&dir) {
                Ok(()) => {
                    CREATED.fetch_add(1, Ordering::SeqCst);
                    return Ok(SandboxGuard { dir });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one attempt ran"))
    }

    /// The sandbox directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    /// Writes one configuration file into the sandbox (file names are
    /// sanitized so payload keys cannot escape it) and returns the
    /// absolute path.
    ///
    /// # Errors
    ///
    /// When the write fails.
    pub fn write_file(&self, name: &str, contents: &str) -> io::Result<PathBuf> {
        let path = self.dir.join(sanitize(name));
        fs::write(&path, contents)?;
        Ok(path)
    }

    /// The absolute path a configuration file name maps to inside the
    /// sandbox (whether or not it has been written yet).
    pub fn file_path(&self, name: &str) -> PathBuf {
        self.dir.join(sanitize(name))
    }
}

impl Drop for SandboxGuard {
    fn drop(&mut self) {
        // Best effort: a failed removal leaves evidence for
        // `root_is_clean`, never a panic inside a panic.
        let _ = fs::remove_dir_all(&self.dir);
        CLEANED.fetch_add(1, Ordering::SeqCst);
        // Remove the per-process root once the last sandbox is gone;
        // `remove_dir` refuses non-empty directories, so concurrent
        // guards race harmlessly.
        let _ = fs::remove_dir(sandbox_root());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sandbox counters are process-wide and the test harness runs
    /// tests on parallel threads, so the tests that create sandboxes
    /// take turns: a count taken in one must not see another's.
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn take_turn() -> std::sync::MutexGuard<'static, ()> {
        TURN.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn sandbox_lifecycle_creates_and_removes() {
        let _turn = take_turn();
        let before = (created(), cleaned());
        let path = {
            let guard = SandboxGuard::new("unit").expect("sandbox");
            let file = guard
                .write_file("httpd.conf", "Listen 80\n")
                .expect("write");
            assert!(file.exists());
            assert!(file.starts_with(guard.path()));
            guard.path().to_path_buf()
        };
        assert!(!path.exists(), "drop must remove the sandbox");
        assert_eq!(created(), before.0 + 1);
        assert_eq!(cleaned(), before.1 + 1);
    }

    #[test]
    fn file_names_cannot_escape_the_sandbox() {
        assert_eq!(sanitize("../../etc/passwd"), ".._.._etc_passwd");
        assert_eq!(sanitize("a/b\\c"), "a_b_c");
        assert_eq!(sanitize(".."), "_");
        assert_eq!(sanitize(""), "_");
        assert_eq!(sanitize("httpd.conf"), "httpd.conf");
        let _turn = take_turn();
        let guard = SandboxGuard::new("escape").expect("sandbox");
        let path = guard.write_file("../outside", "x").expect("write");
        assert!(path.starts_with(guard.path()));
    }

    #[test]
    fn cleanup_runs_during_unwind() {
        let _turn = take_turn();
        let before_cleaned = cleaned();
        let path = std::sync::Arc::new(std::sync::Mutex::new(PathBuf::new()));
        let seen = path.clone();
        let result = std::panic::catch_unwind(move || {
            let guard = SandboxGuard::new("panicking-fault").expect("sandbox");
            guard.write_file("data", "broken").expect("write");
            *seen.lock().expect("lock") = guard.path().to_path_buf();
            panic!("adapter bug while the sandbox is live");
        });
        assert!(result.is_err());
        let dir = path.lock().expect("lock").clone();
        assert!(!dir.as_os_str().is_empty());
        assert!(
            !dir.exists(),
            "unwind must drop the guard: {}",
            dir.display()
        );
        assert!(cleaned() > before_cleaned);
    }
}
