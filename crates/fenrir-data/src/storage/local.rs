//! Local-disk segment storage: one file per key under a root directory.
//!
//! This backend is the journal's own file handling, extracted and made
//! reusable — most importantly the **durable replace** idiom that a
//! crash-safe rename needs on POSIX filesystems:
//!
//! 1. write the new bytes to a sibling `*.tmp` file and `fsync` it;
//! 2. `rename(2)` the tmp over the destination (atomic on POSIX);
//! 3. `fsync` the **parent directory**, so the rename itself — a
//!    directory-entry mutation — is on stable storage before the caller
//!    is told the object is durable.
//!
//! Skipping step 3 was a real crash bug in `Journal::rewrite`: after
//! power loss the rename could be rolled back by the filesystem,
//! resurrecting the pre-compaction journal *and* leaving the tmp file
//! behind forever. [`durable_replace`] and the tmp sweep in
//! [`LocalDisk::open`] (mirrored by `Journal::open`) close both holes.

use super::{storage_err, validate_key, CasOutcome, Storage};
use fenrir_core::error::{Error, Result};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Suffix of in-flight replacement files; anything wearing it is
/// garbage after a crash and is swept on open.
pub const TMP_SUFFIX: &str = ".tmp";

/// Fsync a directory so a rename performed inside it is durable.
///
/// On platforms where directories cannot be opened for sync (e.g.
/// Windows), the open fails and the error is swallowed — the rename is
/// still atomic, just not power-loss durable, which matches what the
/// platform can promise.
pub fn fsync_dir(dir: &Path) -> std::io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Durably replace `path` with `bytes` via a sibling tmp file:
/// write + fsync + rename + parent-dir fsync.
pub fn durable_replace(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    durable_replace_via(path, &tmp_sibling(path), bytes)
}

/// [`durable_replace`] staging through an explicit tmp path (the
/// journal keeps its historical `.compact.tmp` name).
pub fn durable_replace_via(path: &Path, tmp: &Path, bytes: &[u8]) -> std::io::Result<()> {
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fs::rename(tmp, path)?;
    if let Some(parent) = path.parent() {
        fsync_dir(parent)?;
    }
    Ok(())
}

/// The tmp path `durable_replace` stages through for `path`.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(TMP_SUFFIX);
    path.with_file_name(name)
}

/// Remove every `*.tmp` leftover under `dir` (one level deep per call,
/// recursing into subdirectories). A crash mid-replace must not leak
/// its staging file indefinitely.
pub fn sweep_tmp(dir: &Path) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            sweep_tmp(&path)?;
        } else if path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(TMP_SUFFIX))
        {
            fs::remove_file(&path)?;
        }
    }
    Ok(())
}

/// Segment files under a root directory; keys map to relative paths.
#[derive(Debug)]
pub struct LocalDisk {
    root: PathBuf,
    /// Serializes [`Storage::put_if`] compare-and-replace sequences so
    /// the compare and the write are one atomic step for every writer
    /// sharing this handle. Plain puts stay lock-free: they are atomic
    /// per key already via the rename.
    cas: Mutex<()>,
}

impl LocalDisk {
    /// Open (or create) a local segment store rooted at `root`,
    /// sweeping any `*.tmp` staging files a crash left behind.
    pub fn open(root: &Path) -> Result<Self> {
        fs::create_dir_all(root)
            .map_err(|e| storage_err("open", root.display().to_string(), false, e.to_string()))?;
        sweep_tmp(root)
            .map_err(|e| storage_err("open", root.display().to_string(), true, e.to_string()))?;
        Ok(LocalDisk {
            root: root.to_path_buf(),
            cas: Mutex::new(()),
        })
    }

    /// The backing directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_of(&self, key: &str) -> PathBuf {
        let mut p = self.root.clone();
        p.extend(key.split('/'));
        p
    }

    fn io(op: &'static str, key: &str, e: std::io::Error) -> Error {
        // Local-disk failures are treated as retryable only when the OS
        // says the resource is transiently busy; everything else (ENOENT
        // on rename source, EACCES, ENOSPC…) needs an operator.
        let retryable = matches!(
            e.kind(),
            std::io::ErrorKind::Interrupted | std::io::ErrorKind::WouldBlock
        );
        storage_err(op, key, retryable, e.to_string())
    }
}

impl Storage for LocalDisk {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<()> {
        validate_key("put", key)?;
        let path = self.path_of(key);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| Self::io("put", key, e))?;
        }
        durable_replace(&path, bytes).map_err(|e| Self::io("put", key, e))
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>> {
        validate_key("get", key)?;
        match fs::read(self.path_of(key)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(Self::io("get", key, e)),
        }
    }

    fn delete(&self, key: &str) -> Result<()> {
        validate_key("delete", key)?;
        match fs::remove_file(self.path_of(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Self::io("delete", key, e)),
        }
    }

    fn put_if(&self, key: &str, expected: Option<&[u8]>, bytes: &[u8]) -> Result<CasOutcome> {
        validate_key("put_if", key)?;
        let _guard = self.cas.lock().unwrap();
        let path = self.path_of(key);
        let actual = match fs::read(&path) {
            Ok(b) => Some(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(Self::io("put_if", key, e)),
        };
        if actual.as_deref() != expected {
            return Ok(CasOutcome::Conflict { actual });
        }
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).map_err(|e| Self::io("put_if", key, e))?;
        }
        durable_replace(&path, bytes).map_err(|e| Self::io("put_if", key, e))?;
        Ok(CasOutcome::Committed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fenrir-localdisk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let root = scratch("roundtrip");
        let disk = LocalDisk::open(&root).unwrap();
        disk.put("segments/seg-00000001", b"alpha").unwrap();
        disk.put("segments/seg-00000002", b"beta").unwrap();
        disk.put("manifest", b"m1").unwrap();
        assert_eq!(
            disk.get("segments/seg-00000001").unwrap().unwrap(),
            b"alpha"
        );
        assert_eq!(disk.get("missing").unwrap(), None);
        disk.delete("segments/seg-00000001").unwrap();
        disk.delete("segments/seg-00000001").unwrap(); // idempotent
        assert_eq!(disk.get("segments/seg-00000001").unwrap(), None);
        assert_eq!(disk.get("segments/seg-00000002").unwrap().unwrap(), b"beta");
        // No staging file outlives its put.
        let mut names: Vec<_> = fs::read_dir(root.join("segments"))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names, ["seg-00000002"]);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn put_replaces_atomically_and_overwrites() {
        let root = scratch("replace");
        let disk = LocalDisk::open(&root).unwrap();
        disk.put("k", b"one").unwrap();
        disk.put("k", b"two").unwrap();
        assert_eq!(disk.get("k").unwrap().unwrap(), b"two");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let root = scratch("sweep");
        fs::create_dir_all(root.join("segments")).unwrap();
        fs::write(root.join("segments/seg-00000009.tmp"), b"torn").unwrap();
        fs::write(root.join("live"), b"ok").unwrap();
        let disk = LocalDisk::open(&root).unwrap();
        assert!(!root.join("segments/seg-00000009.tmp").exists());
        assert!(root.join("segments").read_dir().unwrap().next().is_none());
        assert_eq!(disk.get("live").unwrap().unwrap(), b"ok");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn put_if_commits_only_when_the_expectation_holds() {
        let root = scratch("cas");
        let disk = LocalDisk::open(&root).unwrap();
        // Create-only: succeeds once, conflicts after.
        assert_eq!(
            disk.put_if("k", None, b"one").unwrap(),
            CasOutcome::Committed
        );
        assert_eq!(
            disk.put_if("k", None, b"again").unwrap(),
            CasOutcome::Conflict {
                actual: Some(b"one".to_vec())
            }
        );
        // Stale expectation conflicts and reports the true bytes.
        assert_eq!(
            disk.put_if("k", Some(b"stale"), b"two").unwrap(),
            CasOutcome::Conflict {
                actual: Some(b"one".to_vec())
            }
        );
        // Matching expectation commits.
        assert_eq!(
            disk.put_if("k", Some(b"one"), b"two").unwrap(),
            CasOutcome::Committed
        );
        assert_eq!(disk.get("k").unwrap().unwrap(), b"two");
        // Expecting an object on a missing key conflicts with None.
        assert_eq!(
            disk.put_if("ghost", Some(b"x"), b"y").unwrap(),
            CasOutcome::Conflict { actual: None }
        );
        let _ = fs::remove_dir_all(&root);
    }
}
