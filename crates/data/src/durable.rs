//! Crash-safe file replacement, shared by every on-disk writer in the
//! workspace: columnar segments and their manifest here, guard-checkpoint
//! sidecars and the audit log's head, manifest and archive files in
//! `fact-serve`.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Atomically replace `path` with `bytes`: write `<path>.tmp`, fsync it,
/// rename it over the target, then fsync the parent directory so the
/// rename itself is durable. A crash at any point leaves either the old
/// content or the new, never a torn file; a stray `<path>.tmp` is the
/// only possible leftover.
///
/// Every step's failure is returned, the directory fsync's included:
/// without it a power cut can revert the rename even though `rename`
/// returned.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    fs::File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fact-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn replaces_existing_file_and_leaves_no_temp() {
        let dir = temp_dir("replace");
        let path = dir.join("state.json");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new content").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new content");
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("state.json")]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_parent_directory_is_an_error() {
        let dir = temp_dir("missing");
        let path = dir.join("absent").join("state.json");
        assert!(write_atomic(&path, b"x").is_err());
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
