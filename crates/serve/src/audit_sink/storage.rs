//! Where the audit log's bytes live.
//!
//! [`AuditStorage`] is the seam every audit read and write goes through:
//! the writer appends and syncs, recovery reads and truncates, the
//! archiver compacts. [`FileStorage`] is the real-file implementation.
//! The crash/fault-injection suite drives the same seam through
//! [`testing::MemStorage`](crate::testing::MemStorage), which runs one
//! fault rule over every mutating call, so any append, segment open,
//! head, archive or manifest write, or delete can fail, tear, kill the
//! storage like a dead process, or report success without landing — the
//! same failure surface any checkpoint/WAL path has.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

use fact_data::durable::write_atomic;

/// Where the audit log's bytes live: an ordered set of append-only
/// segments plus a small sidecar slot for the persisted chain head.
/// Implementations are moved into the writer thread, so they must be
/// `Send`.
///
/// The contract mirrors real files: `append_log` may persist a *prefix*
/// of the buffer before failing (short write, kill), nothing is considered
/// durable until `sync_log` returns `Ok`, and `truncate_segment` is
/// durable on return.
pub trait AuditStorage: Send {
    /// Segment ids that exist, in ascending order.
    fn list_segments(&mut self) -> io::Result<Vec<u64>>;
    /// Read one whole segment (recovery and verification).
    fn read_segment(&mut self, segment: u64) -> io::Result<Vec<u8>>;
    /// Create `segment` if absent and make it the append target.
    fn open_segment(&mut self, segment: u64) -> io::Result<()>;
    /// Append raw bytes to the active segment (one batch per call).
    fn append_log(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Durably cut `segment` back to `len` bytes (tear off a torn tail).
    fn truncate_segment(&mut self, segment: u64, len: u64) -> io::Result<()>;
    /// Make previous appends durable (fsync).
    fn sync_log(&mut self) -> io::Result<()>;
    /// Read the persisted chain head, if one exists.
    fn read_head(&mut self) -> io::Result<Option<Vec<u8>>>;
    /// Durably replace the persisted chain head.
    fn write_head(&mut self, buf: &[u8]) -> io::Result<()>;

    // --- archive surface (defaulted: a storage without archive support
    // --- lists no archives and refuses to write them) ---

    /// Archived segment ids present, ascending.
    fn list_archives(&mut self) -> io::Result<Vec<u64>> {
        Ok(Vec::new())
    }
    /// Read one segment's archive container bytes
    /// (see [`crate::archive::decode_archive`]).
    fn read_archive(&mut self, segment: u64) -> io::Result<Vec<u8>> {
        let _ = segment;
        Err(io::Error::new(io::ErrorKind::NotFound, "no such archive"))
    }
    /// Durably replace one segment's archive container. Must be atomic
    /// (write-temp + fsync + rename): a crash leaves the old container or
    /// the new one, never a torn mix.
    fn write_archive(&mut self, segment: u64, buf: &[u8]) -> io::Result<()> {
        let _ = (segment, buf);
        Err(io::Error::other("storage does not support archives"))
    }
    /// Durably remove a *sealed* segment's live file (the archiver's final
    /// step). Implementations must refuse to remove the active segment.
    fn remove_segment_file(&mut self, segment: u64) -> io::Result<()> {
        let _ = segment;
        Err(io::Error::other("storage does not support archives"))
    }
    /// Read the archive-manifest sidecar, if one exists.
    fn read_manifest(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(None)
    }
    /// Durably replace the archive-manifest sidecar (atomic, like
    /// [`write_archive`](AuditStorage::write_archive)).
    fn write_manifest(&mut self, buf: &[u8]) -> io::Result<()> {
        let _ = buf;
        Err(io::Error::other("storage does not support archives"))
    }
    /// A second, independent handle onto the *same* bytes for the archiver
    /// thread, so archiving never serializes against the writer's handle.
    /// `None` (the default) means archiving is unsupported; configuring
    /// [`AuditSinkConfig::archive`](super::AuditSinkConfig::archive) over
    /// such a storage refuses at open.
    fn archive_handle(&self) -> Option<Box<dyn AuditStorage>> {
        None
    }
}

// ---------------------------------------------------------------------------
// file-backed storage
// ---------------------------------------------------------------------------

/// Real-file storage: segment 0 is the JSONL log at `path` itself, later
/// segments sit next to it as `<path>.000001.jsonl`, …, the chain head
/// lives in a `<path>.head` sidecar, archives in `<segment path>.facz`,
/// and the archive manifest in `<path>.archive` — sidecars are replaced
/// via write-temp-then-rename-then-directory-fsync.
#[derive(Debug)]
pub struct FileStorage {
    base: PathBuf,
    head_path: PathBuf,
    manifest_path: PathBuf,
    active: Option<(u64, std::fs::File)>,
}

impl FileStorage {
    /// Open storage rooted at `path` (creating parent directories if
    /// absent); the head sidecar lives at `<path>.head`. No segment is
    /// created until [`open_segment`](AuditStorage::open_segment).
    pub fn open(path: &Path) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut head_path = path.as_os_str().to_owned();
        head_path.push(".head");
        let mut manifest_path = path.as_os_str().to_owned();
        manifest_path.push(".archive");
        Ok(FileStorage {
            base: path.to_path_buf(),
            head_path: PathBuf::from(head_path),
            manifest_path: PathBuf::from(manifest_path),
            active: None,
        })
    }

    /// `{:06}` pads to *at least* six digits, so ids past 999999 simply
    /// widen (`.1000000.jsonl`); listing parses digits numerically rather
    /// than relying on the pad width.
    fn seg_path(&self, segment: u64) -> PathBuf {
        if segment == 0 {
            self.base.clone()
        } else {
            let mut name = self.base.as_os_str().to_owned();
            name.push(format!(".{segment:06}.jsonl"));
            PathBuf::from(name)
        }
    }

    fn archive_path(&self, segment: u64) -> PathBuf {
        let mut name = self.seg_path(segment).into_os_string();
        name.push(".facz");
        PathBuf::from(name)
    }

    /// Parse `name` as one of this log's files with the given extra
    /// suffix: `<base><suffix>` is segment 0,
    /// `<base>.<digits>.jsonl<suffix>` is that numeric segment (any digit
    /// width — ids past the six-digit pad must still be accepted).
    fn parse_segment_name(base_name: &str, name: &str, suffix: &str) -> Option<u64> {
        let stem = name.strip_suffix(suffix)?;
        if stem == base_name {
            return Some(0);
        }
        let mid = stem
            .strip_prefix(base_name)
            .and_then(|r| r.strip_prefix('.'))
            .and_then(|r| r.strip_suffix(".jsonl"))?;
        if mid.is_empty() || !mid.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        mid.parse::<u64>().ok().filter(|&n| n > 0)
    }

    fn list_by_suffix(&mut self, suffix: &str) -> io::Result<Vec<u64>> {
        let base_name = self
            .base
            .file_name()
            .and_then(|n| n.to_str())
            .map(str::to_owned)
            .ok_or_else(|| io::Error::other("audit log path has no file name"))?;
        let mut segs = Vec::new();
        for entry in std::fs::read_dir(self.dir())? {
            let Ok(name) = entry?.file_name().into_string() else {
                continue;
            };
            if let Some(n) = Self::parse_segment_name(&base_name, &name, suffix) {
                segs.push(n);
            }
        }
        segs.sort_unstable();
        segs.dedup();
        Ok(segs)
    }

    fn dir(&self) -> PathBuf {
        match self.base.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => PathBuf::from("."),
        }
    }

    /// fsync the directory holding the log: file creations and renames
    /// are directory mutations and survive power loss only once the
    /// directory inode itself is synced.
    fn sync_dir(&self) -> io::Result<()> {
        std::fs::File::open(self.dir())?.sync_all()
    }
}

impl AuditStorage for FileStorage {
    fn list_segments(&mut self) -> io::Result<Vec<u64>> {
        self.list_by_suffix("")
    }

    fn read_segment(&mut self, segment: u64) -> io::Result<Vec<u8>> {
        std::fs::read(self.seg_path(segment))
    }

    fn open_segment(&mut self, segment: u64) -> io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(self.seg_path(segment))?;
        self.sync_dir()?;
        self.active = Some((segment, file));
        Ok(())
    }

    fn append_log(&mut self, buf: &[u8]) -> io::Result<()> {
        // O_APPEND: writes land at the end regardless of other handles
        match &mut self.active {
            Some((_, file)) => file.write_all(buf),
            None => Err(io::Error::other("no active segment")),
        }
    }

    fn truncate_segment(&mut self, segment: u64, len: u64) -> io::Result<()> {
        if let Some((active, file)) = &self.active {
            if *active == segment {
                file.set_len(len)?;
                return file.sync_data();
            }
        }
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(self.seg_path(segment))?;
        file.set_len(len)?;
        file.sync_data()
    }

    fn sync_log(&mut self) -> io::Result<()> {
        match &self.active {
            Some((_, file)) => file.sync_data(),
            None => Err(io::Error::other("no active segment")),
        }
    }

    fn read_head(&mut self) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(&self.head_path) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write_head(&mut self, buf: &[u8]) -> io::Result<()> {
        write_atomic(&self.head_path, buf)
    }

    fn list_archives(&mut self) -> io::Result<Vec<u64>> {
        self.list_by_suffix(".facz")
    }

    fn read_archive(&mut self, segment: u64) -> io::Result<Vec<u8>> {
        std::fs::read(self.archive_path(segment))
    }

    fn write_archive(&mut self, segment: u64, buf: &[u8]) -> io::Result<()> {
        write_atomic(&self.archive_path(segment), buf)
    }

    fn remove_segment_file(&mut self, segment: u64) -> io::Result<()> {
        if let Some((active, _)) = &self.active {
            if *active == segment {
                return Err(io::Error::other("refusing to remove the active segment"));
            }
        }
        std::fs::remove_file(self.seg_path(segment))?;
        self.sync_dir()
    }

    fn read_manifest(&mut self) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(&self.manifest_path) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn write_manifest(&mut self, buf: &[u8]) -> io::Result<()> {
        write_atomic(&self.manifest_path, buf)
    }

    fn archive_handle(&self) -> Option<Box<dyn AuditStorage>> {
        // a fresh handle on the same paths: its own fds, no shared state
        FileStorage::open(&self.base)
            .ok()
            .map(|s| Box::new(s) as Box<dyn AuditStorage>)
    }
}
