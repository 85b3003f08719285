//! The append side: fsync-on-batch writes, tail recovery, compaction.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use arb_dexsim::events::Event;

use crate::io::{IoShim, WriteVerdict};
use crate::segment::{self, segment_file_name};

/// Writer tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Roll to a new segment once the current one reaches this many
    /// bytes (checked at commit boundaries, so one batch never spans two
    /// segments).
    pub segment_max_bytes: u64,
    /// Fsync on every [`JournalWriter::commit`]. Disable only for
    /// benchmarks and tests where durability does not matter.
    pub sync_on_commit: bool,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            segment_max_bytes: 256 * 1024,
            sync_on_commit: true,
        }
    }
}

/// The append-only journal writer.
///
/// Events accumulate in an in-memory batch via [`JournalWriter::append`];
/// [`JournalWriter::commit`] writes the batch to the current segment and
/// fsyncs once — the fsync-per-batch discipline that makes journaling
/// cheap enough to sit on the hot path. Offsets are global event
/// sequence numbers: the first event ever appended is offset 0, matching
/// `dexsim`'s in-memory `EventLog` sequence when the journal is attached
/// from genesis (or backfilled).
///
/// Opening an existing directory recovers the durable tail: segments are
/// scanned in order and the journal is truncated at the first record
/// that is missing, fails its checksum, or does not decode — trailing
/// garbage from an interrupted write is discarded, never re-served.
#[derive(Debug)]
pub struct JournalWriter {
    dir: PathBuf,
    config: JournalConfig,
    /// The current segment, open for appending.
    file: File,
    /// First offset of the current segment.
    segment_first: u64,
    /// Durable bytes in the current segment.
    segment_bytes: u64,
    /// Encoded-but-uncommitted records.
    pending: Vec<u8>,
    pending_events: u64,
    /// Offset of the next record to become durable.
    committed: u64,
    /// Rollback-poison error: set when a failed commit could not cut the
    /// torn segment tail back, and returned by the next `commit` instead
    /// of writing after the torn bytes.
    deferred: Option<io::Error>,
    /// Optional fault layer consulted on the commit path (chaos tests).
    shim: Option<Box<dyn IoShim>>,
}

impl JournalWriter {
    /// Opens (or creates) the journal in `dir`, recovering the durable
    /// tail: the first corrupt or truncated record anywhere truncates
    /// the journal there — its file is cut back to the valid prefix and
    /// any later segments are removed.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] on filesystem failures.
    pub fn open(dir: impl Into<PathBuf>, config: JournalConfig) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let segments = segment::list_segments(&dir)?;

        let (segment_first, segment_bytes, committed) = if segments.is_empty() {
            (0, 0, 0)
        } else {
            let mut keep = segments.len();
            let mut tail = (0u64, 0u64, 0u64);
            let mut expected_first = segments[0].0;
            for (index, (first, path)) in segments.iter().enumerate() {
                let scan = segment::scan_segment(path)?;
                let contiguous = *first == expected_first;
                if contiguous {
                    tail = (*first, scan.valid_bytes, first + scan.records);
                    expected_first = first + scan.records;
                }
                if !contiguous || !scan.clean {
                    // Truncate at the first bad record: cut this file to
                    // its valid prefix (or drop it entirely when the gap
                    // is before it) and discard everything after.
                    keep = if contiguous { index + 1 } else { index };
                    break;
                }
            }
            for (_, path) in &segments[keep..] {
                fs::remove_file(path)?;
            }
            if keep == 0 {
                (0, 0, 0)
            } else {
                let (first, valid_bytes, committed) = tail;
                let path = dir.join(segment_file_name(first));
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(valid_bytes)?;
                file.sync_all()?;
                (first, valid_bytes, committed)
            }
        };

        let path = dir.join(segment_file_name(segment_first));
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        sync_dir(&dir)?;
        Ok(JournalWriter {
            dir,
            config,
            file,
            segment_first,
            segment_bytes,
            pending: Vec::new(),
            pending_events: 0,
            committed,
            deferred: None,
            shim: None,
        })
    }

    /// Installs an [`IoShim`] consulted on every subsequent commit
    /// (replacing any previous one). Fault injection only — a writer
    /// without a shim performs plain writes.
    pub fn set_io_shim(&mut self, shim: Box<dyn IoShim>) {
        self.shim = Some(shim);
    }

    /// Removes the installed [`IoShim`], returning the writer to plain
    /// writes.
    pub fn clear_io_shim(&mut self) {
        self.shim = None;
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The offset the next appended event will receive (committed +
    /// pending).
    pub fn next_offset(&self) -> u64 {
        self.committed + self.pending_events
    }

    /// The durable tail: everything below this offset survives a crash.
    pub fn durable_offset(&self) -> u64 {
        self.committed
    }

    /// Appended-but-not-yet-durable events. Non-zero after a failed
    /// commit: the batch is retained for retry, and callers deciding
    /// whether state is snapshot-safe must treat the journal as lagging
    /// behind applied state until this drains back to zero.
    pub fn pending_events(&self) -> u64 {
        self.pending_events
    }

    /// Frames `event` into the pending batch and returns its assigned
    /// offset. Nothing is durable until [`JournalWriter::commit`].
    pub fn append(&mut self, event: &Event) -> u64 {
        let offset = self.next_offset();
        segment::encode_record(&mut self.pending, event);
        self.pending_events += 1;
        offset
    }

    /// Appends a whole batch ([`JournalWriter::append`] per event).
    pub fn append_batch(&mut self, events: &[Event]) {
        for event in events {
            self.append(event);
        }
    }

    /// Writes the pending batch to the current segment and fsyncs once
    /// (under [`JournalConfig::sync_on_commit`]), rolling to a new
    /// segment first when the current one is full. Returns the new
    /// durable tail.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] on write/sync failures — including the
    /// rollback-poison error left by an earlier commit whose torn tail
    /// could not be cut back.
    pub fn commit(&mut self) -> io::Result<u64> {
        if let Some(deferred) = self.deferred.take() {
            return Err(deferred);
        }
        if self.pending.is_empty() {
            return Ok(self.committed);
        }
        if self.segment_bytes >= self.config.segment_max_bytes && self.segment_bytes > 0 {
            self.roll_segment()?;
        }
        let written = self.shimmed_write();
        if let Err(error) = written {
            // A failed write may have landed part of a record; cut the
            // segment back to its last durable boundary so a retried
            // commit cannot leave torn bytes *between* batches (which a
            // later reopen would silently truncate at, discarding
            // records this writer had reported durable). If even the
            // rollback fails, poison the writer: refusing further
            // commits beats corrupting the offset space.
            if let Err(rollback) = self.file.set_len(self.segment_bytes) {
                self.deferred = Some(io::Error::new(
                    rollback.kind(),
                    format!(
                        "commit failed ({error}) and rolling back the torn \
                         segment tail also failed: {rollback}"
                    ),
                ));
            }
            return Err(error);
        }
        self.segment_bytes += self.pending.len() as u64;
        self.committed += self.pending_events;
        self.pending.clear();
        self.pending_events = 0;
        Ok(self.committed)
    }

    /// Deletes every segment that lies entirely below `offset` — called
    /// after a snapshot at `offset` lands, since recovery never reads
    /// below the newest snapshot. The segment containing `offset` (and
    /// the live tail) always survives. Returns the number of segments
    /// removed.
    ///
    /// # Errors
    ///
    /// Returns [`io::Error`] on filesystem failures.
    pub fn compact_below(&mut self, offset: u64) -> io::Result<usize> {
        let segments = segment::list_segments(&self.dir)?;
        let mut removed = 0;
        for pair in segments.windows(2) {
            let (_, path) = &pair[0];
            let (next_first, _) = pair[1];
            if next_first <= offset {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        if removed > 0 {
            sync_dir(&self.dir)?;
        }
        Ok(removed)
    }

    /// One commit's worth of write + sync, routed through the installed
    /// [`IoShim`] (if any) so fault harnesses can fail, tear, or
    /// un-sync the batch deterministically.
    fn shimmed_write(&mut self) -> io::Result<()> {
        match self.shim.as_mut().map_or(WriteVerdict::Proceed, |shim| {
            shim.before_write(self.pending.len())
        }) {
            WriteVerdict::Proceed => {}
            WriteVerdict::Fail(error) => return Err(error),
            WriteVerdict::Torn { keep } => {
                let keep = keep.min(self.pending.len());
                self.file.write_all(&self.pending[..keep])?;
                return Err(io::Error::other(format!(
                    "injected torn write: {keep} of {} batch bytes landed",
                    self.pending.len()
                )));
            }
        }
        self.file.write_all(&self.pending)?;
        if self.config.sync_on_commit {
            if let Some(error) = self.shim.as_mut().and_then(|shim| shim.before_sync()) {
                return Err(error);
            }
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Finishes the current segment and starts a fresh one whose first
    /// offset is the current committed tail.
    fn roll_segment(&mut self) -> io::Result<()> {
        self.file.sync_data()?;
        let path = self.dir.join(segment_file_name(self.committed));
        self.file = OpenOptions::new()
            .create_new(true)
            .append(true)
            .open(&path)?;
        sync_dir(&self.dir)?;
        self.segment_first = self.committed;
        self.segment_bytes = 0;
        Ok(())
    }
}

/// Fsyncs a directory so renames/creates/deletes within it are durable.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}
