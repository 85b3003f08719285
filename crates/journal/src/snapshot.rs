//! Durable engine snapshots: the checkpoint codec and the on-disk store.
//!
//! A snapshot file is a serialized [`RuntimeCheckpoint`] tied to a
//! journal offset: "this was the runtime's exact state after consuming
//! events `[0, offset)`". Files are written atomically (tmp + rename +
//! directory fsync) and guarded by a trailing CRC-32, so a crash mid-write
//! leaves either the previous snapshot set or a complete new file — never
//! a torn one. Recovery walks snapshots newest-first and skips any that
//! fail validation *or* reference events past the journal's durable tail
//! (a snapshot fsynced ahead of its events is unusable), falling back to
//! the previous one.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use arb_engine::{PoolSlot, RuntimeCheckpoint};
use arb_graph::Cycle;

use crate::crc::crc32;
use crate::error::JournalError;

const MAGIC: &[u8; 8] = b"ARBSNAP1";
// Version 2 appended the feed and ingest-source-position sections, so a
// snapshot taken through the ingestion front-end is self-contained:
// restoring it needs no live price feed. Version 3 holds one engine in
// place of the shard-count cap, pool owners and per-shard engines.
// Version 4 drops the standing revision: a restored runtime restarts it
// at 0 and never read the stored value.
const VERSION: u32 = 4;
const PREFIX: &str = "snapshot-";
const SUFFIX: &str = ".ckpt";

/// The file name of the snapshot taken at `offset`.
fn snapshot_file_name(offset: u64) -> String {
    crate::names::file_name(PREFIX, offset, SUFFIX)
}

// --- encoding -----------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serializes a checkpoint (with its journal offset) into the snapshot
/// wire format: magic, version, body, trailing CRC-32 over everything
/// after the magic.
pub fn encode_checkpoint(offset: u64, checkpoint: &RuntimeCheckpoint) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u64(&mut out, offset);
    put_u64(&mut out, checkpoint.min_cycle_len as u64);
    put_u64(&mut out, checkpoint.max_cycle_len as u64);
    put_u64(&mut out, checkpoint.slots.len() as u64);
    for slot in &checkpoint.slots {
        put_u32(&mut out, slot.token_a);
        put_u32(&mut out, slot.token_b);
        put_u64(&mut out, slot.reserve_a.to_bits());
        put_u64(&mut out, slot.reserve_b.to_bits());
        put_u32(&mut out, slot.fee_ppm);
        out.push(u8::from(slot.live));
    }
    put_u64(&mut out, checkpoint.arena.len() as u64);
    for entry in &checkpoint.arena {
        match entry {
            None => out.push(0),
            Some(cycle) => {
                out.push(1);
                put_u32(&mut out, cycle.len() as u32);
                for token in cycle.tokens() {
                    put_u32(&mut out, token.index() as u32);
                }
                for pool in cycle.pools() {
                    put_u32(&mut out, pool.index() as u32);
                }
            }
        }
    }
    put_u64(&mut out, checkpoint.free.len() as u64);
    for &slot in &checkpoint.free {
        put_u32(&mut out, slot);
    }
    put_u64(&mut out, checkpoint.feed.len() as u64);
    for &(token, price_bits) in &checkpoint.feed {
        put_u32(&mut out, token);
        put_u64(&mut out, price_bits);
    }
    put_u64(&mut out, checkpoint.source_positions.len() as u64);
    for &position in &checkpoint.source_positions {
        put_u64(&mut out, position);
    }
    let crc = crc32(&out[MAGIC.len()..]);
    put_u32(&mut out, crc);
    out
}

// --- decoding -----------------------------------------------------------

/// A bounds-checked little-endian cursor over snapshot bytes.
struct Decoder<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Decoder<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], JournalError> {
        let slice = self
            .data
            .get(self.at..self.at + n)
            .ok_or_else(|| JournalError::Corrupt("snapshot truncated".to_string()))?;
        self.at += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, JournalError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, JournalError> {
        let bytes = self
            .take(4)?
            .try_into()
            .map_err(|_| JournalError::Corrupt("snapshot u32 field truncated".to_string()))?;
        Ok(u32::from_le_bytes(bytes))
    }

    fn u64(&mut self) -> Result<u64, JournalError> {
        let bytes = self
            .take(8)?
            .try_into()
            .map_err(|_| JournalError::Corrupt("snapshot u64 field truncated".to_string()))?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// A length prefix, sanity-bounded so corrupt lengths cannot trigger
    /// absurd allocations.
    fn len(&mut self) -> Result<usize, JournalError> {
        let len = self.u64()?;
        if len > (1 << 32) {
            return Err(JournalError::Corrupt(format!(
                "implausible snapshot length prefix {len}"
            )));
        }
        Ok(len as usize)
    }
}

/// Parses and validates snapshot bytes, returning the journal offset and
/// the checkpoint.
///
/// # Errors
///
/// Returns [`JournalError::Corrupt`] for bad magic/version, a checksum
/// mismatch, truncation, or malformed contents.
pub fn decode_checkpoint(data: &[u8]) -> Result<(u64, RuntimeCheckpoint), JournalError> {
    if data.len() < MAGIC.len() + 8 || &data[..MAGIC.len()] != MAGIC {
        return Err(JournalError::Corrupt("bad snapshot magic".to_string()));
    }
    let body = &data[MAGIC.len()..data.len() - 4];
    let stored = u32::from_le_bytes(
        data[data.len() - 4..]
            .try_into()
            .map_err(|_| JournalError::Corrupt("snapshot checksum truncated".to_string()))?,
    );
    if crc32(body) != stored {
        return Err(JournalError::Corrupt(
            "snapshot checksum mismatch".to_string(),
        ));
    }
    let mut d = Decoder { data: body, at: 0 };
    let version = d.u32()?;
    if version != VERSION {
        return Err(JournalError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let offset = d.u64()?;
    let min_cycle_len = d.len()?;
    let max_cycle_len = d.len()?;
    let slot_count = d.len()?;
    let mut slots = Vec::with_capacity(slot_count);
    for _ in 0..slot_count {
        slots.push(PoolSlot {
            token_a: d.u32()?,
            token_b: d.u32()?,
            reserve_a: f64::from_bits(d.u64()?),
            reserve_b: f64::from_bits(d.u64()?),
            fee_ppm: d.u32()?,
            live: match d.u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(JournalError::Corrupt(format!(
                        "invalid liveness byte {other}"
                    )))
                }
            },
        });
    }
    let arena_len = d.len()?;
    let mut arena = Vec::with_capacity(arena_len);
    for _ in 0..arena_len {
        match d.u8()? {
            0 => arena.push(None),
            1 => {
                let hops = d.u32()? as usize;
                let mut tokens = Vec::with_capacity(hops);
                for _ in 0..hops {
                    tokens.push(arb_amm::token::TokenId::new(d.u32()?));
                }
                let mut pools = Vec::with_capacity(hops);
                for _ in 0..hops {
                    pools.push(arb_amm::pool::PoolId::new(d.u32()?));
                }
                let cycle = Cycle::new(tokens, pools).map_err(|e| {
                    JournalError::Corrupt(format!("snapshot holds an invalid cycle: {e}"))
                })?;
                arena.push(Some(cycle));
            }
            other => return Err(JournalError::Corrupt(format!("invalid arena tag {other}"))),
        }
    }
    let free_len = d.len()?;
    let mut free = Vec::with_capacity(free_len);
    for _ in 0..free_len {
        free.push(d.u32()?);
    }
    let feed_len = d.len()?;
    let mut feed = Vec::with_capacity(feed_len);
    for _ in 0..feed_len {
        let token = d.u32()?;
        let price_bits = d.u64()?;
        feed.push((token, price_bits));
    }
    let position_count = d.len()?;
    let mut source_positions = Vec::with_capacity(position_count);
    for _ in 0..position_count {
        source_positions.push(d.u64()?);
    }
    if d.at != d.data.len() {
        return Err(JournalError::Corrupt(
            "snapshot has trailing bytes".to_string(),
        ));
    }
    Ok((
        offset,
        RuntimeCheckpoint {
            min_cycle_len,
            max_cycle_len,
            slots,
            arena,
            free,
            feed,
            source_positions,
        },
    ))
}

// --- the store ----------------------------------------------------------

/// The snapshot directory: atomic writes, newest-valid selection,
/// pruning. Usually the same directory as the journal segments (the two
/// naming schemes do not collide).
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (or creates) the store in `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] when the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, JournalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SnapshotStore { dir })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes the checkpoint taken at journal `offset` atomically: the
    /// bytes land in a `.tmp` file, are fsynced, renamed into place, and
    /// the directory entry is fsynced. Returns the final path.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on filesystem failures.
    pub fn write(
        &self,
        offset: u64,
        checkpoint: &RuntimeCheckpoint,
    ) -> Result<PathBuf, JournalError> {
        let bytes = encode_checkpoint(offset, checkpoint);
        let path = self.dir.join(snapshot_file_name(offset));
        let tmp = path.with_extension("ckpt.tmp");
        {
            let mut file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp)?;
            file.write_all(&bytes)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        File::open(&self.dir)?.sync_all()?;
        Ok(path)
    }

    /// Lists the snapshot files by offset, ascending. Unfinished `.tmp`
    /// files and foreign names are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on filesystem failures.
    pub fn list(&self) -> Result<Vec<(u64, PathBuf)>, JournalError> {
        Ok(crate::names::list(&self.dir, PREFIX, SUFFIX)?)
    }

    /// Loads and validates one snapshot file.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on read failures and
    /// [`JournalError::Corrupt`] when validation fails.
    pub fn load(path: &Path) -> Result<(u64, RuntimeCheckpoint), JournalError> {
        decode_checkpoint(&fs::read(path)?)
    }

    /// The newest snapshot that validates and whose journal suffix is
    /// actually replayable: its offset must lie within
    /// `[journal_base, journal_tail]` (below the base, the events
    /// between the snapshot and the tail were compacted away; above the
    /// tail, they were never fsynced). Invalid or out-of-range
    /// snapshots are skipped (falling back to the previous one), not
    /// errors: recovery degrades toward genesis rather than failing.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on directory listing failures.
    pub fn newest_valid(
        &self,
        journal_base: u64,
        journal_tail: u64,
    ) -> Result<Option<(u64, RuntimeCheckpoint)>, JournalError> {
        for (offset, path) in self.list()?.into_iter().rev() {
            if offset > journal_tail || offset < journal_base {
                continue;
            }
            if let Ok((stored_offset, checkpoint)) = Self::load(&path) {
                if stored_offset == offset {
                    return Ok(Some((offset, checkpoint)));
                }
            }
        }
        Ok(None)
    }

    /// Deletes all but the newest `keep` snapshots. Returns the number
    /// removed.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on filesystem failures.
    pub fn prune(&self, keep: usize) -> Result<usize, JournalError> {
        let snapshots = self.list()?;
        let excess = snapshots.len().saturating_sub(keep.max(1));
        for (_, path) in &snapshots[..excess] {
            fs::remove_file(path)?;
        }
        if excess > 0 {
            File::open(&self.dir)?.sync_all()?;
        }
        Ok(excess)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arb_amm::fee::FeeRate;
    use arb_amm::pool::Pool;
    use arb_amm::token::TokenId;
    use arb_engine::{OpportunityPipeline, ShardedRuntime};

    fn checkpoint() -> RuntimeCheckpoint {
        let t = TokenId::new;
        let fee = FeeRate::UNISWAP_V2;
        let pools = vec![
            Pool::new(t(0), t(1), 100.0, 200.0, fee).unwrap(),
            Pool::new(t(1), t(2), 300.0, 200.0, fee).unwrap(),
            Pool::new(t(2), t(0), 200.0, 400.0, fee).unwrap(),
        ];
        ShardedRuntime::new(OpportunityPipeline::default(), pools, 1)
            .unwrap()
            .checkpoint()
    }

    /// `bytes` with its version word replaced and its CRC recomputed, so
    /// only the version check can reject it.
    fn with_version(mut bytes: Vec<u8>, version: u32) -> Vec<u8> {
        let at = MAGIC.len();
        bytes[at..at + 4].copy_from_slice(&version.to_le_bytes());
        let end = bytes.len() - 4;
        let crc = crc32(&bytes[MAGIC.len()..end]);
        bytes[end..].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    #[test]
    fn foreign_snapshot_version_is_refused_and_skipped() {
        let checkpoint = checkpoint();
        let current = encode_checkpoint(1, &checkpoint);
        assert_eq!(
            decode_checkpoint(&current).unwrap(),
            (1, checkpoint.clone())
        );

        let foreign = with_version(encode_checkpoint(2, &checkpoint), 3);
        match decode_checkpoint(&foreign) {
            Err(JournalError::Corrupt(reason)) => {
                assert!(
                    reason.contains("unsupported snapshot version 3"),
                    "{reason}"
                )
            }
            other => panic!("a version-3 snapshot must be corrupt, got {other:?}"),
        }

        // The store's newest-valid selection skips the foreign file and
        // falls back to the older, current-version snapshot.
        let dir =
            std::env::temp_dir().join(format!("arbloops-snapshot-version-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = SnapshotStore::new(&dir).unwrap();
        store.write(1, &checkpoint).unwrap();
        fs::write(dir.join(snapshot_file_name(2)), &foreign).unwrap();
        assert_eq!(store.list().unwrap().len(), 2);
        let newest = store.newest_valid(0, 2).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(newest, Some((1, checkpoint)));
    }
}
