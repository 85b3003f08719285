//! Corruption edge cases: the journal must heal by truncation and
//! recovery must fall back across bad snapshots — never serve garbage.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::PathBuf;

use arb_amm::fee::FeeRate;
use arb_amm::pool::{Pool, PoolId};
use arb_amm::token::TokenId;
use arb_cex::feed::PriceTable;
use arb_dexsim::events::Event;
use arb_dexsim::units::to_raw;
use arb_engine::{OpportunityPipeline, ShardedRuntime};
use arb_journal::{JournalConfig, JournalReader, JournalWriter, Recovery, SnapshotStore};

struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("arbloops-corrupt-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }

    /// The single segment file holding offset 0.
    fn first_segment(&self) -> PathBuf {
        self.0.join("segment-00000000000000000000.seg")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn sync(pool: u32, a: u128, b: u128) -> Event {
    Event::Sync {
        pool: PoolId::new(pool),
        reserve_a: a,
        reserve_b: b,
    }
}

fn write_events(dir: &PathBuf, events: &[Event]) {
    let mut writer = JournalWriter::open(dir, JournalConfig::default()).unwrap();
    writer.append_batch(events);
    writer.commit().unwrap();
}

#[test]
fn zero_length_segment_is_an_empty_journal() {
    let scratch = Scratch::new("zero-length");
    fs::write(scratch.first_segment(), []).unwrap();

    let reader = JournalReader::open(scratch.path()).unwrap();
    assert_eq!(reader.tail_offset(), 0);
    assert!(reader.is_empty());
    assert_eq!(reader.read_from(0).unwrap(), vec![]);

    // The writer adopts the empty segment and appends from offset 0.
    let mut writer = JournalWriter::open(scratch.path(), JournalConfig::default()).unwrap();
    assert_eq!(writer.next_offset(), 0);
    assert_eq!(writer.append(&sync(0, 1, 2)), 0);
    writer.commit().unwrap();
    assert_eq!(
        JournalReader::open(scratch.path()).unwrap().tail_offset(),
        1
    );
}

#[test]
fn truncated_length_prefix_is_cut_at_reopen() {
    let scratch = Scratch::new("truncated-prefix");
    let events = vec![sync(0, 1, 2), sync(1, 3, 4), sync(2, 5, 6)];
    write_events(scratch.path(), &events);

    // A crash mid-write leaves a partial header: 2 stray bytes.
    let clean_len = fs::metadata(scratch.first_segment()).unwrap().len();
    let mut file = OpenOptions::new()
        .append(true)
        .open(scratch.first_segment())
        .unwrap();
    file.write_all(&[0x2a, 0x00]).unwrap();
    drop(file);

    // The reader serves only the valid prefix without touching the file…
    let reader = JournalReader::open(scratch.path()).unwrap();
    assert_eq!(reader.tail_offset(), 3);
    assert_eq!(reader.read_from(0).unwrap(), events);
    assert_eq!(
        fs::metadata(scratch.first_segment()).unwrap().len(),
        clean_len + 2,
        "reader must not mutate the journal"
    );

    // …while the writer truncates the garbage and appends cleanly.
    let mut writer = JournalWriter::open(scratch.path(), JournalConfig::default()).unwrap();
    assert_eq!(writer.durable_offset(), 3);
    assert_eq!(
        fs::metadata(scratch.first_segment()).unwrap().len(),
        clean_len
    );
    assert_eq!(writer.append(&sync(3, 7, 8)), 3);
    writer.commit().unwrap();
    let reader = JournalReader::open(scratch.path()).unwrap();
    assert_eq!(reader.read_from(0).unwrap().len(), 4);
}

#[test]
fn bit_flipped_payload_truncates_from_the_flip() {
    let scratch = Scratch::new("bit-flip");
    let events = vec![sync(0, 1, 2), sync(1, 3, 4), sync(2, 5, 6)];
    write_events(scratch.path(), &events);

    // Flip one bit inside the second record's payload.
    let mut data = fs::read(scratch.first_segment()).unwrap();
    let record_len = data.len() / 3;
    data[record_len + 12] ^= 0x01;
    fs::write(scratch.first_segment(), &data).unwrap();

    // Everything from the flipped record on is gone — the checksum
    // catches the flip and the journal truncates at it.
    let reader = JournalReader::open(scratch.path()).unwrap();
    assert_eq!(reader.tail_offset(), 1);
    assert_eq!(reader.read_from(0).unwrap(), events[..1]);

    let writer = JournalWriter::open(scratch.path(), JournalConfig::default()).unwrap();
    assert_eq!(writer.durable_offset(), 1);
    assert_eq!(
        fs::metadata(scratch.first_segment()).unwrap().len() as usize,
        record_len,
        "writer reopen cuts the file back to the valid prefix"
    );
}

/// The mid-write crash matrix: tear the last record at **every** byte
/// offset of its on-disk encoding — from "crash before the first byte"
/// to "crash one byte short of complete" — and prove that for every
/// cut, (a) reopening the writer heals the tail back to the last whole
/// record, and (b) after the producer re-offers the lost event (what
/// the ingest layer does on recovery), full journal recovery reaches a
/// ranking bit-identical to a never-crashed oracle's.
#[test]
fn torn_tail_at_every_byte_offset_heals_and_recovers_to_the_oracle() {
    let (pools, feed) = paper_setup();
    let ticks = vec![
        sync(0, to_raw(101.0), to_raw(199.0)),
        sync(1, to_raw(303.0), to_raw(198.0)),
        sync(2, to_raw(198.0), to_raw(404.0)),
        sync(0, to_raw(97.0), to_raw(205.0)),
    ];

    // The never-crashed oracle: all four records journaled cleanly.
    let oracle_scratch = Scratch::new("torn-oracle");
    write_events(oracle_scratch.path(), &ticks);
    let recovered = Recovery::new(oracle_scratch.path(), OpportunityPipeline::default(), 2)
        .with_genesis_pools(pools.clone())
        .with_genesis_feed(feed.clone())
        .recover_journaled()
        .unwrap();
    let mut oracle_runtime = recovered.runtime;
    let oracle_report = oracle_runtime.refresh(&feed).unwrap();
    assert!(
        !oracle_report.opportunities.is_empty(),
        "an empty oracle ranking would make the matrix vacuous"
    );
    let oracle_bits: Vec<u64> = oracle_report
        .opportunities
        .iter()
        .map(|o| o.net_profit.value().to_bits())
        .collect();

    // Capture the segment with three whole records, then with the
    // fourth appended — the matrix replays a crash at every byte in
    // between.
    let scratch = Scratch::new("torn-matrix");
    write_events(scratch.path(), &ticks[..3]);
    let clean = fs::read(scratch.first_segment()).unwrap();
    write_events(scratch.path(), &ticks[3..]);
    let full = fs::read(scratch.first_segment()).unwrap();
    assert!(full.len() > clean.len());

    for cut in clean.len()..full.len() {
        fs::write(scratch.first_segment(), &full[..cut]).unwrap();

        // Reopen heals: the torn record is truncated away, the three
        // whole records survive untouched.
        let mut writer = JournalWriter::open(scratch.path(), JournalConfig::default()).unwrap();
        assert_eq!(writer.durable_offset(), 3, "cut at byte {cut}");
        assert_eq!(
            fs::metadata(scratch.first_segment()).unwrap().len() as usize,
            clean.len(),
            "cut at byte {cut}: heal must cut back to the whole-record prefix"
        );

        // The producer re-offers the event the torn write lost…
        assert_eq!(writer.append(&ticks[3]), 3);
        writer.commit().unwrap();
        drop(writer);

        // …and recovery reaches the never-crashed oracle, bit for bit.
        let recovered = Recovery::new(scratch.path(), OpportunityPipeline::default(), 2)
            .with_genesis_pools(pools.clone())
            .with_genesis_feed(feed.clone())
            .recover_journaled()
            .unwrap();
        assert_eq!(recovered.stats.events_replayed, 4, "cut at byte {cut}");
        let mut runtime = recovered.runtime;
        let report = runtime.refresh(&feed).unwrap();
        let bits: Vec<u64> = report
            .opportunities
            .iter()
            .map(|o| o.net_profit.value().to_bits())
            .collect();
        assert_eq!(bits, oracle_bits, "cut at byte {cut}");
    }
}

fn paper_setup() -> (Vec<Pool>, PriceTable) {
    let t = TokenId::new;
    let fee = FeeRate::UNISWAP_V2;
    let pools = vec![
        Pool::new(t(0), t(1), 100.0, 200.0, fee).unwrap(),
        Pool::new(t(1), t(2), 300.0, 200.0, fee).unwrap(),
        Pool::new(t(2), t(0), 200.0, 400.0, fee).unwrap(),
    ];
    let feed: PriceTable = [(t(0), 2.0), (t(1), 10.2), (t(2), 20.0)]
        .into_iter()
        .collect();
    (pools, feed)
}

#[test]
fn snapshot_past_the_tail_falls_back_to_the_previous_one() {
    let scratch = Scratch::new("past-tail");
    let (pools, feed) = paper_setup();

    let mut writer = JournalWriter::open(scratch.path(), JournalConfig::default()).unwrap();
    let mut runtime =
        ShardedRuntime::new(OpportunityPipeline::default(), pools.clone(), 2).unwrap();
    let store = SnapshotStore::new(scratch.path()).unwrap();

    // Two journaled ticks with a snapshot after each.
    let ticks = [
        vec![sync(0, to_raw(101.0), to_raw(199.0))],
        vec![sync(1, to_raw(303.0), to_raw(198.0))],
    ];
    for tick in &ticks {
        writer.append_batch(tick);
        writer.commit().unwrap();
        runtime.apply_events(tick, &feed).unwrap();
        store
            .write(writer.durable_offset(), &runtime.checkpoint())
            .unwrap();
    }
    let live = runtime.refresh(&feed).unwrap();

    // A snapshot claiming offset 99: its events were never fsynced (the
    // journal tail is 2). Recovery must skip it and use snapshot@2.
    store.write(99, &runtime.checkpoint()).unwrap();
    let recovered = Recovery::new(scratch.path(), OpportunityPipeline::default(), 2)
        .with_genesis_pools(pools.clone())
        .with_genesis_feed(feed.clone())
        .recover_journaled()
        .unwrap();
    assert_eq!(recovered.stats.snapshot_offset, Some(2));
    assert_eq!(recovered.stats.events_replayed, 0);

    // Corrupt snapshot@2 as well: fall back once more, to snapshot@1.
    let mut bytes = fs::read(scratch.path().join("snapshot-00000000000000000002.ckpt")).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(
        scratch.path().join("snapshot-00000000000000000002.ckpt"),
        &bytes,
    )
    .unwrap();
    let recovered = Recovery::new(scratch.path(), OpportunityPipeline::default(), 2)
        .with_genesis_pools(pools.clone())
        .with_genesis_feed(feed.clone())
        .recover_journaled()
        .unwrap();
    assert_eq!(recovered.stats.snapshot_offset, Some(1));
    assert_eq!(recovered.stats.events_replayed, 1, "replays tick 2");

    // And the recovered ranking still matches the uninterrupted run.
    let mut recovered_runtime = recovered.runtime;
    let restored = recovered_runtime.refresh(&feed).unwrap();
    assert_eq!(restored.opportunities.len(), live.opportunities.len());
    for (a, b) in live.opportunities.iter().zip(&restored.opportunities) {
        assert_eq!(
            a.net_profit.value().to_bits(),
            b.net_profit.value().to_bits()
        );
    }

    // With every snapshot unusable, recovery degrades to genesis replay.
    for (_, path) in store.list().unwrap() {
        fs::remove_file(path).unwrap();
    }
    let recovered = Recovery::new(scratch.path(), OpportunityPipeline::default(), 2)
        .with_genesis_pools(pools)
        .with_genesis_feed(feed.clone())
        .recover_journaled()
        .unwrap();
    assert_eq!(recovered.stats.snapshot_offset, None);
    assert_eq!(recovered.stats.events_replayed, 2);
    let line = recovered.stats.to_string();
    assert!(line.contains("genesis"), "{line}");
    assert!(!line.contains('\n'));
}
