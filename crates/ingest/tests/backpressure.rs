//! Backpressure contract: a consumer that falls behind never blocks
//! the producer and never grows the queue past its capacity — seals
//! against a full queue merge into its tail without losing the final
//! state — and a broken journal degrades serving instead of aborting
//! it.

use arb_amm::pool::PoolId;
use arb_dexsim::events::Event;
use arb_ingest::{HealthState, IngestConfig, Ingestor};

fn sync(pool: u32, reserve: u128) -> Event {
    Event::Sync {
        pool: PoolId::new(pool),
        reserve_a: reserve,
        reserve_b: reserve + 1,
    }
}

#[test]
fn coalesce_harder_bounds_depth_without_losing_final_state() {
    const SEALS: usize = 32;
    let capacity_one = IngestConfig {
        queue_capacity: 1,
        ..IngestConfig::default()
    };
    for config in [capacity_one, IngestConfig::default()] {
        let capacity = config.queue_capacity;
        let mut ingestor = Ingestor::new(config);
        let chain = ingestor.register_source("chain");
        let handle = ingestor.handle();

        // Nobody consumes: 32 sealed blocks of 3 pools each fill the
        // queue, then pile into its tail batch instead of growing it.
        for round in 0..SEALS as u128 {
            for pool in 0..3u32 {
                ingestor
                    .offer(chain, [sync(pool, 1000 * round + u128::from(pool))])
                    .expect("registered");
            }
            ingestor
                .seal_block()
                .expect("a full queue merges instead of blocking");
            assert!(handle.depth() <= capacity, "capacity {capacity}");
        }
        assert_eq!(
            handle.depth(),
            capacity,
            "degraded mode keeps the queue bounded"
        );
        assert_eq!(
            ingestor.consumer_health().state(),
            HealthState::Quarantined,
            "every merge records the consumer as idle"
        );

        let batches: Vec<_> = std::iter::from_fn(|| handle.try_pop()).collect();
        assert_eq!(batches.len(), capacity);
        for (index, batch) in batches.iter().enumerate() {
            assert_eq!(batch.first_offset, 3 * index as u64, "stream order");
        }
        let tail = batches.last().expect("a merged tail batch");
        assert_eq!(tail.raw_events, 3 * (SEALS - capacity + 1));
        // Last write wins per pool across every merged block.
        assert_eq!(
            tail.events,
            vec![sync(0, 31_000), sync(1, 31_001), sync(2, 31_002)]
        );

        let stats = handle.stats();
        assert_eq!(stats.events_in, 3 * SEALS as u64);
        assert_eq!(stats.events_out, 3 * capacity as u64);
        assert!(stats.ledger_balanced(0), "{stats}");
        assert_eq!(stats.degraded_merges, (SEALS - capacity) as u64);
        assert_eq!(stats.depth_high_water, capacity);

        // Once the consumer drains, the next seal lands as its own
        // batch and the consumer site starts to recover.
        ingestor
            .offer(chain, [sync(0, 32_000)])
            .expect("registered");
        ingestor.seal_block().expect("room again");
        assert_eq!(handle.depth(), 1);
        assert_eq!(ingestor.consumer_health().state(), HealthState::Recovered);
    }
}

/// An `IoShim` that fails the next `n` commits outright.
#[derive(Debug)]
struct FailNext(u32);

impl arb_journal::IoShim for FailNext {
    fn before_write(&mut self, _bytes: usize) -> arb_journal::WriteVerdict {
        if self.0 > 0 {
            self.0 -= 1;
            arb_journal::WriteVerdict::Fail(std::io::Error::other("injected write failure"))
        } else {
            arb_journal::WriteVerdict::Proceed
        }
    }
}

#[test]
fn journal_failures_degrade_serving_instead_of_aborting_it() {
    use std::sync::{Arc, Mutex};

    use arb_journal::{JournalConfig, JournalReader, JournalWriter};

    let dir = std::env::temp_dir().join(format!("arbloops-ingest-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut writer = JournalWriter::open(&dir, JournalConfig::default()).expect("open journal");
    writer.set_io_shim(Box::new(FailNext(2)));
    let writer = Arc::new(Mutex::new(writer));

    let mut ingestor = Ingestor::new(IngestConfig {
        queue_capacity: 8,
        ..IngestConfig::default()
    })
    .with_journal(Arc::clone(&writer));
    let chain = ingestor.register_source("chain");
    let handle = ingestor.handle();

    // Two seals hit the broken disk: both still deliver their batches.
    for round in 0..2u128 {
        ingestor.offer(chain, [sync(0, round)]).expect("registered");
        ingestor
            .seal_block()
            .expect("journal failure must not abort the seal");
    }
    assert!(ingestor.journal_degraded(), "backlog pending retry");
    assert!(ingestor.last_journal_error().is_some());
    assert_eq!(ingestor.journal_health().state(), HealthState::Lagging);
    assert_eq!(handle.stats().journal_write_failures, 2);
    assert_eq!(
        writer.lock().unwrap().durable_offset(),
        0,
        "nothing durable while degraded"
    );

    // The disk heals: the next seal recommits the whole backlog.
    ingestor.offer(chain, [sync(0, 2)]).expect("registered");
    ingestor.seal_block().expect("seal after heal");
    assert!(!ingestor.journal_degraded(), "backlog drained");
    assert!(ingestor.last_journal_error().is_none());
    assert_eq!(handle.stats().journal_recommits, 1);
    assert_eq!(writer.lock().unwrap().durable_offset(), 3);

    // Delivery never paused, and the journal caught up to the full raw
    // stream.
    let mut delivered = Vec::new();
    while let Some(batch) = handle.try_pop() {
        delivered.extend(batch.events);
    }
    assert_eq!(delivered, vec![sync(0, 0), sync(0, 1), sync(0, 2)]);
    drop(writer);
    let replayed = JournalReader::open(&dir)
        .expect("reopen journal")
        .read_from(0)
        .expect("read journal");
    assert_eq!(replayed, delivered, "journal holds the raw stream");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
