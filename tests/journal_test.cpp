// Unit tests for the durability subsystem: the storage backends (MemDir's
// crash model, FsDir against the real filesystem), the fault-injecting
// decorator, the CRC-framed journal scanner (including a cut at EVERY
// byte of a valid journal), the snapshot wrapper, the DurableStore
// append/compact/recover cycle, and the job-record codec it persists.
#include <gtest/gtest.h>

#include <filesystem>

#include "job/queue.hpp"
#include "persist/durable_store.hpp"
#include "persist/fault_fs.hpp"
#include "persist/storage.hpp"
#include "persist/wal.hpp"
#include "util/crc32.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace shadow::persist {
namespace {

class QuietLogs {
 public:
  QuietLogs() : saved_(Logger::instance().level()) {
    Logger::instance().set_level(LogLevel::kError);
  }
  ~QuietLogs() { Logger::instance().set_level(saved_); }

 private:
  LogLevel saved_;
};

Bytes bytes_of(const std::string& s) {
  return Bytes(s.begin(), s.end());
}

// ---- MemDir ----

TEST(MemDirTest, AppendIsDurableOnlyAfterSync) {
  MemDir dir;
  auto file = dir.open_append("journal.wal");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->append(bytes_of("hello ")).ok());
  ASSERT_TRUE(file.value()->sync().ok());
  ASSERT_TRUE(file.value()->append(bytes_of("world")).ok());
  EXPECT_EQ(file.value()->size(), 11u);
  EXPECT_EQ(dir.pending_bytes(), 5u);

  dir.crash();  // strict: unsynced bytes are gone
  auto read = dir.read("journal.wal");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), bytes_of("hello "));
}

TEST(MemDirTest, LenientCrashKeepsUnsyncedBytes) {
  MemDir dir;
  auto file = dir.open_append("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->append(bytes_of("abcd")).ok());
  dir.crash(/*keep_unsynced_fraction=*/1.0);
  auto read = dir.read("f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), bytes_of("abcd"));
}

TEST(MemDirTest, CrashBitFlipDamagesOnlyUnsyncedTail) {
  MemDir dir;
  auto file = dir.open_append("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->append(bytes_of("synced-part-")).ok());
  ASSERT_TRUE(file.value()->sync().ok());
  ASSERT_TRUE(file.value()->append(bytes_of("pending")).ok());
  dir.crash(/*keep_unsynced_fraction=*/1.0, /*flip_bit_in_kept_tail=*/true,
            /*seed=*/7);
  auto read = dir.read("f");
  ASSERT_TRUE(read.ok());
  const Bytes& got = read.value();
  ASSERT_EQ(got.size(), 19u);
  const Bytes expect = bytes_of("synced-part-pending");
  // Synced prefix untouched...
  EXPECT_TRUE(std::equal(got.begin(), got.begin() + 12, expect.begin()));
  // ...and exactly one bit differs in the tail.
  int diff_bits = 0;
  for (std::size_t i = 12; i < got.size(); ++i) {
    diff_bits += __builtin_popcount(got[i] ^ expect[i]);
  }
  EXPECT_EQ(diff_bits, 1);
}

TEST(MemDirTest, WriteAtomicReplacesAndSurvivesCrash) {
  MemDir dir;
  ASSERT_TRUE(dir.write_atomic("snap", bytes_of("v1")).ok());
  ASSERT_TRUE(dir.write_atomic("snap", bytes_of("v2-longer")).ok());
  dir.crash();
  auto read = dir.read("snap");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), bytes_of("v2-longer"));
}

TEST(MemDirTest, RejectsBadNames) {
  MemDir dir;
  EXPECT_FALSE(dir.open_append("a/b").ok());
  EXPECT_FALSE(dir.write_atomic("", bytes_of("x")).ok());
  EXPECT_FALSE(dir.write_atomic("..", bytes_of("x")).ok());
  EXPECT_FALSE(dir.read("missing").ok());
  EXPECT_FALSE(dir.remove("missing").ok());
}

// ---- FsDir (real filesystem, in a temp directory) ----

TEST(FsDirTest, AppendSyncReadRoundTrip) {
  const auto root = std::filesystem::temp_directory_path() /
                    "shadow_fsdir_test_append";
  std::filesystem::remove_all(root);
  {
    FsDir dir(root.string());
    auto file = dir.open_append("journal.wal");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->append(bytes_of("alpha")).ok());
    ASSERT_TRUE(file.value()->sync().ok());
    ASSERT_TRUE(file.value()->append(bytes_of("beta")).ok());
    ASSERT_TRUE(file.value()->sync().ok());
    EXPECT_EQ(file.value()->size(), 9u);
  }
  {
    FsDir dir(root.string());
    EXPECT_TRUE(dir.exists("journal.wal"));
    auto read = dir.read("journal.wal");
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), bytes_of("alphabeta"));
    const auto names = dir.list();
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "journal.wal");
    ASSERT_TRUE(dir.remove("journal.wal").ok());
    EXPECT_FALSE(dir.exists("journal.wal"));
  }
  std::filesystem::remove_all(root);
}

TEST(FsDirTest, WriteAtomicLeavesNoTempFiles) {
  const auto root = std::filesystem::temp_directory_path() /
                    "shadow_fsdir_test_atomic";
  std::filesystem::remove_all(root);
  FsDir dir(root.string());
  ASSERT_TRUE(dir.write_atomic("snapshot.bin", bytes_of("state-1")).ok());
  ASSERT_TRUE(dir.write_atomic("snapshot.bin", bytes_of("state-2")).ok());
  auto read = dir.read("snapshot.bin");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), bytes_of("state-2"));
  EXPECT_EQ(dir.list().size(), 1u) << "temp file left behind";
  std::filesystem::remove_all(root);
}

TEST(FsDirTest, DurableStoreWorksOverRealFilesystem) {
  const auto root = std::filesystem::temp_directory_path() /
                    "shadow_fsdir_test_store";
  std::filesystem::remove_all(root);
  {
    FsDir dir(root.string());
    DurableStore store(&dir);
    ASSERT_TRUE(
        store.append(RecordType::kShadowEvicted, bytes_of("key-1")).ok());
    ASSERT_TRUE(
        store.append(RecordType::kShadowEvicted, bytes_of("key-2")).ok());
  }
  {
    FsDir dir(root.string());
    DurableStore store(&dir);
    auto recovered = store.recover();
    ASSERT_TRUE(recovered.ok());
    EXPECT_FALSE(recovered.value().journal_torn);
    ASSERT_EQ(recovered.value().records.size(), 2u);
    EXPECT_EQ(recovered.value().records[1].body, bytes_of("key-2"));
  }
  std::filesystem::remove_all(root);
}

// ---- FaultFs ----

TEST(FaultFsTest, CrashAtNthWriteKillsEverythingAfter) {
  MemDir inner;
  StorageFaultPlan plan;
  plan.crash_at_write = 2;
  FaultFs faults(&inner, plan);

  auto file = faults.open_append("j");
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file.value()->append(bytes_of("one")).ok());   // write 1
  EXPECT_FALSE(file.value()->append(bytes_of("two")).ok());  // write 2: dies
  EXPECT_TRUE(faults.dead());
  EXPECT_FALSE(file.value()->append(bytes_of("three")).ok());
  EXPECT_FALSE(faults.write_atomic("s", bytes_of("x")).ok());
  EXPECT_FALSE(faults.read("j").ok());
  EXPECT_EQ(faults.fault_stats().refused_ops, 3u);

  // The inner disk holds exactly the pre-crash writes.
  inner.crash(1.0);
  auto read = inner.read("j");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), bytes_of("one"));
}

TEST(FaultFsTest, TornKeepLeavesPrefixOfDyingAppend) {
  MemDir inner;
  StorageFaultPlan plan;
  plan.crash_at_write = 1;
  plan.torn_keep = 4;
  FaultFs faults(&inner, plan);
  auto file = faults.open_append("j");
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE(file.value()->append(bytes_of("abcdefgh")).ok());
  EXPECT_EQ(faults.fault_stats().torn_bytes, 4u);
  inner.crash(1.0);
  auto read = inner.read("j");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), bytes_of("abcd"));
}

TEST(FaultFsTest, DyingWriteAtomicAppliesNothing) {
  MemDir inner;
  ASSERT_TRUE(inner.write_atomic("s", bytes_of("old")).ok());
  StorageFaultPlan plan;
  plan.crash_at_write = 1;
  FaultFs faults(&inner, plan);
  EXPECT_FALSE(faults.write_atomic("s", bytes_of("new")).ok());
  auto read = inner.read("s");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), bytes_of("old")) << "rename must be all-or-nothing";
}

TEST(FaultFsTest, LyingFsyncLeavesBytesUnsynced) {
  MemDir inner;
  StorageFaultPlan plan;
  plan.lie_about_sync_after = 1;
  FaultFs faults(&inner, plan);
  auto file = faults.open_append("j");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file.value()->append(bytes_of("data")).ok());
  ASSERT_TRUE(file.value()->sync().ok()) << "the lie: OK without syncing";
  EXPECT_EQ(faults.fault_stats().lied_syncs, 1u);
  EXPECT_EQ(inner.pending_bytes(), 4u);
  inner.crash();  // strict power cut: the lied-about bytes evaporate
  auto read = inner.read("j");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().empty());
}

// ---- journal framing + scanner ----

Bytes journal_with(const std::vector<std::pair<RecordType, Bytes>>& records) {
  BufWriter w;
  w.put_raw(journal_header());
  for (const auto& [type, body] : records) {
    w.put_raw(frame_record(type, body));
  }
  return w.take();
}

TEST(JournalScanTest, EmptyFileIsCleanAndEmpty) {
  const auto scan = scan_journal(Bytes{});
  EXPECT_FALSE(scan.torn);
  EXPECT_TRUE(scan.records.empty());
}

TEST(JournalScanTest, HeaderOnlyJournalHasNoRecords) {
  const auto scan = scan_journal(journal_header());
  EXPECT_TRUE(scan.header_ok);
  EXPECT_FALSE(scan.torn);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, kJournalHeaderSize);
}

TEST(JournalScanTest, RoundTripsTypedRecords) {
  const auto raw = journal_with({
      {RecordType::kShadowCached, bytes_of("alpha")},
      {RecordType::kJobSubmitted, bytes_of("")},
      {RecordType::kJobDelivered, bytes_of("omega")},
  });
  const auto scan = scan_journal(raw);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.valid_bytes, raw.size());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].type, RecordType::kShadowCached);
  EXPECT_EQ(scan.records[0].body, bytes_of("alpha"));
  EXPECT_EQ(scan.records[1].body, Bytes{});
  EXPECT_EQ(scan.records[2].type, RecordType::kJobDelivered);
  EXPECT_GT(scan.records[2].offset, scan.records[0].offset);
}

// The core torn-tail property: cut a valid journal at EVERY byte length;
// the scanner must keep the longest intact record prefix and flag (only)
// genuine damage — never crash, never accept a partial record.
TEST(JournalScanTest, TruncationAtEveryByteKeepsCleanPrefix) {
  const auto raw = journal_with({
      {RecordType::kShadowCached, bytes_of("first-record-body")},
      {RecordType::kShadowEvicted, bytes_of("2nd")},
      {RecordType::kJobFinished, bytes_of("third and final body")},
  });
  const auto whole = scan_journal(raw);
  ASSERT_EQ(whole.records.size(), 3u);
  // Byte offsets at which exactly 0, 1, 2, 3 records are intact.
  std::vector<u64> full_offsets = {kJournalHeaderSize,
                                   whole.records[1].offset,
                                   whole.records[2].offset, raw.size()};
  for (std::size_t cut = 0; cut <= raw.size(); ++cut) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    const Bytes prefix(raw.begin(), raw.begin() + cut);
    const auto scan = scan_journal(prefix);
    std::size_t expect_records = 0;
    while (expect_records + 1 < full_offsets.size() &&
           full_offsets[expect_records + 1] <= cut) {
      ++expect_records;
    }
    if (cut == 0) {
      EXPECT_FALSE(scan.torn);  // never written ≠ damaged
    } else if (cut < kJournalHeaderSize) {
      EXPECT_TRUE(scan.torn);
      EXPECT_TRUE(scan.records.empty());
      continue;
    }
    EXPECT_EQ(scan.records.size(), expect_records);
    // Torn iff the cut is not exactly on a record boundary.
    const bool on_boundary =
        cut == 0 || std::find(full_offsets.begin(), full_offsets.end(),
                              cut) != full_offsets.end();
    EXPECT_EQ(scan.torn, !on_boundary);
    for (std::size_t i = 0; i < expect_records; ++i) {
      EXPECT_EQ(scan.records[i].body, whole.records[i].body);
    }
  }
}

TEST(JournalScanTest, BitFlipAnywhereNeverYieldsWrongRecords) {
  const auto raw = journal_with({
      {RecordType::kShadowCached, bytes_of("payload-one")},
      {RecordType::kOutputStored, bytes_of("payload-two")},
  });
  const auto whole = scan_journal(raw);
  ASSERT_EQ(whole.records.size(), 2u);
  for (std::size_t byte = 0; byte < raw.size(); ++byte) {
    for (int bit : {0, 3, 7}) {
      Bytes damaged = raw;
      damaged[byte] ^= static_cast<u8>(1u << bit);
      const auto scan = scan_journal(damaged);
      // Every record the scanner DOES return must be one of the originals,
      // byte-identical: damage truncates, it never fabricates.
      ASSERT_LE(scan.records.size(), 2u);
      for (std::size_t i = 0; i < scan.records.size(); ++i) {
        EXPECT_EQ(scan.records[i].body, whole.records[i].body)
            << "flip at byte " << byte << " bit " << bit;
        EXPECT_EQ(scan.records[i].type, whole.records[i].type);
      }
      if (scan.records.size() < 2u) {
        EXPECT_TRUE(scan.torn);
      }
    }
  }
}

TEST(JournalScanTest, OversizedLengthFieldIsTornNotAllocated) {
  BufWriter w;
  w.put_raw(journal_header());
  w.put_u32(0xFFFFFFFFu);  // absurd length
  w.put_u32(0);
  w.put_raw(bytes_of("short"));
  const auto scan = scan_journal(w.take());
  EXPECT_TRUE(scan.torn);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_NE(scan.tail_detail.find("length"), std::string::npos);
}

// ---- snapshot wrapper ----

TEST(SnapshotWrapTest, RoundTrip) {
  const Bytes state = bytes_of("application state blob");
  auto unwrapped = unwrap_snapshot(wrap_snapshot(state));
  ASSERT_TRUE(unwrapped.ok());
  EXPECT_EQ(unwrapped.value(), state);
}

TEST(SnapshotWrapTest, AnySingleBitFlipIsRejected) {
  const Bytes wrapped = wrap_snapshot(bytes_of("snapshot-state"));
  for (std::size_t byte = 0; byte < wrapped.size(); ++byte) {
    Bytes damaged = wrapped;
    damaged[byte] ^= 0x10;
    EXPECT_FALSE(unwrap_snapshot(damaged).ok()) << "byte " << byte;
  }
}

// ---- DurableStore ----

TEST(DurableStoreTest, AppendRecoverRoundTrip) {
  MemDir dir;
  {
    DurableStore store(&dir);
    ASSERT_TRUE(store.append(RecordType::kShadowCached, bytes_of("a")).ok());
    ASSERT_TRUE(store.append(RecordType::kJobSubmitted, bytes_of("b")).ok());
    EXPECT_EQ(store.stats().appends, 2u);
  }
  EXPECT_EQ(dir.pending_bytes(), 0u) << "append() must sync before returning";
  dir.crash();  // strict: only synced bytes — which is everything
  DurableStore store(&dir);
  auto recovered = store.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_FALSE(recovered.value().snapshot_present);
  ASSERT_EQ(recovered.value().records.size(), 2u);
  EXPECT_EQ(recovered.value().records[0].body, bytes_of("a"));
  EXPECT_EQ(recovered.value().records[1].type, RecordType::kJobSubmitted);
}

TEST(DurableStoreTest, CompactSnapshotsAndTruncates) {
  MemDir dir;
  DurableStore store(&dir, /*compact_every=*/2);
  ASSERT_TRUE(store.append(RecordType::kShadowCached, bytes_of("a")).ok());
  EXPECT_FALSE(store.compaction_due());
  ASSERT_TRUE(store.append(RecordType::kShadowCached, bytes_of("b")).ok());
  EXPECT_TRUE(store.compaction_due());
  ASSERT_TRUE(store.compact(bytes_of("the-state")).ok());
  EXPECT_FALSE(store.compaction_due());
  ASSERT_TRUE(store.append(RecordType::kShadowEvicted, bytes_of("c")).ok());

  auto recovered = store.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().snapshot_present);
  EXPECT_EQ(recovered.value().snapshot, bytes_of("the-state"));
  ASSERT_EQ(recovered.value().records.size(), 1u)
      << "compaction must truncate already-snapshotted records";
  EXPECT_EQ(recovered.value().records[0].body, bytes_of("c"));
}

TEST(DurableStoreTest, TornJournalTailIsDiscardedWithDetail) {
  QuietLogs quiet;
  MemDir dir;
  {
    DurableStore store(&dir);
    ASSERT_TRUE(store.append(RecordType::kShadowCached, bytes_of("keep")).ok());
  }
  // Simulate a torn final append: write half a record frame by hand.
  {
    auto file = dir.open_append(DurableStore::kJournalName);
    ASSERT_TRUE(file.ok());
    BufWriter w;
    w.put_u32(500);  // claims 500 payload bytes...
    w.put_u32(0xDEAD);
    w.put_raw(bytes_of("but only this much arrived"));
    ASSERT_TRUE(file.value()->append(w.take()).ok());
    ASSERT_TRUE(file.value()->sync().ok());
  }
  DurableStore store(&dir);
  auto recovered = store.recover();
  ASSERT_TRUE(recovered.ok()) << "damage is recovered from, not an error";
  EXPECT_TRUE(recovered.value().journal_torn);
  EXPECT_GT(recovered.value().discarded_bytes, 0u);
  ASSERT_EQ(recovered.value().records.size(), 1u);
  EXPECT_EQ(recovered.value().records[0].body, bytes_of("keep"));
}

TEST(DurableStoreTest, CorruptSnapshotDegradesToJournalOnly) {
  QuietLogs quiet;
  MemDir dir;
  DurableStore store(&dir, /*compact_every=*/1);
  ASSERT_TRUE(store.append(RecordType::kShadowCached, bytes_of("x")).ok());
  ASSERT_TRUE(store.compact(bytes_of("good-state")).ok());
  ASSERT_TRUE(store.append(RecordType::kShadowEvicted, bytes_of("y")).ok());
  // A disk bit-flip inside the snapshot file.
  {
    auto raw = dir.read(DurableStore::kSnapshotName);
    ASSERT_TRUE(raw.ok());
    Bytes damaged = raw.value();
    damaged[damaged.size() / 2] ^= 0x04;
    ASSERT_TRUE(dir.write_atomic(DurableStore::kSnapshotName, damaged).ok());
  }
  DurableStore fresh(&dir);
  auto recovered = fresh.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().snapshot_present);
  EXPECT_TRUE(recovered.value().snapshot_corrupt);
  EXPECT_TRUE(recovered.value().snapshot.empty());
  ASSERT_EQ(recovered.value().records.size(), 1u);
  EXPECT_EQ(recovered.value().records[0].body, bytes_of("y"));
}

TEST(DurableStoreTest, CrashBetweenSnapshotAndTruncateReplaysIdempotently) {
  // The compaction ordering contract: snapshot first, truncate second. A
  // crash between the two leaves new snapshot + old journal; recovery
  // must see BOTH (the replay is idempotent at the application layer).
  MemDir inner;
  {
    DurableStore store(&inner, /*compact_every=*/100);
    ASSERT_TRUE(store.append(RecordType::kShadowCached, bytes_of("r1")).ok());
    ASSERT_TRUE(store.append(RecordType::kShadowCached, bytes_of("r2")).ok());
  }
  // Re-run compaction under a fault plan that dies at the journal
  // truncation (write 2 of: snapshot write_atomic, journal write_atomic).
  StorageFaultPlan plan;
  plan.crash_at_write = 2;
  FaultFs faults(&inner, plan);
  DurableStore store(&faults, /*compact_every=*/100);
  EXPECT_FALSE(store.compact(bytes_of("snap-after-r2")).ok());
  inner.crash();

  DurableStore fresh(&inner);
  auto recovered = fresh.recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().snapshot, bytes_of("snap-after-r2"));
  ASSERT_EQ(recovered.value().records.size(), 2u)
      << "old journal records must still be visible after the crash";
}

// ---- job record codec ----

job::JobRecord sample_job() {
  job::JobRecord job;
  job.job_id = 42;
  job.client_name = "ws";
  job.client_job_token = 7;
  job.command_file = "sort data\n";
  proto::JobFileRef ref;
  ref.file.domain = "dom";
  ref.file.host = "ws";
  ref.file.path = "/home/user/data";
  ref.file.inode = 1234;
  ref.local_name = "data";
  ref.version = 5;
  ref.crc = 0xABCD;
  job.files.push_back(ref);
  job.output_name = "/home/user/job.out";
  job.error_name = "/home/user/job.err";
  job.output_route = "other-ws";
  job.state = proto::JobState::kRunning;
  job.detail = "running";
  job.exit_code = -3;
  job.output_content = "partial out";
  job.error_content = "some err";
  job.cpu_cost = 9999;
  job.retries = 2;
  return job;
}

TEST(JobCodecTest, RoundTripsEveryField) {
  const job::JobRecord job = sample_job();
  BufWriter w;
  job::encode_job_record(job, w);
  BufReader r(w.data());
  auto decoded = job::decode_job_record(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(r.at_end());
  const job::JobRecord& got = decoded.value();
  EXPECT_EQ(got.job_id, 42u);
  EXPECT_EQ(got.client_name, "ws");
  EXPECT_EQ(got.client_job_token, 7u);
  EXPECT_EQ(got.command_file, "sort data\n");
  ASSERT_EQ(got.files.size(), 1u);
  EXPECT_EQ(got.files[0].file, job.files[0].file);
  EXPECT_EQ(got.files[0].local_name, "data");
  EXPECT_EQ(got.files[0].version, 5u);
  EXPECT_EQ(got.files[0].crc, 0xABCDu);
  EXPECT_EQ(got.output_route, "other-ws");
  EXPECT_EQ(got.state, proto::JobState::kRunning);
  EXPECT_EQ(got.exit_code, -3);
  EXPECT_EQ(got.output_content, "partial out");
  EXPECT_EQ(got.error_content, "some err");
  EXPECT_EQ(got.cpu_cost, 9999u);
  EXPECT_EQ(got.retries, 2u);
  EXPECT_EQ(got.submitted_via, 0u) << "connection identity not persisted";
}

TEST(JobCodecTest, RejectsBadState) {
  job::JobRecord job = sample_job();
  BufWriter w;
  job::encode_job_record(job, w);
  Bytes raw = w.take();
  // The state byte follows three strings; damage it by brute force: set
  // every byte to 0xEE in turn and require no decode ever yields a state
  // beyond kDelivered.
  for (std::size_t i = 0; i < raw.size(); ++i) {
    Bytes damaged = raw;
    damaged[i] = 0xEE;
    BufReader r(damaged);
    auto decoded = job::decode_job_record(r);
    if (decoded.ok()) {
      EXPECT_LE(static_cast<u8>(decoded.value().state),
                static_cast<u8>(proto::JobState::kDelivered));
    }
  }
}

TEST(JobQueueTest, EncodeRestorePreservesQueueAndIdCounter) {
  job::JobQueue queue;
  job::JobRecord a = sample_job();
  a.job_id = 0;
  (void)queue.add(a);  // becomes id 1, state kQueued
  job::JobRecord b = sample_job();
  b.job_id = 0;
  b.client_job_token = 8;
  const u64 id_b = queue.add(b);
  ASSERT_TRUE(queue.transition(id_b, proto::JobState::kRunning).ok());

  BufWriter w;
  queue.encode(w);
  BufReader r(w.data());
  auto restored = job::JobQueue::restore(r);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(restored.value().size(), 2u);
  ASSERT_TRUE(restored.value().find(id_b).ok());
  EXPECT_EQ(restored.value().find(id_b).value()->state,
            proto::JobState::kRunning);
  // The id counter survives: the next add must not reuse an id.
  job::JobRecord c = sample_job();
  c.job_id = 0;
  EXPECT_EQ(restored.value().add(c), 3u);
}

TEST(JobQueueTest, RestoreRecordIsInsertIfAbsent) {
  job::JobQueue queue;
  job::JobRecord snap = sample_job();
  snap.job_id = 5;
  snap.state = proto::JobState::kCompleted;
  queue.restore_record(snap);
  // A journal record older than the snapshot replays as a no-op.
  job::JobRecord stale = sample_job();
  stale.job_id = 5;
  stale.state = proto::JobState::kQueued;
  queue.restore_record(stale);
  ASSERT_TRUE(queue.find(5).ok());
  EXPECT_EQ(queue.find(5).value()->state, proto::JobState::kCompleted);
  // And the id counter moved past the restored id.
  job::JobRecord fresh = sample_job();
  fresh.job_id = 0;
  EXPECT_EQ(queue.add(fresh), 6u);
}

TEST(JobQueueTest, RequeueIsOnlyLegalFromRunning) {
  job::JobQueue queue;
  job::JobRecord a = sample_job();
  a.job_id = 0;
  a.retries = 0;
  const u64 id = queue.add(a);
  EXPECT_FALSE(queue.requeue(id, "x").ok()) << "kQueued is not an orphan";
  ASSERT_TRUE(queue.transition(id, proto::JobState::kRunning).ok());
  ASSERT_TRUE(queue.requeue(id, "re-queued after restart").ok());
  EXPECT_EQ(queue.find(id).value()->state, proto::JobState::kQueued);
  EXPECT_EQ(queue.find(id).value()->retries, 1u);
}

}  // namespace
}  // namespace shadow::persist
