#ifndef GMDJ_SPILL_JOURNAL_H_
#define GMDJ_SPILL_JOURNAL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/catalog.h"
#include "storage/table.h"

namespace gmdj {
namespace spill {

/// Append-only catalog mutation journal (write-ahead log).
///
/// Snapshots capture the catalog at a point in time; the journal covers
/// the gap after it. Every mutation is appended (and fsynced) *before*
/// it is applied in memory, so an acknowledged mutation survives a crash:
/// `gmdj_serve --restore=<snapshot> --journal=<file>` replays the journal
/// on top of the snapshot and lands on exactly the acknowledged state.
/// Taking a snapshot truncates the journal (its mutations are now in the
/// snapshot), keeping replay time bounded.
///
/// File layout:
///
///   "GMDJWAL1" | record*
///   record := u32 payload_size | u64 fnv1a(payload) | payload
///   payload := append_rows | snapshot_marker
///   append_rows := u8 op(1) | u32 name_len | name
///                | SPB1 block+      (same encoder as spill/snapshot)
///   snapshot_marker := u8 op(2) | u64 snapshot_id
///
/// Integers are little-endian. Recovery is torn-tail tolerant: a record
/// that extends past EOF, or whose checksum fails *at* EOF, is an
/// interrupted append of an unacknowledged mutation — it is dropped and
/// the file truncated to the good prefix. A checksum failure with more
/// records after it means the middle of the log rotted, and replay
/// refuses with typed kDataLoss rather than guessing.
///
/// SnapshotMarker records make replay idempotent across snapshots. A
/// save appends (and fsyncs) a marker carrying the snapshot's unique id
/// *before* publishing the snapshot, and truncates the journal only
/// after the publish lands; the snapshot MANIFEST records the same id.
/// Replay on top of a restored snapshot skips every mutation before the
/// last marker matching that snapshot's id — so a crash (or truncate
/// failure) anywhere between marker, publish, and truncate still
/// replays to exactly the acknowledged state, never duplicating rows
/// the snapshot already holds. A marker whose snapshot never published
/// is ignored (the restored snapshot carries a different id).
class JournalWriter {
 public:
  /// Opens (or creates) the journal at `path` for appending.
  /// `valid_bytes` is the verified good prefix from ReplayJournal — the
  /// file is truncated to it before appending (0 for a fresh file, in
  /// which case the magic is written). Refuses a file whose header is
  /// not the journal magic, and refuses `valid_bytes == 0` against a
  /// journal that still holds records (InvalidArgument: run
  /// ReplayJournal first) — erasing acknowledged mutations must never
  /// be one stale argument away.
  static Result<std::unique_ptr<JournalWriter>> Open(std::string path,
                                                     uint64_t valid_bytes);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one AppendRows record (the rows of `rows`, staged as typed
  /// columns under table `table`'s schema) and fsyncs. The caller applies
  /// the mutation in memory only after this returns OK — on failure the
  /// journal may hold a torn tail, which recovery drops.
  Status AppendRows(const std::string& table, const Table& rows);

  /// Appends one SnapshotMarker record carrying `snapshot_id` and
  /// fsyncs. Called *before* the snapshot with that id publishes; see
  /// the class comment for the recovery protocol.
  Status AppendSnapshotMarker(uint64_t snapshot_id);

  /// Truncates the journal back to just the magic (after a successful
  /// snapshot made its records redundant) and fsyncs.
  Status Truncate();

  const std::string& path() const { return path_; }
  /// Current journal size in bytes (magic included).
  uint64_t bytes() const { return bytes_; }

 private:
  JournalWriter(std::string path, int fd, uint64_t bytes);

  /// Frames `payload` (size + FNV-1a checksum), writes it, and fsyncs.
  Status AppendRecord(const std::string& payload);

  std::string path_;
  int fd_;
  uint64_t bytes_;
};

struct JournalReplayStats {
  uint64_t records_applied = 0;
  uint64_t rows_applied = 0;
  /// Mutation records skipped because the restored snapshot already
  /// covers them (they precede its SnapshotMarker).
  uint64_t records_skipped = 0;
  /// Length of the verified prefix — pass to JournalWriter::Open.
  uint64_t valid_bytes = 0;
  /// Trailing bytes dropped as a torn (interrupted) append.
  uint64_t torn_bytes = 0;
};

/// Replays every intact record in `path` against `catalog`. Every record
/// to apply is decoded into typed columns of its table before any is
/// applied, so a mid-file kDataLoss or a record that does not fit its
/// table never leaves a half-replayed catalog. A missing file is an empty journal. Returns
/// kDataLoss for mid-file corruption, an unknown op, or a record naming
/// a table the catalog does not hold (snapshot/journal mismatch).
///
/// `restored_snapshot_id` is the id of the snapshot the catalog was just
/// restored from (0 = none): mutations before the last SnapshotMarker
/// carrying that id are already inside the snapshot and are skipped, not
/// re-applied. Markers for other ids (snapshots that never published)
/// are ignored.
Result<JournalReplayStats> ReplayJournal(const std::string& path,
                                         Catalog* catalog,
                                         uint64_t restored_snapshot_id = 0);

}  // namespace spill
}  // namespace gmdj

#endif  // GMDJ_SPILL_JOURNAL_H_
