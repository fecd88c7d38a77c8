#include "spill/journal.h"

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault_injection.h"
#include "spill/spill_format.h"

namespace gmdj {
namespace spill {
namespace {

constexpr char kMagic[8] = {'G', 'M', 'D', 'J', 'W', 'A', 'L', '1'};
constexpr uint64_t kMagicSize = sizeof(kMagic);
// payload_size + checksum.
constexpr uint64_t kRecordHeaderSize = 4 + 8;
// Rows per SPB1 block inside a record; large appends split cleanly.
constexpr size_t kJournalBlockRows = 4096;
constexpr uint8_t kOpAppendRows = 1;
constexpr uint8_t kOpSnapshotMarker = 2;

Status ErrnoStatus(const char* op, const std::string& path) {
  const int err = errno;
  const std::string detail =
      std::string(op) + " " + path + ": " + std::strerror(err);
  if (err == ENOSPC || err == EDQUOT) {
    return Status::ResourceExhausted("journal disk full: " + detail);
  }
  return Status::Internal("journal I/O failed: " + detail);
}

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t GetU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", path);
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

// -------------------------------------------------------------- JournalWriter

JournalWriter::JournalWriter(std::string path, int fd, uint64_t bytes)
    : path_(std::move(path)), fd_(fd), bytes_(bytes) {}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::Open(
    std::string path, uint64_t valid_bytes) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return ErrnoStatus("open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = ErrnoStatus("stat", path);
    ::close(fd);
    return status;
  }
  uint64_t size = static_cast<uint64_t>(st.st_size);
  // A partial magic is a crash during creation: nothing was ever
  // acknowledged from this file, so start over.
  if (size < kMagicSize || valid_bytes < kMagicSize) valid_bytes = 0;
  if (valid_bytes == 0) {
    // Restarting is only safe when the file is empty, a torn partial
    // magic, or one of our own journals. A full-size file with foreign
    // bytes is somebody else's data: refuse rather than clobber it.
    if (size >= kMagicSize) {
      char magic[kMagicSize];
      if (::lseek(fd, 0, SEEK_SET) != 0 ||
          ::read(fd, magic, kMagicSize) != static_cast<ssize_t>(kMagicSize) ||
          std::memcmp(magic, kMagic, kMagicSize) != 0) {
        ::close(fd);
        return Status::DataLoss("not a gmdj journal: " + path);
      }
      // One of our journals, and it holds records. Truncating here would
      // silently erase durable, acknowledged mutations — a call site that
      // skipped ReplayJournal (or passed a stale 0) must hear about it.
      if (size > kMagicSize) {
        ::close(fd);
        return Status::InvalidArgument(
            "journal " + path + " holds " +
            std::to_string(size - kMagicSize) +
            " bytes of records; replay it first and pass the verified "
            "prefix (refusing to truncate acknowledged mutations)");
      }
    }
    if (::ftruncate(fd, 0) != 0 ||
        ::lseek(fd, 0, SEEK_SET) != 0) {
      const Status status = ErrnoStatus("truncate", path);
      ::close(fd);
      return status;
    }
    const Status written = WriteAll(fd, kMagic, kMagicSize, path);
    if (!written.ok()) {
      ::close(fd);
      return written;
    }
    if (::fsync(fd) != 0) {
      const Status status = ErrnoStatus("fsync", path);
      ::close(fd);
      return status;
    }
    return std::unique_ptr<JournalWriter>(
        new JournalWriter(std::move(path), fd, kMagicSize));
  }
  char magic[kMagicSize];
  if (::lseek(fd, 0, SEEK_SET) != 0 ||
      ::read(fd, magic, kMagicSize) != static_cast<ssize_t>(kMagicSize) ||
      std::memcmp(magic, kMagic, kMagicSize) != 0) {
    ::close(fd);
    return Status::DataLoss("not a gmdj journal: " + path);
  }
  if (valid_bytes > size) valid_bytes = size;
  // Drop any torn tail beyond the verified prefix before appending.
  if (valid_bytes < size && ::ftruncate(fd, valid_bytes) != 0) {
    const Status status = ErrnoStatus("truncate", path);
    ::close(fd);
    return status;
  }
  if (::lseek(fd, static_cast<off_t>(valid_bytes), SEEK_SET) < 0) {
    const Status status = ErrnoStatus("seek", path);
    ::close(fd);
    return status;
  }
  return std::unique_ptr<JournalWriter>(
      new JournalWriter(std::move(path), fd, valid_bytes));
}

Status JournalWriter::AppendRecord(const std::string& payload) {
  if (payload.size() > kMaxPayload) {
    return Status::ResourceExhausted("journal record exceeds format bound");
  }
  std::string record;
  record.reserve(kRecordHeaderSize + payload.size());
  PutU32(static_cast<uint32_t>(payload.size()), &record);
  PutU64(Fnv1a64(payload.data(), payload.size()), &record);
  record += payload;
  GMDJ_RETURN_IF_ERROR(WriteAll(fd_, record.data(), record.size(), path_));
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("journal/fsync"));
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
  bytes_ += record.size();
  return Status::OK();
}

Status JournalWriter::AppendRows(const std::string& table, const Table& rows) {
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("journal/append"));
  std::string payload;
  payload.push_back(static_cast<char>(kOpAppendRows));
  PutU32(static_cast<uint32_t>(table.size()), &payload);
  payload += table;
  const size_t n = rows.num_rows();
  for (size_t off = 0; off < n; off += kJournalBlockRows) {
    GMDJ_RETURN_IF_ERROR(EncodeBlock(
        rows, off, std::min(kJournalBlockRows, n - off), &payload));
  }
  return AppendRecord(payload);
}

Status JournalWriter::AppendSnapshotMarker(uint64_t snapshot_id) {
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("journal/marker"));
  std::string payload;
  payload.push_back(static_cast<char>(kOpSnapshotMarker));
  PutU64(snapshot_id, &payload);
  return AppendRecord(payload);
}

Status JournalWriter::Truncate() {
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("journal/truncate"));
  if (::ftruncate(fd_, static_cast<off_t>(kMagicSize)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(kMagicSize), SEEK_SET) < 0) {
    return ErrnoStatus("truncate", path_);
  }
  if (::fsync(fd_) != 0) return ErrnoStatus("fsync", path_);
  bytes_ = kMagicSize;
  return Status::OK();
}

// -------------------------------------------------------------- ReplayJournal

namespace {

/// One SPB1 block of a record, pointing into the journal bytes.
struct RawBlock {
  BlockHeader header;
  const char* payload = nullptr;
};

struct PendingMutation {
  std::string table;
  std::vector<RawBlock> blocks;
  size_t num_cols = 0;
  // SnapshotMarker records carry only an id; they stage no rows.
  bool is_marker = false;
  uint64_t marker_id = 0;
};

// Parses one checksummed payload into a staged mutation (or marker),
// checking every block's frame and checksum; the blocks are decoded only
// once replay knows which records the restored snapshot already covers.
Status ParsePayload(const char* data, size_t size, PendingMutation* out) {
  size_t pos = 0;
  if (size < 1) return Status::DataLoss("journal record too short");
  const uint8_t op = static_cast<uint8_t>(data[pos++]);
  if (op == kOpSnapshotMarker) {
    if (size != 1 + 8) {
      return Status::DataLoss("journal snapshot marker has bad size " +
                              std::to_string(size));
    }
    out->is_marker = true;
    out->marker_id = GetU64(data + pos);
    return Status::OK();
  }
  if (op != kOpAppendRows) {
    return Status::DataLoss("journal record has unknown op " +
                            std::to_string(op));
  }
  if (size < 1 + 4) return Status::DataLoss("journal record too short");
  const uint32_t name_len = GetU32(data + pos);
  pos += 4;
  if (name_len > size - pos) {
    return Status::DataLoss("journal record table name overruns payload");
  }
  out->table.assign(data + pos, name_len);
  pos += name_len;
  while (pos < size) {
    if (size - pos < kBlockHeaderSize) {
      return Status::DataLoss("journal record block header truncated");
    }
    GMDJ_ASSIGN_OR_RETURN(const BlockHeader header,
                          ParseBlockHeader(data + pos));
    pos += kBlockHeaderSize;
    if (header.payload_size > size - pos) {
      return Status::DataLoss("journal record block overruns payload");
    }
    if (out->num_cols == 0) out->num_cols = header.num_cols;
    if (header.num_cols != out->num_cols) {
      return Status::DataLoss("journal record mixes row widths");
    }
    if (Fnv1a64(data + pos, header.payload_size) != header.checksum) {
      return Status::DataLoss(
          "journal record block corrupt: spill block checksum mismatch");
    }
    out->blocks.push_back(RawBlock{header, data + pos});
    pos += header.payload_size;
  }
  return Status::OK();
}

}  // namespace

Result<JournalReplayStats> ReplayJournal(const std::string& path,
                                         Catalog* catalog,
                                         uint64_t restored_snapshot_id) {
  JournalReplayStats stats;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return stats;  // No journal yet: nothing to replay.
    return ErrnoStatus("open", path);
  }
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = ErrnoStatus("read", path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    bytes.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  if (bytes.empty()) return stats;  // Created but never written: empty.
  if (bytes.size() < kMagicSize) {
    // Crash mid-creation; no record was ever acknowledged.
    stats.torn_bytes = bytes.size();
    return stats;
  }
  if (std::memcmp(bytes.data(), kMagic, kMagicSize) != 0) {
    return Status::DataLoss("not a gmdj journal: " + path);
  }

  std::vector<PendingMutation> staged;
  size_t pos = kMagicSize;
  uint64_t valid = kMagicSize;
  while (pos < bytes.size()) {
    const size_t remaining = bytes.size() - pos;
    if (remaining < kRecordHeaderSize) break;  // Torn header.
    const uint32_t payload_size = GetU32(bytes.data() + pos);
    const uint64_t checksum = GetU64(bytes.data() + pos + 4);
    // An implausible size field at the tail is a torn length write; the
    // same bytes mid-file would also fail the next record's parse, so
    // treat both as the end of the good prefix.
    if (payload_size > kMaxPayload) break;
    if (remaining - kRecordHeaderSize < payload_size) break;  // Torn body.
    const char* payload = bytes.data() + pos + kRecordHeaderSize;
    if (Fnv1a64(payload, payload_size) != checksum) {
      if (pos + kRecordHeaderSize + payload_size == bytes.size()) {
        break;  // Interrupted final append: drop it.
      }
      return Status::DataLoss("journal checksum mismatch mid-file at byte " +
                              std::to_string(pos) + ": " + path);
    }
    PendingMutation mutation;
    GMDJ_RETURN_IF_ERROR(ParsePayload(payload, payload_size, &mutation));
    staged.push_back(std::move(mutation));
    pos += kRecordHeaderSize + payload_size;
    valid = pos;
  }
  stats.valid_bytes = valid;
  stats.torn_bytes = bytes.size() - valid;

  // The restored snapshot already contains every mutation before its own
  // marker (the marker is appended before the snapshot publishes, and
  // both cover the same exclusive-lock window) — re-applying them would
  // duplicate acknowledged rows after a crash between snapshot publish
  // and journal truncation. Markers for other ids belong to snapshots
  // that never published; they skip nothing.
  size_t first_uncovered = 0;
  if (restored_snapshot_id != 0) {
    for (size_t i = 0; i < staged.size(); ++i) {
      if (staged[i].is_marker && staged[i].marker_id == restored_snapshot_id) {
        first_uncovered = i + 1;
      }
    }
    for (size_t i = 0; i < first_uncovered; ++i) {
      if (!staged[i].is_marker) ++stats.records_skipped;
    }
  }

  // Decode every staged mutation into its table's typed columns before
  // applying any, so a bad record never leaves a half-replayed catalog.
  // Skipped records are not decoded: they describe the pre-snapshot
  // catalog.
  std::vector<std::vector<std::vector<Column>>> decoded(staged.size());
  for (size_t i = first_uncovered; i < staged.size(); ++i) {
    const PendingMutation& mutation = staged[i];
    if (mutation.is_marker) continue;
    const Result<const Table*> table = catalog->GetTable(mutation.table);
    if (!table.ok()) {
      return Status::DataLoss("journal references unknown table '" +
                              mutation.table + "' (snapshot mismatch?)");
    }
    const Schema& schema = (*table)->schema();
    if (!mutation.blocks.empty() && mutation.num_cols != schema.num_fields()) {
      return Status::DataLoss("journal rows for '" + mutation.table +
                              "' have width " +
                              std::to_string(mutation.num_cols) +
                              ", table has " +
                              std::to_string(schema.num_fields()));
    }
    for (const RawBlock& block : mutation.blocks) {
      std::vector<Column>& columns = decoded[i].emplace_back();
      const Status typed =
          DecodeBlockPayload(block.header, block.payload, schema, &columns);
      if (!typed.ok()) {
        return Status::DataLoss("journal rows for '" + mutation.table +
                                "' do not fit the table: " + typed.message());
      }
    }
  }
  for (size_t i = first_uncovered; i < staged.size(); ++i) {
    const PendingMutation& mutation = staged[i];
    if (mutation.is_marker) continue;
    GMDJ_ASSIGN_OR_RETURN(Table * table,
                          catalog->GetMutableTable(mutation.table));
    // Each record's columns are appended and released at once.
    for (std::vector<Column>& columns : std::exchange(decoded[i], {})) {
      stats.rows_applied += columns.empty() ? 0 : columns[0].size();
      GMDJ_RETURN_IF_ERROR(table->AppendColumns(std::move(columns)));
    }
    ++stats.records_applied;
  }
  return stats;
}

}  // namespace spill
}  // namespace gmdj
