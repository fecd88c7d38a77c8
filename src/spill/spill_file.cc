#include "spill/spill_file.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#if defined(__linux__)
#include <fcntl.h>
#endif

#include "common/check.h"
#include "common/fault_injection.h"
#include "spill/spill_manager.h"

namespace gmdj {
namespace spill {
namespace {

constexpr size_t kIoBufferBytes = 1u << 20;

Status ErrnoStatus(const char* op, const std::string& path) {
  const int err = errno;
  const std::string detail = std::string(op) + " " + path + ": " +
                             std::strerror(err);
  if (err == ENOSPC || err == EDQUOT) {
    return Status::ResourceExhausted("spill disk full: " + detail);
  }
  return Status::Internal("spill I/O failed: " + detail);
}

}  // namespace

// ---------------------------------------------------------------- SpillWriter

SpillWriter::SpillWriter(std::string path, std::FILE* file, size_t block_rows,
                         SpillScope* scope)
    : path_(std::move(path)),
      file_(file),
      io_buffer_(new char[kIoBufferBytes]),
      block_rows_(block_rows == 0 ? 1 : block_rows),
      scope_(scope) {
  std::setvbuf(file_, io_buffer_.get(), _IOFBF, kIoBufferBytes);
}

Result<std::unique_ptr<SpillWriter>> SpillWriter::Open(std::string path,
                                                       size_t block_rows,
                                                       SpillScope* scope) {
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("spill/open"));
  if (scope != nullptr) GMDJ_RETURN_IF_ERROR(scope->AcquireHandle());
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    if (scope != nullptr) scope->ReleaseHandle();
    return ErrnoStatus("open", path);
  }
  return std::unique_ptr<SpillWriter>(
      new SpillWriter(std::move(path), file, block_rows, scope));
}

SpillWriter::~SpillWriter() { Close(); }

void SpillWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
    if (scope_ != nullptr) scope_->ReleaseHandle();
  }
}

Status SpillWriter::AppendTable(const Table& table) {
  if (num_cols_ == 0) num_cols_ = table.num_columns();
  GMDJ_CHECK(table.num_columns() == num_cols_);
  for (size_t begin = 0; begin < table.num_rows(); begin += block_rows_) {
    Status gate = GMDJ_FAULT_POINT("spill/disk-full");
    if (gate.ok()) gate = GMDJ_FAULT_POINT("spill/write");
    GMDJ_RETURN_IF_ERROR(gate);
    GMDJ_RETURN_IF_ERROR(WriteTableRows(
        table, begin, std::min(block_rows_, table.num_rows() - begin)));
  }
  return Status::OK();
}

Status SpillWriter::WriteTableRows(const Table& table, size_t begin,
                                   size_t num_rows) {
  std::string block;
  const Status encoded = EncodeBlock(table, begin, num_rows, &block);
  if (!encoded.ok()) {
    if (num_rows <= 1) return encoded;
    const size_t half = num_rows / 2;
    GMDJ_RETURN_IF_ERROR(WriteTableRows(table, begin, half));
    return WriteTableRows(table, begin + half, num_rows - half);
  }
  return WriteEncoded(block, num_rows);
}

Status SpillWriter::WriteEncoded(const std::string& block, size_t num_rows) {
  GMDJ_CHECK(file_ != nullptr);
  if (scope_ != nullptr) {
    GMDJ_RETURN_IF_ERROR(scope_->ChargeBlock(block.size()));
  }
  if (std::fwrite(block.data(), 1, block.size(), file_) != block.size()) {
    return ErrnoStatus("write", path_);
  }
  bytes_written_ += block.size();
  blocks_written_ += 1;
  rows_written_ += num_rows;
  return Status::OK();
}

Status SpillWriter::Finish() {
  if (std::fflush(file_) != 0 || std::ferror(file_) != 0) {
    return ErrnoStatus("flush", path_);
  }
  return Status::OK();
}

// ---------------------------------------------------------------- SpillReader

SpillReader::SpillReader(std::string path, std::FILE* file, SpillScope* scope)
    : path_(std::move(path)),
      file_(file),
      io_buffer_(new char[kIoBufferBytes]),
      scope_(scope) {
  std::setvbuf(file_, io_buffer_.get(), _IOFBF, kIoBufferBytes);
#if defined(__linux__)
  // Spill files are consumed front to back exactly once: tell the kernel
  // so it reads ahead aggressively and drops pages behind the cursor.
  const int fd = fileno(file_);
  posix_fadvise(fd, 0, 0, POSIX_FADV_SEQUENTIAL);
  posix_fadvise(fd, 0, 0, POSIX_FADV_WILLNEED);
#endif
}

Result<std::unique_ptr<SpillReader>> SpillReader::Open(std::string path,
                                                       SpillScope* scope) {
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("spill/open"));
  if (scope != nullptr) GMDJ_RETURN_IF_ERROR(scope->AcquireHandle());
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (scope != nullptr) scope->ReleaseHandle();
    return ErrnoStatus("open", path);
  }
  return std::unique_ptr<SpillReader>(
      new SpillReader(std::move(path), file, scope));
}

SpillReader::~SpillReader() { Close(); }

void SpillReader::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
    if (scope_ != nullptr) scope_->ReleaseHandle();
  }
}

Status SpillReader::ReadRawBlock(BlockHeader* header, bool* eof) {
  *eof = false;
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("spill/read"));
  char header_bytes[kBlockHeaderSize];
  const size_t got = std::fread(header_bytes, 1, kBlockHeaderSize, file_);
  if (got == 0 && std::feof(file_)) {
    *eof = true;
    return Status::OK();
  }
  if (got != kBlockHeaderSize) {
    if (std::ferror(file_)) return ErrnoStatus("read", path_);
    return Status::Internal("spill file truncated mid-header: " + path_);
  }
  GMDJ_ASSIGN_OR_RETURN(*header, ParseBlockHeader(header_bytes));
  payload_.resize(header->payload_size);
  if (header->payload_size > 0 &&
      std::fread(payload_.data(), 1, header->payload_size, file_) !=
          header->payload_size) {
    if (std::ferror(file_)) return ErrnoStatus("read", path_);
    return Status::Internal("spill file truncated mid-block: " + path_);
  }
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("spill/checksum"));
  const uint64_t block_bytes = kBlockHeaderSize + header->payload_size;
  bytes_read_ += block_bytes;
  blocks_read_ += 1;
  if (scope_ != nullptr) scope_->NoteRead(block_bytes);
  return Status::OK();
}

Status SpillReader::ReadBlock(const Schema& schema, std::vector<Column>* out,
                              bool* eof) {
  BlockHeader header;
  GMDJ_RETURN_IF_ERROR(ReadRawBlock(&header, eof));
  if (*eof) return Status::OK();
  return DecodeBlockPayload(header, payload_.data(), schema, out);
}

Status SpillReader::ReadInto(Table* out) {
  std::vector<Column> block;
  while (true) {
    bool eof = false;
    GMDJ_RETURN_IF_ERROR(ReadBlock(out->schema(), &block, &eof));
    if (eof) return Status::OK();
    GMDJ_RETURN_IF_ERROR(out->AppendColumns(std::move(block)));
  }
}

}  // namespace spill
}  // namespace gmdj
