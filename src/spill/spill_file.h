#ifndef GMDJ_SPILL_SPILL_FILE_H_
#define GMDJ_SPILL_SPILL_FILE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "spill/spill_format.h"
#include "storage/table.h"

namespace gmdj {
namespace spill {

class SpillScope;

/// Sequential block writer over one spill file. Tables are encoded from
/// their columns in blocks of `block_rows` rows (spill_format.h) and
/// written sequentially through a megabyte-sized stdio buffer.
/// When attached to a SpillScope the writer draws a file handle from the
/// manager's handle budget, charges every block against the spill byte
/// budget, and feeds the `spill.*` metrics; a null scope (snapshots) does
/// plain file I/O.
///
/// Fault sites: "spill/open", "spill/write", "spill/disk-full". A real
/// ENOSPC surfaces as ResourceExhausted, same as an armed disk-full site.
class SpillWriter {
 public:
  static Result<std::unique_ptr<SpillWriter>> Open(std::string path,
                                                   size_t block_rows,
                                                   SpillScope* scope);
  ~SpillWriter();
  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// Writes every row of `table` in blocks of `block_rows`, encoded from
  /// its columns in place. Every table must have the width of the first.
  Status AppendTable(const Table& table);

  /// fflush + stream error check. Must be called before reading the file
  /// back; the destructor only closes.
  Status Finish();

  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t blocks_written() const { return blocks_written_; }
  uint64_t rows_written() const { return rows_written_; }
  const std::string& path() const { return path_; }

 private:
  SpillWriter(std::string path, std::FILE* file, size_t block_rows,
              SpillScope* scope);
  /// Encodes and writes rows [begin, begin + num_rows) of `table`, halving
  /// the range when the encoded block would exceed a format bound
  /// (kMaxPayload — e.g. a few thousand rows of very large strings). A
  /// single row that still exceeds the cap is a hard error.
  Status WriteTableRows(const Table& table, size_t begin, size_t num_rows);
  /// Writes one encoded block of `num_rows` rows.
  Status WriteEncoded(const std::string& block, size_t num_rows);
  void Close();

  std::string path_;
  std::FILE* file_;
  std::unique_ptr<char[]> io_buffer_;
  size_t block_rows_;
  size_t num_cols_ = 0;
  SpillScope* scope_;
  uint64_t bytes_written_ = 0;
  uint64_t blocks_written_ = 0;
  uint64_t rows_written_ = 0;
};

/// Sequential block reader over a finished spill file. Open advises the
/// kernel the read is sequential (posix_fadvise read-ahead) and streams
/// blocks through the same large stdio buffer; every block's checksum is
/// verified before its columns are returned.
///
/// Fault sites: "spill/read", "spill/checksum".
class SpillReader {
 public:
  static Result<std::unique_ptr<SpillReader>> Open(std::string path,
                                                   SpillScope* scope);
  ~SpillReader();
  SpillReader(const SpillReader&) = delete;
  SpillReader& operator=(const SpillReader&) = delete;

  /// Decodes the next block into `out`, one typed column per field of
  /// `schema` (replacing its contents); sets `*eof` (and leaves `out`
  /// alone) at end of file. Internal when the block does not fit `schema`.
  Status ReadBlock(const Schema& schema, std::vector<Column>* out, bool* eof);

  /// Reads every remaining block straight into `out`'s columns, which
  /// must match the blocks' width and value types.
  Status ReadInto(Table* out);

  uint64_t bytes_read() const { return bytes_read_; }
  uint64_t blocks_read() const { return blocks_read_; }
  const std::string& path() const { return path_; }

 private:
  SpillReader(std::string path, std::FILE* file, SpillScope* scope);
  void Close();
  /// Reads the next block's header and verified-size payload into
  /// `payload_`; `*eof` at end of file.
  Status ReadRawBlock(BlockHeader* header, bool* eof);

  std::string path_;
  std::FILE* file_;
  std::unique_ptr<char[]> io_buffer_;
  SpillScope* scope_;
  std::string payload_;  // Reused per-block payload buffer.
  uint64_t bytes_read_ = 0;
  uint64_t blocks_read_ = 0;
};

}  // namespace spill
}  // namespace gmdj

#endif  // GMDJ_SPILL_SPILL_FILE_H_
