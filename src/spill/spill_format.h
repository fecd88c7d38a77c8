#ifndef GMDJ_SPILL_SPILL_FORMAT_H_
#define GMDJ_SPILL_SPILL_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace gmdj {
namespace spill {

/// Typed columnar spill-block format, shared by spill files and catalog
/// snapshots. A block is self-describing (no external schema needed to
/// decode) and checksummed:
///
///   "SPB1" | u32 num_rows | u32 num_cols | u32 payload_size
///         | u64 fnv1a(payload) | payload
///
/// The payload holds the columns in order. Each column is a null bitmap
/// (bit set = non-null) followed by an encoding tag and the non-null
/// values in row order:
///
///   kRaw:    type byte, then each value (int64 zigzag-varint, double
///            8-byte little-endian bits, string varint length + bytes).
///   kDict:   type byte, u8 dictionary size, the dictionary values (raw
///            scalars), then one u8 index per non-null value. Chosen when
///            a block column has <= 255 distinct values covering at most
///            half the non-null count.
///   kRle:    type byte, varint run count, then (scalar, varint length)
///            runs. Chosen when adjacent repetition halves the value
///            count and the dictionary did not already win.
///   kTagged: per value, a type byte then the raw scalar. Decode only:
///            it was the encoder's fallback for columns whose values mixed
///            types, which a typed table column can no longer hold, and
///            journals written before columns were typed still carry it.
///
/// The encoding is chosen per column per block, so a sorted or
/// low-cardinality stretch compresses even when the whole file does not.
inline constexpr size_t kBlockHeaderSize = 24;
inline constexpr char kBlockMagic[4] = {'S', 'P', 'B', '1'};

/// Format bounds, enforced symmetrically: EncodeBlock refuses to emit a
/// block that exceeds them (so oversize data fails loudly at write time,
/// and a u32 payload_size can never silently wrap), and ParseBlockHeader
/// refuses to read one (so a corrupted header fails cleanly instead of
/// driving a huge allocation).
inline constexpr uint32_t kMaxBlockRows = 1u << 24;
inline constexpr uint32_t kMaxBlockCols = 1u << 16;
inline constexpr uint32_t kMaxPayload = 1u << 30;

enum class ColumnEncoding : uint8_t {
  kRaw = 0,
  kDict = 1,
  kRle = 2,
  kTagged = 3,
};

/// FNV-1a over `size` bytes.
uint64_t Fnv1a64(const char* data, size_t size);

struct BlockHeader {
  uint32_t num_rows = 0;
  uint32_t num_cols = 0;
  uint32_t payload_size = 0;
  uint64_t checksum = 0;
};

/// Encodes rows [begin, begin + num_rows) of `table` as one block appended
/// to `out`, reading its columns in place. ResourceExhausted (with `out`
/// unchanged) when the block would exceed a format bound (kMaxPayload /
/// kMaxBlockRows / kMaxBlockCols); callers split the rows across smaller
/// blocks (SpillWriter does) or surface the oversize row.
Status EncodeBlock(const Table& table, size_t begin, size_t num_rows,
                   std::string* out);

/// Parses a header from `bytes` (kBlockHeaderSize bytes). Internal on a
/// bad magic or an implausible geometry.
Result<BlockHeader> ParseBlockHeader(const char* bytes);

/// Verifies the checksum and decodes a block straight into `out`: one
/// typed column per field of `schema` (replacing its contents). Internal
/// on checksum mismatch, a malformed payload, and when the block's width
/// or a value's type does not fit `schema` (an int64 widens into a double
/// column).
Status DecodeBlockPayload(const BlockHeader& header, const char* payload,
                          const Schema& schema, std::vector<Column>* out);

}  // namespace spill
}  // namespace gmdj

#endif  // GMDJ_SPILL_SPILL_FORMAT_H_
