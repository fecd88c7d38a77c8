// Spill block format: self-describing, checksummed columnar blocks
// (spill_format.h). Round-trips every value type and null pattern, and
// corruption anywhere in the block must be detected, never decoded.

#include "spill/spill_format.h"

#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "test_util.h"
#include "types/value.h"

namespace gmdj {
namespace spill {
namespace {

using testutil::MakeTable;

/// `table`'s rows encoded as one block.
std::string Encode(const Table& table) {
  std::string block;
  const Status encoded = EncodeBlock(table, 0, table.num_rows(), &block);
  EXPECT_TRUE(encoded.ok()) << encoded.ToString();
  return block;
}

/// Decodes `block` (header included) into typed columns of `schema`.
Status Decode(const std::string& block, const Schema& schema,
              std::vector<Column>* out) {
  GMDJ_ASSIGN_OR_RETURN(const BlockHeader header,
                        ParseBlockHeader(block.data()));
  return DecodeBlockPayload(header, block.data() + kBlockHeaderSize, schema,
                            out);
}

/// Encodes `table` as one block and decodes it back under its schema.
std::vector<Row> RoundTrip(const Table& table) {
  const std::string block = Encode(table);
  EXPECT_GE(block.size(), kBlockHeaderSize);
  auto header = ParseBlockHeader(block.data());
  EXPECT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->num_rows, table.num_rows());
  EXPECT_EQ(header->num_cols, table.num_columns());
  EXPECT_EQ(kBlockHeaderSize + header->payload_size, block.size());
  std::vector<Column> columns;
  const Status status = Decode(block, table.schema(), &columns);
  EXPECT_TRUE(status.ok()) << status.ToString();
  Result<Table> out = Table::FromColumns(table.schema(), std::move(columns));
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? std::vector<Row>(out->rows()) : std::vector<Row>();
}

void ExpectSameRows(const std::vector<Row>& actual,
                    const std::vector<Row>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i].size(), expected[i].size()) << "row " << i;
    for (size_t c = 0; c < expected[i].size(); ++c) {
      if (expected[i][c].is_null()) {
        EXPECT_TRUE(actual[i][c].is_null()) << "row " << i << " col " << c;
      } else {
        // Type equality too: Value::Compare treats 1 and 1.0 as equal,
        // but the format must preserve the stored type exactly.
        EXPECT_EQ(static_cast<int>(actual[i][c].type()),
                  static_cast<int>(expected[i][c].type()))
            << "row " << i << " col " << c;
        EXPECT_TRUE(actual[i][c] == expected[i][c])
            << "row " << i << " col " << c << ": "
            << actual[i][c].ToString() << " vs " << expected[i][c].ToString();
      }
    }
  }
}

TEST(SpillFormatTest, RoundTripsMixedTypesAndNulls) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 100; ++i) {
    Row row;
    row.push_back(Value(i - 50));  // Negative int64s exercise zigzag.
    row.push_back(i % 7 == 0 ? Value::Null() : Value(0.5 * i));
    row.push_back(Value("name-" + std::to_string(i % 3)));
    rows.push_back(std::move(row));
  }
  ExpectSameRows(RoundTrip(MakeTable({"a", "b:d", "c:s"}, rows)), rows);
}

TEST(SpillFormatTest, EmptyBlockAndEmptyStrings) {
  ExpectSameRows(RoundTrip(MakeTable({"a:s", "b:s"}, {})), {});
  std::vector<Row> rows = {{Value(""), Value::Null()},
                           {Value(""), Value("x")}};
  ExpectSameRows(RoundTrip(MakeTable({"a:s", "b:s"}, rows)), rows);
}

TEST(SpillFormatTest, AllNullColumn) {
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({Value::Null(), Value(1)});
  ExpectSameRows(RoundTrip(MakeTable({"a", "b"}, rows)), rows);
}

TEST(SpillFormatTest, LowCardinalityCompresses) {
  // 4096 rows, 3 distinct strings: the dictionary (or RLE) encoding must
  // beat raw by a wide margin.
  std::vector<Row> rows;
  const std::string names[3] = {"alpha", "beta", "gamma"};
  size_t raw_bytes = 0;
  for (int i = 0; i < 4096; ++i) {
    rows.push_back({Value(names[i % 3])});
    raw_bytes += names[i % 3].size() + 1;
  }
  const Table table = MakeTable({"a:s"}, rows);
  EXPECT_LT(Encode(table).size(), raw_bytes / 2)
      << "low-cardinality column did not compress";
  ExpectSameRows(RoundTrip(table), rows);
}

TEST(SpillFormatTest, RunsCompress) {
  // 256 distinct values (one past the dictionary's 255-entry budget) in
  // runs of 16: the encoder must fall through to RLE, far below a byte
  // per row.
  std::vector<Row> rows;
  for (int i = 0; i < 4096; ++i) rows.push_back({Value(int64_t{i / 16})});
  const Table table = MakeTable({"a"}, rows);
  EXPECT_LT(Encode(table).size(), rows.size() / 2);
  ExpectSameRows(RoundTrip(table), rows);
}

/// A one-column block of the decode-only kTagged encoding, as blocks
/// written before table columns were typed hold it: `values` in rows
/// 0.., then one NULL row.
std::string TaggedBlock(const std::vector<Value>& values) {
  const size_t num_rows = values.size() + 1;
  std::string payload((num_rows + 7) / 8, '\0');  // Null bitmap.
  for (size_t i = 0; i < values.size(); ++i) {
    payload[i / 8] = static_cast<char>(payload[i / 8] | (1 << (i % 8)));
  }
  payload.push_back(static_cast<char>(ColumnEncoding::kTagged));
  for (const Value& v : values) {
    payload.push_back(static_cast<char>(v.type()));
    if (v.type() == ValueType::kInt64) {
      payload.push_back(static_cast<char>(v.int64() << 1));  // Zigzag, small.
    } else {
      const double d = v.dbl();
      char bits[8];
      std::memcpy(bits, &d, 8);  // Little-endian host.
      payload.append(bits, 8);
    }
  }
  std::string block(kBlockMagic, 4);
  const auto put_u32 = [&block](uint32_t v) {
    for (int i = 0; i < 4; ++i) block.push_back(static_cast<char>(v >> (8 * i)));
  };
  put_u32(static_cast<uint32_t>(num_rows));
  put_u32(1);
  put_u32(static_cast<uint32_t>(payload.size()));
  const uint64_t checksum = Fnv1a64(payload.data(), payload.size());
  for (int i = 0; i < 8; ++i) block.push_back(static_cast<char>(checksum >> (8 * i)));
  return block + payload;
}

TEST(SpillFormatTest, TaggedColumnDecodesIntoTypedColumn) {
  // The encoder no longer emits kTagged (a typed column never mixes
  // types), but the decoder still reads it: an int64 and a double into a
  // DOUBLE column widen the int64...
  std::vector<Column> columns;
  const Status widened =
      Decode(TaggedBlock({Value(int64_t{1}), Value(2.5)}),
             MakeTable({"a:d"}, {}).schema(), &columns);
  ASSERT_TRUE(widened.ok()) << widened.ToString();
  ASSERT_EQ(columns.size(), 1u);
  ASSERT_EQ(columns[0].size(), 3u);
  EXPECT_EQ(columns[0].dbl(0), 1.0);
  EXPECT_EQ(columns[0].dbl(1), 2.5);
  EXPECT_TRUE(columns[0].is_null(2));
  // ...and a double into an INT64 column is refused.
  const Status refused = Decode(TaggedBlock({Value(int64_t{1}), Value(2.5)}),
                                MakeTable({"a"}, {}).schema(), &columns);
  EXPECT_EQ(refused.code(), StatusCode::kInternal) << refused.ToString();
}

TEST(SpillFormatTest, BadMagicRejected) {
  std::string block = Encode(MakeTable({"a"}, {{Value(1)}, {Value(2)}}));
  block[0] = 'X';
  EXPECT_FALSE(ParseBlockHeader(block.data()).ok());
}

TEST(SpillFormatTest, CorruptionAnywhereIsDetected) {
  std::vector<Row> rows;
  for (int64_t i = 0; i < 64; ++i) {
    rows.push_back({Value(i), Value("payload-" + std::to_string(i))});
  }
  const Table table = MakeTable({"a", "b:s"}, rows);
  const std::string block = Encode(table);
  // Flip one byte at a time across the payload; every corruption must be
  // caught by the checksum (the header keeps its own plausibility check).
  for (size_t at = kBlockHeaderSize; at < block.size(); at += 7) {
    std::string corrupt = block;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x40);
    ASSERT_TRUE(ParseBlockHeader(corrupt.data()).ok());
    std::vector<Column> out;
    EXPECT_FALSE(Decode(corrupt, table.schema(), &out).ok())
        << "flipped byte at " << at << " went undetected";
  }
}

TEST(SpillFormatTest, TruncatedGeometryRejected) {
  const std::string block = Encode(MakeTable({"a"}, {{Value(1)}}));
  // An absurd row count must fail header plausibility, not allocate.
  std::string corrupt = block;
  corrupt[4] = '\xff';
  corrupt[5] = '\xff';
  corrupt[6] = '\xff';
  corrupt[7] = '\xff';
  EXPECT_FALSE(ParseBlockHeader(corrupt.data()).ok());
}

TEST(SpillFormatTest, OversizeGeometryRefusedAtEncode) {
  // Write-side enforcement mirrors the read-side plausibility check: a
  // block the header cannot represent must fail at encode time, leaving
  // `out` untouched, instead of emitting bytes that can never be read.
  Schema wide;
  for (size_t c = 0; c <= kMaxBlockCols; ++c) {
    wide.AddField(Field{std::to_string(c), ValueType::kInt64, "t"});
  }
  std::string block;
  EXPECT_FALSE(EncodeBlock(Table(wide), 0, 0, &block).ok());
  EXPECT_TRUE(block.empty());
}

TEST(SpillFormatTest, RleRunLengthOverflowRejected) {
  // Hand-craft an RLE column whose second run length is close to 2^64:
  // after the first run fills the column, `values.size() + len` wraps to
  // 0 and a sum-form guard would pass it, driving push_backs until
  // memory exhaustion. The guard must be wrap-proof. The checksum is
  // valid (it is not keyed), so only the guard stands in the way.
  std::string payload;
  payload.push_back('\xff');  // Null bitmap: 8 rows, all non-null.
  payload.push_back(static_cast<char>(ColumnEncoding::kRle));
  payload.push_back(static_cast<char>(ValueType::kInt64));
  auto put_varint = [&payload](uint64_t v) {
    while (v >= 0x80) {
      payload.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    payload.push_back(static_cast<char>(v));
  };
  put_varint(2);                       // Two runs.
  put_varint(0);                       // Run 1 value: zigzag(0).
  put_varint(8);                       // Run 1 fills the column.
  put_varint(0);                       // Run 2 value.
  put_varint(0xFFFFFFFFFFFFFFF8ull);   // Run 2 length: 8 + len wraps to 0.
  BlockHeader header;
  header.num_rows = 8;
  header.num_cols = 1;
  header.payload_size = static_cast<uint32_t>(payload.size());
  header.checksum = Fnv1a64(payload.data(), payload.size());
  std::vector<Column> out;
  EXPECT_FALSE(DecodeBlockPayload(header, payload.data(),
                                  MakeTable({"a"}, {}).schema(), &out)
                   .ok());
}

TEST(Fnv1aTest, KnownVector) {
  // FNV-1a 64-bit test vector: fnv1a("") = offset basis.
  EXPECT_EQ(Fnv1a64("", 0), 14695981039346656037ull);
  EXPECT_NE(Fnv1a64("a", 1), Fnv1a64("b", 1));
}

}  // namespace
}  // namespace spill
}  // namespace gmdj
