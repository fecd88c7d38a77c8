#ifndef GMDJ_TESTS_SPILL_STRING_GOLDEN_H_
#define GMDJ_TESTS_SPILL_STRING_GOLDEN_H_

// Golden on-disk bytes of one small table with string columns, written by
// the engine before string columns moved to a byte arena. The SPB1 block,
// the journal record and the snapshot files must stay byte-identical, and
// files written by the older layout must still restore.

#include <cstdint>
#include <string>

#include "gtest/gtest.h"
#include "storage/table.h"
#include "types/schema.h"

namespace gmdj {
namespace spill {
namespace golden {

/// The 20-byte string of row 2.
inline const std::string& TwentyBytes() {
  static const std::string s = "abcdefghijklmnopqrst";
  return s;
}

/// Table "g" (s STRING, p STRING, k INT64), six rows:
///   s: NULL, '', 20 bytes, "a\0b", '', NULL   (raw encoding)
///   p: a, a, b, a, a, a                       (dictionary encoding)
///   k: 1..6                                   (raw encoding)
inline Table StringTable() {
  Schema schema;
  schema.AddField(Field{"s", ValueType::kString, "g"});
  schema.AddField(Field{"p", ValueType::kString, "g"});
  schema.AddField(Field{"k", ValueType::kInt64, "g"});
  Table t(schema);
  const Value s[6] = {Value::Null(),
                      Value(""),
                      Value(TwentyBytes()),
                      Value(std::string("a\0b", 3)),
                      Value(""),
                      Value::Null()};
  const char* p[6] = {"a", "a", "b", "a", "a", "a"};
  for (int i = 0; i < 6; ++i) {
    const Status appended =
        t.AppendRow({s[i], Value(p[i]), Value(int64_t{i + 1})});
    if (!appended.ok()) return Table(schema);
  }
  return t;
}

/// EncodeBlock(StringTable(), 0, 6): also the snapshot's t0.tbl.
inline const unsigned char kBlock[] = {
    0x53, 0x50, 0x42, 0x31, 0x06, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x35, 0x00, 0x00, 0x00, 0xd1, 0x07, 0x8a, 0x88, 0x47, 0x14, 0x31, 0x9e,
    0x1e, 0x00, 0x03, 0x00, 0x14, 0x61, 0x62, 0x63, 0x64, 0x65, 0x66, 0x67,
    0x68, 0x69, 0x6a, 0x6b, 0x6c, 0x6d, 0x6e, 0x6f, 0x70, 0x71, 0x72, 0x73,
    0x74, 0x03, 0x61, 0x00, 0x62, 0x00, 0x3f, 0x01, 0x03, 0x02, 0x01, 0x61,
    0x01, 0x62, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x3f, 0x00, 0x01, 0x02,
    0x04, 0x06, 0x08, 0x0a, 0x0c};
static_assert(sizeof(kBlock) == 77);

/// A fresh journal after AppendRows("g", StringTable()).
inline const unsigned char kJournal[] = {
    0x47, 0x4d, 0x44, 0x4a, 0x57, 0x41, 0x4c, 0x31, 0x53, 0x00, 0x00, 0x00,
    0xd8, 0xf2, 0xd2, 0x7e, 0x1e, 0x73, 0xdf, 0x97, 0x01, 0x01, 0x00, 0x00,
    0x00, 0x67, 0x53, 0x50, 0x42, 0x31, 0x06, 0x00, 0x00, 0x00, 0x03, 0x00,
    0x00, 0x00, 0x35, 0x00, 0x00, 0x00, 0xd1, 0x07, 0x8a, 0x88, 0x47, 0x14,
    0x31, 0x9e, 0x1e, 0x00, 0x03, 0x00, 0x14, 0x61, 0x62, 0x63, 0x64, 0x65,
    0x66, 0x67, 0x68, 0x69, 0x6a, 0x6b, 0x6c, 0x6d, 0x6e, 0x6f, 0x70, 0x71,
    0x72, 0x73, 0x74, 0x03, 0x61, 0x00, 0x62, 0x00, 0x3f, 0x01, 0x03, 0x02,
    0x01, 0x61, 0x01, 0x62, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x3f, 0x00,
    0x01, 0x02, 0x04, 0x06, 0x08, 0x0a, 0x0c};
static_assert(sizeof(kJournal) == 103);

/// The MANIFEST of SaveSnapshot({"g": StringTable()}, dir, 42).
inline constexpr char kManifest[] =
    "gmdj-snapshot 1\n"
    "snapshot_id\t42\n"
    "table\tg\t6\tt0.tbl\t3\n"
    "col\ts\tstring\tg\n"
    "col\tp\tstring\tg\n"
    "col\tk\tint64\tg\n";

/// Expects `t` to hold StringTable()'s cells in order, with its types.
inline void ExpectStringTable(const Table& t) {
  const Table want = StringTable();
  ASSERT_EQ(t.num_rows(), want.num_rows());
  ASSERT_EQ(t.num_columns(), want.num_columns());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    ASSERT_EQ(t.column(c).type(), want.column(c).type()) << "col " << c;
    for (size_t i = 0; i < want.num_rows(); ++i) {
      const Value got = t.column(c).Get(i);
      const Value exp = want.column(c).Get(i);
      ASSERT_EQ(got.is_null(), exp.is_null()) << "row " << i << " col " << c;
      if (!exp.is_null()) {
        EXPECT_EQ(got.ToString(), exp.ToString())
            << "row " << i << " col " << c;
        EXPECT_TRUE(got == exp) << "row " << i << " col " << c;
      }
    }
  }
  EXPECT_EQ(t.column(0).Get(3).str(), std::string("a\0b", 3));
}

inline std::string Bytes(const unsigned char* data, size_t size) {
  return std::string(reinterpret_cast<const char*>(data), size);
}

}  // namespace golden
}  // namespace spill
}  // namespace gmdj

#endif  // GMDJ_TESTS_SPILL_STRING_GOLDEN_H_
