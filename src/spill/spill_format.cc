#include "spill/spill_format.h"

#include <cstring>
#include <unordered_map>

#include "types/value.h"

namespace gmdj {
namespace spill {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 4);
}

void PutU64(uint64_t v, std::string* out) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(buf, 8);
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

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// Writes one scalar of `v`'s runtime type (never NULL).
void PutScalar(const Value& v, std::string* out) {
  switch (v.type()) {
    case ValueType::kInt64:
      PutVarint(ZigZag(v.int64()), out);
      break;
    case ValueType::kDouble: {
      uint64_t bits;
      double d = v.dbl();
      std::memcpy(&bits, &d, 8);
      PutU64(bits, out);
      break;
    }
    case ValueType::kString: {
      const std::string& s = v.str();
      PutVarint(s.size(), out);
      out->append(s);
      break;
    }
    case ValueType::kNull:
      break;  // Unreachable: nulls live in the bitmap.
  }
}

/// Bounds-checked payload cursor.
struct ByteReader {
  const char* data;
  size_t size;
  size_t pos = 0;

  Status Need(size_t n) const {
    if (size - pos < n) {
      return Status::Internal("spill block payload truncated");
    }
    return Status::OK();
  }
  Status ReadU8(uint8_t* v) {
    GMDJ_RETURN_IF_ERROR(Need(1));
    *v = static_cast<uint8_t>(data[pos++]);
    return Status::OK();
  }
  Status ReadU64(uint64_t* v) {
    GMDJ_RETURN_IF_ERROR(Need(8));
    *v = GetU64(data + pos);
    pos += 8;
    return Status::OK();
  }
  Status ReadVarint(uint64_t* v) {
    uint64_t out = 0;
    int shift = 0;
    while (true) {
      GMDJ_RETURN_IF_ERROR(Need(1));
      const uint8_t b = static_cast<uint8_t>(data[pos++]);
      if (shift >= 64) {
        return Status::Internal("spill block varint overflows");
      }
      out |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
    }
    *v = out;
    return Status::OK();
  }
  Status ReadScalar(ValueType type, Value* v) {
    switch (type) {
      case ValueType::kInt64: {
        uint64_t raw = 0;
        GMDJ_RETURN_IF_ERROR(ReadVarint(&raw));
        *v = Value(UnZigZag(raw));
        return Status::OK();
      }
      case ValueType::kDouble: {
        uint64_t bits = 0;
        GMDJ_RETURN_IF_ERROR(ReadU64(&bits));
        double d;
        std::memcpy(&d, &bits, 8);
        *v = Value(d);
        return Status::OK();
      }
      case ValueType::kString: {
        uint64_t len = 0;
        GMDJ_RETURN_IF_ERROR(ReadVarint(&len));
        GMDJ_RETURN_IF_ERROR(Need(len));
        *v = Value(std::string(data + pos, len));
        pos += len;
        return Status::OK();
      }
      case ValueType::kNull:
        break;
    }
    return Status::Internal("spill block has invalid value type");
  }
};

Result<ValueType> TypeFromByte(uint8_t b) {
  switch (b) {
    case static_cast<uint8_t>(ValueType::kInt64):
      return ValueType::kInt64;
    case static_cast<uint8_t>(ValueType::kDouble):
      return ValueType::kDouble;
    case static_cast<uint8_t>(ValueType::kString):
      return ValueType::kString;
    default:
      return Status::Internal("spill block has invalid type byte");
  }
}

/// Encodes one block column whose cells are `cells[0..num_rows)`, every
/// non-NULL one of the same type (a table column's).
void EncodeColumn(const Value* cells, size_t num_rows, std::string* out) {
  // Null bitmap (bit set = non-null) plus the non-null value list.
  const size_t bitmap_bytes = (num_rows + 7) / 8;
  const size_t bitmap_at = out->size();
  out->append(bitmap_bytes, '\0');
  std::vector<const Value*> values;
  values.reserve(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    const Value& v = cells[i];
    if (v.is_null()) continue;
    (*out)[bitmap_at + i / 8] |= static_cast<char>(1u << (i % 8));
    values.push_back(&v);
  }

  if (values.empty()) {
    out->push_back(static_cast<char>(ColumnEncoding::kRaw));
    out->push_back(static_cast<char>(ValueType::kInt64));
    return;
  }

  const ValueType type = values[0]->type();
  // Dictionary probe: bail as soon as the 255-entry budget is blown.
  std::unordered_map<Value, uint8_t, ValueHash> dict;
  std::vector<const Value*> dict_order;
  bool dict_ok = true;
  for (const Value* v : values) {
    auto it = dict.find(*v);
    if (it != dict.end()) continue;
    if (dict.size() >= 255) {
      dict_ok = false;
      break;
    }
    dict.emplace(*v, static_cast<uint8_t>(dict.size()));
    dict_order.push_back(v);
  }
  if (dict_ok && dict.size() * 2 <= values.size()) {
    out->push_back(static_cast<char>(ColumnEncoding::kDict));
    out->push_back(static_cast<char>(type));
    out->push_back(static_cast<char>(dict.size()));
    for (const Value* v : dict_order) PutScalar(*v, out);
    for (const Value* v : values) {
      out->push_back(static_cast<char>(dict.find(*v)->second));
    }
    return;
  }

  size_t runs = 1;
  for (size_t i = 1; i < values.size(); ++i) {
    if (!(*values[i] == *values[i - 1])) ++runs;
  }
  if (runs * 2 <= values.size()) {
    out->push_back(static_cast<char>(ColumnEncoding::kRle));
    out->push_back(static_cast<char>(type));
    PutVarint(runs, out);
    size_t i = 0;
    while (i < values.size()) {
      size_t j = i + 1;
      while (j < values.size() && *values[j] == *values[i]) ++j;
      PutScalar(*values[i], out);
      PutVarint(j - i, out);
      i = j;
    }
    return;
  }

  out->push_back(static_cast<char>(ColumnEncoding::kRaw));
  out->push_back(static_cast<char>(type));
  for (const Value* v : values) PutScalar(*v, out);
}

/// Decodes one block column, calling `emit(i, value)` for every non-NULL
/// cell i in row order.
template <typename EmitFn>
Status DecodeColumn(ByteReader* reader, size_t num_rows, const EmitFn& emit) {
  const size_t bitmap_bytes = (num_rows + 7) / 8;
  GMDJ_RETURN_IF_ERROR(reader->Need(bitmap_bytes));
  const char* bitmap = reader->data + reader->pos;
  reader->pos += bitmap_bytes;
  size_t num_values = 0;
  for (size_t i = 0; i < num_rows; ++i) {
    if (bitmap[i / 8] & (1 << (i % 8))) ++num_values;
  }

  uint8_t tag;
  GMDJ_RETURN_IF_ERROR(reader->ReadU8(&tag));
  std::vector<Value> values;
  values.reserve(num_values);
  switch (static_cast<ColumnEncoding>(tag)) {
    case ColumnEncoding::kRaw: {
      uint8_t type_byte;
      GMDJ_RETURN_IF_ERROR(reader->ReadU8(&type_byte));
      GMDJ_ASSIGN_OR_RETURN(ValueType type, TypeFromByte(type_byte));
      for (size_t i = 0; i < num_values; ++i) {
        Value v;
        GMDJ_RETURN_IF_ERROR(reader->ReadScalar(type, &v));
        values.push_back(std::move(v));
      }
      break;
    }
    case ColumnEncoding::kDict: {
      uint8_t type_byte;
      GMDJ_RETURN_IF_ERROR(reader->ReadU8(&type_byte));
      GMDJ_ASSIGN_OR_RETURN(ValueType type, TypeFromByte(type_byte));
      uint8_t dict_size;
      GMDJ_RETURN_IF_ERROR(reader->ReadU8(&dict_size));
      std::vector<Value> dict;
      dict.reserve(dict_size);
      for (size_t i = 0; i < dict_size; ++i) {
        Value v;
        GMDJ_RETURN_IF_ERROR(reader->ReadScalar(type, &v));
        dict.push_back(std::move(v));
      }
      for (size_t i = 0; i < num_values; ++i) {
        uint8_t idx;
        GMDJ_RETURN_IF_ERROR(reader->ReadU8(&idx));
        if (idx >= dict.size()) {
          return Status::Internal("spill block dictionary index out of range");
        }
        values.push_back(dict[idx]);
      }
      break;
    }
    case ColumnEncoding::kRle: {
      uint8_t type_byte;
      GMDJ_RETURN_IF_ERROR(reader->ReadU8(&type_byte));
      GMDJ_ASSIGN_OR_RETURN(ValueType type, TypeFromByte(type_byte));
      uint64_t runs;
      GMDJ_RETURN_IF_ERROR(reader->ReadVarint(&runs));
      for (uint64_t r = 0; r < runs; ++r) {
        Value v;
        GMDJ_RETURN_IF_ERROR(reader->ReadScalar(type, &v));
        uint64_t len;
        GMDJ_RETURN_IF_ERROR(reader->ReadVarint(&len));
        // Phrased to avoid wrap: `values.size() + len` overflows for a
        // crafted len near 2^64 and would pass a sum-form check, then
        // push_back until memory exhaustion. values.size() <= num_values
        // is an invariant of this guard, so the subtraction is safe.
        if (len > num_values - values.size()) {
          return Status::Internal("spill block RLE run overflows column");
        }
        for (uint64_t i = 0; i < len; ++i) values.push_back(v);
      }
      break;
    }
    case ColumnEncoding::kTagged: {
      for (size_t i = 0; i < num_values; ++i) {
        uint8_t type_byte;
        GMDJ_RETURN_IF_ERROR(reader->ReadU8(&type_byte));
        GMDJ_ASSIGN_OR_RETURN(ValueType type, TypeFromByte(type_byte));
        Value v;
        GMDJ_RETURN_IF_ERROR(reader->ReadScalar(type, &v));
        values.push_back(std::move(v));
      }
      break;
    }
    default:
      return Status::Internal("spill block has invalid column encoding");
  }
  if (values.size() != num_values) {
    return Status::Internal("spill block column value count mismatch");
  }

  size_t next = 0;
  for (size_t i = 0; i < num_rows; ++i) {
    if (bitmap[i / 8] & (1 << (i % 8))) {
      GMDJ_RETURN_IF_ERROR(emit(i, std::move(values[next++])));
    }
  }
  return Status::OK();
}

Status CheckGeometry(size_t num_rows, size_t num_cols) {
  if (num_rows > kMaxBlockRows || num_cols > kMaxBlockCols) {
    return Status::ResourceExhausted(
        "spill block geometry exceeds format bounds: " +
        std::to_string(num_rows) + " rows x " + std::to_string(num_cols) +
        " cols (max " + std::to_string(kMaxBlockRows) + " x " +
        std::to_string(kMaxBlockCols) + ")");
  }
  return Status::OK();
}

/// Frames `payload` as one block appended to `out`.
Status AppendBlock(const std::string& payload, size_t num_rows,
                   size_t num_cols, std::string* out) {
  if (payload.size() > kMaxPayload) {
    // Unchecked, this would truncate (or past 4 GB, wrap) the u32
    // payload_size below — a block that writes fine and can never be
    // read back.
    return Status::ResourceExhausted(
        "spill block payload " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxPayload) +
        "-byte format cap" +
        (num_rows <= 1 ? " (single row too large to spill)" : ""));
  }
  out->append(kBlockMagic, 4);
  PutU32(static_cast<uint32_t>(num_rows), out);
  PutU32(static_cast<uint32_t>(num_cols), out);
  PutU32(static_cast<uint32_t>(payload.size()), out);
  PutU64(Fnv1a64(payload.data(), payload.size()), out);
  out->append(payload);
  return Status::OK();
}

/// Verifies the checksum and runs `decode_columns` over the payload,
/// which must consume it exactly.
template <typename DecodeFn>
Status DecodePayload(const BlockHeader& header, const char* payload,
                     const DecodeFn& decode_columns) {
  if (Fnv1a64(payload, header.payload_size) != header.checksum) {
    return Status::Internal("spill block checksum mismatch");
  }
  ByteReader reader{payload, header.payload_size};
  GMDJ_RETURN_IF_ERROR(decode_columns(&reader));
  if (reader.pos != header.payload_size) {
    return Status::Internal("spill block has trailing payload bytes");
  }
  return Status::OK();
}

}  // namespace

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t h = kFnvOffset;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

Status EncodeBlock(const Table& table, size_t begin, size_t num_rows,
                   std::string* out) {
  GMDJ_RETURN_IF_ERROR(CheckGeometry(num_rows, table.num_columns()));
  std::string payload;
  std::vector<Value> cells(num_rows);
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& col = table.column(c);
    for (size_t i = 0; i < num_rows; ++i) cells[i] = col.Get(begin + i);
    EncodeColumn(cells.data(), num_rows, &payload);
  }
  return AppendBlock(payload, num_rows, table.num_columns(), out);
}

Result<BlockHeader> ParseBlockHeader(const char* bytes) {
  if (std::memcmp(bytes, kBlockMagic, 4) != 0) {
    return Status::Internal("spill block has bad magic");
  }
  BlockHeader header;
  header.num_rows = GetU32(bytes + 4);
  header.num_cols = GetU32(bytes + 8);
  header.payload_size = GetU32(bytes + 12);
  header.checksum = GetU64(bytes + 16);
  if (header.num_rows > kMaxBlockRows || header.num_cols > kMaxBlockCols ||
      header.payload_size > kMaxPayload) {
    return Status::Internal("spill block header out of bounds");
  }
  return header;
}

Status DecodeBlockPayload(const BlockHeader& header, const char* payload,
                          const Schema& schema, std::vector<Column>* out) {
  if (header.num_cols != schema.num_fields()) {
    return Status::Internal("spill block has " +
                            std::to_string(header.num_cols) +
                            " columns, schema has " +
                            std::to_string(schema.num_fields()));
  }
  out->clear();
  return DecodePayload(header, payload, [&](ByteReader* reader) {
    for (size_t c = 0; c < header.num_cols; ++c) {
      Column& col = out->emplace_back(schema.field(c).type);
      col.Reserve(header.num_rows);
      GMDJ_RETURN_IF_ERROR(DecodeColumn(
          reader, header.num_rows, [&](size_t i, Value v) {
            if (!col.Accepts(v)) {
              return Status::Internal("spill block column " +
                                      schema.field(c).QualifiedName() +
                                      " holds a " +
                                      ValueTypeToString(v.type()) + " value");
            }
            while (col.size() < i) col.AppendNull();
            col.Append(std::move(v));
            return Status::OK();
          }));
      while (col.size() < header.num_rows) col.AppendNull();
    }
    return Status::OK();
  });
}

}  // namespace spill
}  // namespace gmdj
