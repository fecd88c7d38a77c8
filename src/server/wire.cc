#include "server/wire.h"

#include <cstdio>

namespace gmdj {
namespace server {

std::string JsonEscape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (const char c : raw) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

/// Appends cell `r` of `col`, read in place: null, a quoted string, or
/// the number as Value::ToString prints it.
void AppendCellJson(const Column& col, size_t r, std::string* out) {
  if (col.is_null(r)) {
    *out += "null";
  } else if (col.type() == ValueType::kString) {
    *out += '"';
    *out += JsonEscape(col.str(r));
    *out += '"';
  } else {
    *out += col.Get(r).ToString();
  }
}

}  // namespace

std::string TableToJson(const Table& table, double elapsed_ms,
                        const std::string& strategy) {
  std::string out = "{\"status\": \"ok\", \"columns\": [";
  for (size_t i = 0; i < table.schema().num_fields(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += JsonEscape(table.schema().field(i).QualifiedName());
    out += '"';
  }
  out += "], \"rows\": [";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (r > 0) out += ", ";
    out += '[';
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ", ";
      AppendCellJson(table.column(c), r, &out);
    }
    out += ']';
  }
  char tail[128];
  std::snprintf(tail, sizeof(tail),
                "], \"num_rows\": %zu, \"elapsed_ms\": %.3f, ",
                table.num_rows(), elapsed_ms);
  out += tail;
  out += "\"strategy\": \"" + JsonEscape(strategy) + "\"}";
  return out;
}

std::string TableToTsv(const Table& table) {
  std::string out;
  for (size_t i = 0; i < table.schema().num_fields(); ++i) {
    if (i > 0) out += '\t';
    out += table.schema().field(i).QualifiedName();
  }
  out += '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += '\t';
      out += table.cell(r, c).ToString();
    }
    out += '\n';
  }
  return out;
}

std::string StatusToJson(const Status& status) {
  std::string out = "{\"status\": \"error\", \"code\": \"";
  out += StatusCodeToString(status.code());
  out += "\", \"message\": \"" + JsonEscape(status.message()) + "\"";
  if (status.offset().has_value()) {
    out += ", \"offset\": " + std::to_string(*status.offset());
  }
  out += '}';
  return out;
}

int HttpStatusFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kAlreadyExists:
    case StatusCode::kUnimplemented:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kCancelled:
      return 499;  // nginx-style "client closed request".
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kInternal:
    case StatusCode::kRuntimeError:
    case StatusCode::kDataLoss:
      return 500;
  }
  return 500;
}

}  // namespace server
}  // namespace gmdj
