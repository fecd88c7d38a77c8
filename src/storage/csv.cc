#include "storage/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace gmdj {
namespace {

bool NeedsQuoting(const std::string& s) {
  if (s.empty()) return true;  // Distinguish '' (empty string) from NULL.
  return s.find_first_of(",\"\n\r") != std::string::npos;
}

void AppendField(const Value& v, std::string* out) {
  if (v.is_null()) return;  // NULL = empty unquoted field.
  std::string text;
  switch (v.type()) {
    case ValueType::kInt64:
      text = std::to_string(v.int64());
      break;
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v.dbl());
      text = buf;
      break;
    }
    case ValueType::kString:
      text = v.str();
      break;
    case ValueType::kNull:
      return;
  }
  if (v.type() == ValueType::kString && NeedsQuoting(text)) {
    out->push_back('"');
    for (const char c : text) {
      if (c == '"') out->push_back('"');
      out->push_back(c);
    }
    out->push_back('"');
  } else {
    *out += text;
  }
}

struct CsvField {
  std::string text;
  bool quoted = false;
  bool present = false;  // False only for empty unquoted fields (NULL).
};

// Splits one logical CSV record starting at `*pos`; advances past the
// record's line terminator. Returns false at end of input.
Result<bool> NextRecord(const std::string& csv, size_t* pos,
                        std::vector<CsvField>* fields) {
  fields->clear();
  size_t i = *pos;
  const size_t n = csv.size();
  if (i >= n) return false;
  CsvField field;
  bool in_quotes = false;
  auto push_field = [&] {
    field.present = field.quoted || !field.text.empty();
    fields->push_back(std::move(field));
    field = CsvField{};
  };
  while (i < n) {
    const char c = csv[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && csv[i + 1] == '"') {
          field.text.push_back('"');
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field.text.push_back(c);
      ++i;
      continue;
    }
    if (c == '"' && field.text.empty() && !field.quoted) {
      in_quotes = true;
      field.quoted = true;
      ++i;
      continue;
    }
    if (c == ',') {
      push_field();
      ++i;
      continue;
    }
    if (c == '\n' || c == '\r') {
      // Consume \r\n or \n.
      if (c == '\r' && i + 1 < n && csv[i + 1] == '\n') ++i;
      ++i;
      break;
    }
    field.text.push_back(c);
    ++i;
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  push_field();
  *pos = i;
  return true;
}

Result<Value> ParseField(const CsvField& field, ValueType type, size_t row) {
  if (!field.present) return Value::Null();
  switch (type) {
    case ValueType::kInt64: {
      try {
        size_t consumed = 0;
        const int64_t v = std::stoll(field.text, &consumed);
        if (consumed != field.text.size()) throw std::invalid_argument("");
        return Value(v);
      } catch (...) {
        return Status::InvalidArgument("row " + std::to_string(row) +
                                       ": bad INT64 value '" + field.text +
                                       "'");
      }
    }
    case ValueType::kDouble: {
      try {
        size_t consumed = 0;
        const double v = std::stod(field.text, &consumed);
        if (consumed != field.text.size()) throw std::invalid_argument("");
        return Value(v);
      } catch (...) {
        return Status::InvalidArgument("row " + std::to_string(row) +
                                       ": bad DOUBLE value '" + field.text +
                                       "'");
      }
    }
    case ValueType::kString:
      return Value(field.text);
    case ValueType::kNull:
      break;
  }
  return Status::InvalidArgument("column declared with unusable type");
}

}  // namespace

std::string TableToCsv(const Table& table) {
  std::string out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out.push_back(',');
    out += table.schema().field(c).QualifiedName();
  }
  out.push_back('\n');
  for (const Row& row : table.rows()) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out.push_back(',');
      AppendField(row[c], &out);
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path) {
  std::ofstream stream(path, std::ios::binary);
  if (!stream) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  stream << TableToCsv(table);
  stream.close();
  if (!stream) return Status::InvalidArgument("write failed: " + path);
  return Status::OK();
}

Result<Table> CsvToTable(const std::string& csv, const Schema& schema) {
  size_t pos = 0;
  std::vector<CsvField> fields;
  GMDJ_ASSIGN_OR_RETURN(const bool has_header, NextRecord(csv, &pos, &fields));
  if (!has_header) {
    return Status::InvalidArgument("empty CSV input (missing header)");
  }
  if (fields.size() != schema.num_fields()) {
    return Status::InvalidArgument(
        "CSV header has " + std::to_string(fields.size()) +
        " columns, schema expects " + std::to_string(schema.num_fields()));
  }
  Table out(schema);
  size_t row_index = 0;
  while (true) {
    GMDJ_ASSIGN_OR_RETURN(const bool more, NextRecord(csv, &pos, &fields));
    if (!more) break;
    ++row_index;
    // Tolerate a trailing newline: one empty unquoted field.
    if (fields.size() == 1 && !fields[0].present && pos >= csv.size()) {
      break;
    }
    if (fields.size() != schema.num_fields()) {
      return Status::InvalidArgument(
          "row " + std::to_string(row_index) + " has " +
          std::to_string(fields.size()) + " fields, expected " +
          std::to_string(schema.num_fields()));
    }
    Row row;
    row.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      GMDJ_ASSIGN_OR_RETURN(
          Value v, ParseField(fields[c], schema.field(c).type, row_index));
      row.push_back(std::move(v));
    }
    const Status appended = out.AppendRow(std::move(row));
    if (!appended.ok()) {
      return Status::InvalidArgument("row " + std::to_string(row_index) +
                                     ": " + appended.message());
    }
  }
  return out;
}

Result<Table> ReadCsvFile(const std::string& path, const Schema& schema) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) {
    return Status::NotFound("cannot open: " + path);
  }
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return CsvToTable(buffer.str(), schema);
}

}  // namespace gmdj
