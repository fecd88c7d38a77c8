#ifndef GMDJ_SERVER_WIRE_H_
#define GMDJ_SERVER_WIRE_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/table.h"

namespace gmdj {
namespace server {

/// JSON string escaping (quotes, backslash, control characters).
std::string JsonEscape(std::string_view raw);

/// Result table as the protocol's JSON success envelope:
///   {"status": "ok", "columns": ["c_name", ...], "rows": [[...], ...],
///    "num_rows": 3, "elapsed_ms": 1.25, "strategy": "gmdj-optimized"}
/// Values render as native JSON where possible: INT64/DOUBLE bare, NULL as
/// null, strings escaped.
std::string TableToJson(const Table& table, double elapsed_ms,
                        const std::string& strategy);

/// Deterministic text rendering shared by the server ("X-Format: tsv")
/// and the load driver's row-equality check: one header line of qualified
/// column names, then one tab-separated line per row using
/// Value::ToString. Two tables render identically iff their schemas and
/// row sequences match.
std::string TableToTsv(const Table& table);

/// Structured protocol error:
///   {"status": "error", "code": "InvalidArgument",
///    "message": "expected FROM at offset 9 near 'WHERE'", "offset": 9}
/// The "offset" field is present only when the status carries one (SQL
/// front-end errors pointing at the offending token).
std::string StatusToJson(const Status& status);

/// HTTP status code for a failed engine Status: 400 for caller errors,
/// 404 unknown table, 429 for a tripped memory budget, 499 for client
/// cancellation, 504 past deadline, 500 otherwise.
int HttpStatusFor(const Status& status);

}  // namespace server
}  // namespace gmdj

#endif  // GMDJ_SERVER_WIRE_H_
