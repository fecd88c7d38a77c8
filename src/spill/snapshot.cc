#include "spill/snapshot.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/str_util.h"
#include "spill/spill_file.h"
#include "spill/spill_manager.h"

namespace gmdj {
namespace spill {
namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "gmdj-snapshot 1";
constexpr size_t kSnapshotBlockRows = 4096;
// Staging/backup suffixes for the atomic publish protocol. A crash
// between the two publish renames leaves nothing at `dir` — restore
// then finishes the publish from a complete `.tmp` (staging is fully
// durable before the renames begin) or promotes the `.old` backup, and
// save promotes a stranded `.old` before sweeping, so the last good
// snapshot is never discarded. Anything else under either suffix is
// dead weight from an interrupted save.
constexpr char kTmpSuffix[] = ".tmp";
constexpr char kOldSuffix[] = ".old";

const char* TypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "int64";
}

Result<ValueType> TypeFromName(const std::string& name) {
  if (name == "null") return ValueType::kNull;
  if (name == "int64") return ValueType::kInt64;
  if (name == "double") return ValueType::kDouble;
  if (name == "string") return ValueType::kString;
  return Status::InvalidArgument("snapshot manifest: unknown column type '" +
                                 name + "'");
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

Result<uint64_t> ParseCount(const std::string& text, const char* what) {
  uint64_t value = 0;
  if (text.empty()) {
    return Status::InvalidArgument(std::string("snapshot manifest: empty ") +
                                   what);
  }
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(std::string("snapshot manifest: bad ") +
                                     what + " '" + text + "'");
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

bool PathExists(const std::string& path) {
  struct stat st;
  return ::lstat(path.c_str(), &st) == 0;
}

/// Flushes `path`'s data (or, for a directory, its entries) to stable
/// storage. fsync on an O_RDONLY descriptor is sufficient on the
/// platforms this engine targets.
Status FsyncPath(const std::string& path) {
  GMDJ_RETURN_IF_ERROR(GMDJ_FAULT_POINT("snapshot/fsync"));
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::Internal("snapshot: cannot open for fsync: " + path);
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Internal("snapshot: fsync failed: " + path);
  }
  return Status::OK();
}

/// rm -rf for the flat directories snapshots produce (one level of
/// regular files). Best-effort flavor used for sweeping stale staging
/// dirs; returns false only when the directory survives.
bool RemoveDirRecursive(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return !PathExists(dir);
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    const std::string path = dir + "/" + name;
    if (::unlink(path.c_str()) != 0) {
      RemoveDirRecursive(path);  // Nested dir (never ours, but be thorough).
    }
  }
  ::closedir(d);
  return ::rmdir(dir.c_str()) == 0;
}

Status WriteSnapshotInto(const Catalog& catalog, const std::string& dir,
                         uint64_t snapshot_id) {
  GMDJ_RETURN_IF_ERROR(MakeDirs(dir));

  std::ostringstream manifest;
  manifest << kManifestHeader << "\n";
  if (snapshot_id != 0) manifest << "snapshot_id\t" << snapshot_id << "\n";

  const std::vector<std::string> names = catalog.TableNames();
  size_t index = 0;
  for (const std::string& name : names) {
    GMDJ_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(name));
    const std::string file = StrCat({"t", std::to_string(index++), ".tbl"});
    GMDJ_ASSIGN_OR_RETURN(
        std::unique_ptr<SpillWriter> writer,
        SpillWriter::Open(dir + "/" + file, kSnapshotBlockRows,
                          /*scope=*/nullptr));
    GMDJ_RETURN_IF_ERROR(writer->AppendTable(*table));
    GMDJ_RETURN_IF_ERROR(writer->Finish());
    GMDJ_RETURN_IF_ERROR(FsyncPath(dir + "/" + file));

    const Schema& schema = table->schema();
    manifest << "table\t" << name << "\t" << table->num_rows() << "\t" << file
             << "\t" << schema.num_fields() << "\n";
    for (const Field& field : schema.fields()) {
      manifest << "col\t" << field.name << "\t" << TypeName(field.type) << "\t"
               << field.qualifier << "\n";
    }
  }

  const std::string manifest_path = dir + "/" + kManifestName;
  {
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("snapshot: cannot write " + manifest_path);
    }
    out << manifest.str();
    out.flush();
    if (!out) {
      return Status::Internal("snapshot: short write to " + manifest_path);
    }
  }
  GMDJ_RETURN_IF_ERROR(FsyncPath(manifest_path));
  // Directory entries (the file names themselves) need their own fsync.
  GMDJ_RETURN_IF_ERROR(FsyncPath(dir));
  return Status::OK();
}

}  // namespace

Status SaveSnapshot(const Catalog& catalog, const std::string& dir,
                    uint64_t snapshot_id) {
  if (dir.empty() || dir == "/" || dir == "." || dir == "..") {
    return Status::InvalidArgument("snapshot: refusing to snapshot into '" +
                                   dir + "'");
  }
  const std::string tmp = dir + kTmpSuffix;
  const std::string old = dir + kOldSuffix;
  // A crash between a previous save's publish renames leaves `dir`
  // missing with the last good snapshot stranded at `old`. Promote it
  // back before the sweep below — discarding it would lose the only
  // complete snapshot. (`tmp` from that window was never acknowledged;
  // superseding it with this save is fine.)
  if (!PathExists(dir) && PathExists(old + "/" + kManifestName)) {
    if (std::rename(old.c_str(), dir.c_str()) != 0) {
      return Status::Internal("snapshot: cannot promote stranded backup " +
                              old);
    }
  }
  // Sweep leftovers from a previous crashed save before staging anew.
  if (PathExists(tmp) && !RemoveDirRecursive(tmp)) {
    return Status::Internal("snapshot: cannot clear stale staging dir " + tmp);
  }
  if (PathExists(old) && !RemoveDirRecursive(old)) {
    return Status::Internal("snapshot: cannot clear stale backup dir " + old);
  }

  // Stage the complete snapshot — data files, MANIFEST, every byte
  // fsynced — into `<dir>.tmp`, then publish with renames. A crash before
  // the final rename leaves the previous snapshot untouched; a crash
  // after it leaves the new snapshot fully durable.
  Status staged = WriteSnapshotInto(catalog, tmp, snapshot_id);
  if (!staged.ok()) {
    RemoveDirRecursive(tmp);
    return staged;
  }

  const Status publish = GMDJ_FAULT_POINT("snapshot/publish");
  if (!publish.ok()) {
    // The injected "crash" aborts cleanly: a real crash would leave the
    // staged dir for the next save's sweep, but an error return must not
    // leak temp state.
    RemoveDirRecursive(tmp);
    return publish;
  }
  const bool had_previous = PathExists(dir);
  if (had_previous && std::rename(dir.c_str(), old.c_str()) != 0) {
    RemoveDirRecursive(tmp);
    return Status::Internal("snapshot: cannot move previous snapshot aside: " +
                            dir);
  }
  if (std::rename(tmp.c_str(), dir.c_str()) != 0) {
    // Roll the previous snapshot back into place; the staged copy stays
    // for post-mortem (it is swept on the next save).
    if (had_previous) std::rename(old.c_str(), dir.c_str());
    return Status::Internal("snapshot: cannot publish " + dir);
  }
  // Make the renames durable before declaring success.
  GMDJ_RETURN_IF_ERROR(FsyncPath(ParentDir(dir)));
  if (had_previous) RemoveDirRecursive(old);
  return Status::OK();
}

namespace {

/// Parses `dir`'s MANIFEST and decodes every table into `staged`
/// without touching any catalog, so a corrupt snapshot restores nothing
/// rather than half a catalog. Reports the manifest's snapshot id (0
/// when the line is absent — journal-less saves and old manifests).
Status LoadSnapshotTables(const std::string& dir,
                          std::vector<std::pair<std::string, Table>>* staged,
                          uint64_t* snapshot_id) {
  std::ifstream in(dir + "/" + kManifestName, std::ios::binary);
  if (!in) {
    return Status::InvalidArgument("not a snapshot directory (no MANIFEST): " +
                                   dir);
  }
  std::string line;
  if (!std::getline(in, line) || line != kManifestHeader) {
    return Status::InvalidArgument(
        "snapshot manifest: unsupported header in " + dir);
  }

  std::set<std::string> seen_files;
  std::set<std::string> seen_tables;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> parts = SplitTabs(line);
    if (parts[0] == "snapshot_id") {
      if (parts.size() != 2) {
        return Status::InvalidArgument(
            "snapshot manifest: malformed snapshot_id line '" + line + "'");
      }
      GMDJ_ASSIGN_OR_RETURN(*snapshot_id,
                            ParseCount(parts[1], "snapshot id"));
      continue;
    }
    if (parts[0] != "table" || parts.size() != 5) {
      return Status::InvalidArgument("snapshot manifest: expected table line, "
                                     "got '" + line + "'");
    }
    const std::string& name = parts[1];
    GMDJ_ASSIGN_OR_RETURN(uint64_t num_rows, ParseCount(parts[2], "row count"));
    const std::string& file = parts[3];
    GMDJ_ASSIGN_OR_RETURN(uint64_t num_cols,
                          ParseCount(parts[4], "column count"));
    if (file.find('/') != std::string::npos) {
      return Status::InvalidArgument(
          "snapshot manifest: data file escapes snapshot dir: " + file);
    }
    if (!seen_files.insert(file).second) {
      return Status::DataLoss("snapshot manifest: data file " + file +
                              " referenced twice");
    }
    if (!seen_tables.insert(name).second) {
      return Status::DataLoss("snapshot manifest: table " + name +
                              " listed twice");
    }

    Schema schema;
    for (uint64_t c = 0; c < num_cols; ++c) {
      if (!std::getline(in, line)) {
        return Status::InvalidArgument(
            "snapshot manifest: truncated column list for table " + name);
      }
      std::vector<std::string> col = SplitTabs(line);
      if (col[0] != "col" || col.size() != 4) {
        return Status::InvalidArgument("snapshot manifest: expected col line, "
                                       "got '" + line + "'");
      }
      GMDJ_ASSIGN_OR_RETURN(ValueType type, TypeFromName(col[2]));
      schema.AddField(Field{col[1], type, col[3]});
    }

    const std::string path = dir + "/" + file;
    if (!PathExists(path)) {
      return Status::DataLoss("snapshot: manifest references missing data "
                              "file " + file + " (table " + name + ")");
    }
    auto reader_or = SpillReader::Open(path, /*scope=*/nullptr);
    if (!reader_or.ok()) {
      return Status::DataLoss("snapshot: cannot open data file " + file +
                              ": " + reader_or.status().message());
    }
    std::unique_ptr<SpillReader> reader = std::move(*reader_or);
    // Column blocks decode straight into the table's columns.
    Table table(std::move(schema));
    table.Reserve(num_rows);
    Status read = reader->ReadInto(&table);
    if (!read.ok()) {
      // A torn or bit-flipped block surfaces as a checksum/decode error;
      // retype it so callers can tell corruption from engine bugs.
      return Status::DataLoss("snapshot: corrupt data file " + file + ": " +
                              read.message());
    }
    if (table.num_rows() != num_rows) {
      return Status::DataLoss(
          "snapshot: table " + name + " has " +
          std::to_string(table.num_rows()) + " rows, manifest promised " +
          std::to_string(num_rows));
    }
    staged->emplace_back(name, std::move(table));
  }
  return Status::OK();
}

}  // namespace

Status RestoreSnapshot(Catalog* catalog, const std::string& dir,
                       uint64_t* snapshot_id) {
  // Half-written staging dirs are never restorable; catch the obvious
  // operator mistake of pointing --restore at one.
  if (dir.size() > 4 && dir.compare(dir.size() - 4, 4, kTmpSuffix) == 0) {
    return Status::InvalidArgument(
        "not a snapshot directory (staging dir from an interrupted save): " +
        dir);
  }

  std::vector<std::pair<std::string, Table>> staged;
  uint64_t id = 0;
  if (!PathExists(dir + "/" + kManifestName)) {
    // Nothing at `dir`: a crash landed between SaveSnapshot's two
    // publish renames. Finish the interrupted publish if the staged
    // snapshot is complete and valid (staging is fully durable before
    // the renames begin, so validation distinguishes it from a crash
    // mid-staging); otherwise promote the `.old` backup. Renames happen
    // only after the chosen copy fully validates, so a failed recovery
    // changes nothing on disk.
    const std::string tmp = dir + kTmpSuffix;
    const std::string old = dir + kOldSuffix;
    std::vector<std::pair<std::string, Table>> from_tmp;
    uint64_t tmp_id = 0;
    if (PathExists(tmp + "/" + kManifestName) &&
        LoadSnapshotTables(tmp, &from_tmp, &tmp_id).ok()) {
      if (std::rename(tmp.c_str(), dir.c_str()) != 0) {
        return Status::Internal(
            "snapshot: cannot finish interrupted publish of " + dir);
      }
      GMDJ_RETURN_IF_ERROR(FsyncPath(ParentDir(dir)));
      if (PathExists(old)) RemoveDirRecursive(old);
      staged = std::move(from_tmp);
      id = tmp_id;
    } else if (PathExists(old + "/" + kManifestName)) {
      if (std::rename(old.c_str(), dir.c_str()) != 0) {
        return Status::Internal("snapshot: cannot promote backup " + old);
      }
      GMDJ_RETURN_IF_ERROR(FsyncPath(ParentDir(dir)));
      GMDJ_RETURN_IF_ERROR(LoadSnapshotTables(dir, &staged, &id));
    } else {
      return Status::InvalidArgument(
          "not a snapshot directory (no MANIFEST): " + dir);
    }
  } else {
    GMDJ_RETURN_IF_ERROR(LoadSnapshotTables(dir, &staged, &id));
  }

  for (auto& [name, table] : staged) {
    catalog->PutTable(name, std::move(table));
  }
  if (snapshot_id != nullptr) *snapshot_id = id;
  return Status::OK();
}

uint64_t GenerateSnapshotId() {
  // random_device yields 32 bits per call; two calls make the 64-bit id.
  // 0 is reserved for "no id", so bump a (vanishingly unlikely) zero.
  std::random_device rd;
  uint64_t id = (static_cast<uint64_t>(rd()) << 32) | rd();
  if (id == 0) id = 1;
  return id;
}

}  // namespace spill
}  // namespace gmdj
