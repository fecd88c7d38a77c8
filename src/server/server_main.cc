// gmdj_serve: the multi-tenant query server binary (DESIGN.md §10).
//
//   gmdj_serve --port=8080 --workers=4 --mqo-cache=on
//   curl -d 'SELECT * FROM Flow F WHERE F.NumBytes > 9' 127.0.0.1:8080/query
//
// Loads the deterministic demo warehouse (workload/warehouse.h), serves
// until SIGINT/SIGTERM or POST /shutdown, then drains gracefully and
// exits 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <unistd.h>

#include <memory>

#include "common/byte_size.h"
#include "engine/olap_engine.h"
#include "server/query_server.h"
#include "spill/journal.h"
#include "workload/warehouse.h"

namespace {

// Self-pipe: the signal handler only writes a byte (async-signal-safe);
// a watcher thread turns it into a graceful Shutdown().
int g_signal_pipe[2] = {-1, -1};

void OnSignal(int) {
  const char byte = 1;
  ssize_t ignored = ::write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

struct Flags {
  gmdj::server::ServerConfig server;
  bool mqo_cache = true;
  size_t cache_mb = 64;
  size_t mem_budget_bytes = 0;  // Engine pool capacity; 0 = unbounded.
  size_t threads = 0;           // Engine ExecConfig threads; 0 = hardware.
  double warehouse_scale = 1.0;
  std::string spill_dir;        // Empty = spilling disabled.
  size_t spill_max_bytes = 0;   // 0 = unbounded spill disk use.
  std::string restore_dir;      // Snapshot to restore over the warehouse.
  std::string journal_path;     // Mutation WAL; empty = not journaled.
  std::string snapshot_dir;     // Snapshot at boot (after replay).
};

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--host=127.0.0.1] [--port=8080] [--workers=N]\n"
      "  [--queue-capacity=N] [--max-connections=N] [--drain-deadline-ms=N]\n"
      "  [--mqo-cache=on|off] [--cache-mb=N] [--mem-budget-mb=N|64mb|1gb]\n"
      "  [--threads=N] [--warehouse-scale=X]\n"
      "  [--spill-dir=DIR] [--spill-max-bytes=N|512mb] [--restore=DIR]\n"
      "  [--journal=FILE] [--save-snapshot=DIR]\n"
      "  [--socket-timeout-ms=N] [--shed-after-ms=N] [--retry-after-ms=N]\n"
      "  [--breaker-threshold=N] [--breaker-cooldown-ms=N]\n"
      "  [--session-ttl-ms=N]\n",
      argv0);
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "host", &value)) {
      flags->server.host = value;
    } else if (ParseFlag(arg, "port", &value)) {
      flags->server.port = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "workers", &value)) {
      flags->server.workers = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "queue-capacity", &value)) {
      flags->server.queue_capacity = std::strtoull(value.c_str(), nullptr, 10);
    } else if ((ParseFlag(arg, "batch-window-us", &value) && value == "0") ||
               (ParseFlag(arg, "max-batch", &value) && value == "1")) {
      // Every job already runs alone; older launch lines still pass these.
    } else if (ParseFlag(arg, "batch-window-us", &value) ||
               ParseFlag(arg, "max-batch", &value)) {
      std::fprintf(stderr, "%s: server batching was removed\n", arg.c_str());
      return false;
    } else if (ParseFlag(arg, "max-connections", &value)) {
      flags->server.max_connections = std::strtoull(value.c_str(), nullptr,
                                                    10);
    } else if (ParseFlag(arg, "drain-deadline-ms", &value)) {
      flags->server.drain_deadline_ms = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "mqo-cache", &value)) {
      flags->mqo_cache = value != "off";
    } else if (ParseFlag(arg, "cache-mb", &value)) {
      flags->cache_mb = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "mem-budget-mb", &value)) {
      auto bytes_or = gmdj::ParseByteSizeDefaultMb(value);
      if (!bytes_or.ok()) {
        std::fprintf(stderr, "--mem-budget-mb: %s\n",
                     bytes_or.status().message().c_str());
        return false;
      }
      flags->mem_budget_bytes = bytes_or.ValueOrDie();
    } else if (ParseFlag(arg, "spill-dir", &value)) {
      flags->spill_dir = value;
    } else if (ParseFlag(arg, "spill-max-bytes", &value)) {
      auto bytes_or = gmdj::ParseByteSize(value);
      if (!bytes_or.ok()) {
        std::fprintf(stderr, "--spill-max-bytes: %s\n",
                     bytes_or.status().message().c_str());
        return false;
      }
      flags->spill_max_bytes = bytes_or.ValueOrDie();
    } else if (ParseFlag(arg, "restore", &value)) {
      flags->restore_dir = value;
    } else if (ParseFlag(arg, "journal", &value)) {
      flags->journal_path = value;
    } else if (ParseFlag(arg, "save-snapshot", &value)) {
      flags->snapshot_dir = value;
    } else if (ParseFlag(arg, "socket-timeout-ms", &value)) {
      flags->server.socket_timeout_ms =
          std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "shed-after-ms", &value)) {
      flags->server.shed_after_ms = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "retry-after-ms", &value)) {
      flags->server.retry_after_ms = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "breaker-threshold", &value)) {
      flags->server.breaker_threshold =
          std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "breaker-cooldown-ms", &value)) {
      flags->server.breaker_cooldown_ms =
          std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "session-ttl-ms", &value)) {
      flags->server.session_ttl_ms = std::strtoll(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "threads", &value)) {
      flags->threads = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "warehouse-scale", &value)) {
      flags->warehouse_scale = std::strtod(value.c_str(), nullptr);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    Usage(argv[0]);
    return 2;
  }

  gmdj::OlapEngine engine;
  {
    gmdj::ExecConfig config = engine.exec_config();
    config.num_threads = flags.threads;
    engine.set_exec_config(config);
  }
  if (flags.mem_budget_bytes > 0) {
    engine.set_memory_capacity(flags.mem_budget_bytes);
  }
  if (flags.mqo_cache) {
    gmdj::GmdjAggCacheConfig cache_config;
    cache_config.byte_budget = flags.cache_mb << 20;
    engine.EnableAggCache(cache_config);
  }
  if (!flags.spill_dir.empty()) {
    gmdj::spill::SpillConfig spill_config;
    spill_config.dir = flags.spill_dir;
    spill_config.max_bytes = flags.spill_max_bytes;
    engine.EnableSpill(spill_config);
    std::fprintf(stderr, "spill enabled: dir=%s max_bytes=%zu\n",
                 flags.spill_dir.c_str(), flags.spill_max_bytes);
  }

  gmdj::WarehouseConfig warehouse;
  warehouse.scale = flags.warehouse_scale;
  std::fprintf(stderr, "loading warehouse (scale %.2f)...\n",
               warehouse.scale);
  gmdj::LoadDefaultWarehouse(engine.catalog(), warehouse);

  if (!flags.restore_dir.empty()) {
    const gmdj::Status restored = engine.RestoreSnapshot(flags.restore_dir);
    if (!restored.ok()) {
      std::fprintf(stderr, "--restore failed: %s\n",
                   restored.message().c_str());
      return 1;
    }
    std::fprintf(stderr, "restored snapshot from %s\n",
                 flags.restore_dir.c_str());
  }

  // Crash recovery: the snapshot restores the catalog as of the last
  // SAVE, then the journal replays every mutation committed after it —
  // records the restored snapshot already covers (they precede its
  // marker) are skipped, so a crash between snapshot publish and journal
  // truncation never double-applies rows. Replay happens before the
  // journal is opened for writing, because Open truncates any torn tail
  // the replay identified.
  std::unique_ptr<gmdj::spill::JournalWriter> journal;
  if (!flags.journal_path.empty()) {
    auto replay_or =
        gmdj::spill::ReplayJournal(flags.journal_path, engine.catalog(),
                                   engine.restored_snapshot_id());
    if (!replay_or.ok()) {
      std::fprintf(stderr, "--journal replay failed: %s\n",
                   replay_or.status().message().c_str());
      return 1;
    }
    const gmdj::spill::JournalReplayStats stats = replay_or.ValueOrDie();
    std::fprintf(stderr,
                 "journal %s: replayed %zu records (%zu rows), "
                 "skipped %zu snapshot-covered, "
                 "%zu valid bytes, %zu torn bytes discarded\n",
                 flags.journal_path.c_str(), stats.records_applied,
                 stats.rows_applied, stats.records_skipped,
                 stats.valid_bytes, stats.torn_bytes);
    auto journal_or = gmdj::spill::JournalWriter::Open(flags.journal_path,
                                                       stats.valid_bytes);
    if (!journal_or.ok()) {
      std::fprintf(stderr, "--journal open failed: %s\n",
                   journal_or.status().message().c_str());
      return 1;
    }
    journal = std::move(journal_or).ValueOrDie();
    engine.set_journal(journal.get());
  }

  if (!flags.snapshot_dir.empty()) {
    // Fold the replayed mutations into a fresh snapshot (and truncate
    // the journal) so the next restart replays from a short log.
    const gmdj::Status saved = engine.SaveSnapshot(flags.snapshot_dir);
    if (!saved.ok()) {
      std::fprintf(stderr, "--save-snapshot failed: %s\n",
                   saved.message().c_str());
      return 1;
    }
    std::fprintf(stderr, "saved snapshot to %s\n", flags.snapshot_dir.c_str());
  }

  gmdj::server::QueryServer server(&engine, flags.server);
  const gmdj::Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "start failed: %s\n", status.message().c_str());
    return 1;
  }
  // The driver and scripts scrape this line for the bound port.
  std::printf("listening on %s:%d\n", flags.server.host.c_str(),
              server.port());
  std::fflush(stdout);

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "pipe failed\n");
    return 1;
  }
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);

  std::thread watcher([&server] {
    char byte;
    if (::read(g_signal_pipe[0], &byte, 1) > 0) server.Shutdown();
  });

  server.Wait();  // Returns once drained (signal or POST /shutdown).
  OnSignal(0);    // Unblock the watcher if /shutdown got here first.
  watcher.join();
  std::fprintf(stderr, "drained, exiting\n");
  return 0;
}
