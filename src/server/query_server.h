#ifndef GMDJ_SERVER_QUERY_SERVER_H_
#define GMDJ_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "engine/olap_engine.h"
#include "server/admission.h"
#include "server/http.h"
#include "server/session.h"
#include "sql/parser.h"

namespace gmdj {
namespace server {

/// Knobs of one server instance. Defaults suit the demo warehouse; the
/// serve binary exposes each as a --flag.
struct ServerConfig {
  std::string host = "127.0.0.1";
  int port = 8080;  // 0 = bind an ephemeral port (read back via port()).

  /// Worker threads executing admitted queries. 0 = hardware/2 (leaves
  /// cores for the engine's own morsel parallelism).
  size_t workers = 0;
  /// Bounded admission queue; a full queue answers 503.
  size_t queue_capacity = 256;
  /// Concurrent connections; excess connections are refused with 503.
  size_t max_connections = 128;
  size_t max_body_bytes = 1 << 20;
  /// Graceful shutdown lets in-flight + queued queries finish for this
  /// long, then cancels their tokens.
  double drain_deadline_ms = 5000.0;
  /// Strategy when the request carries no X-Strategy header.
  Strategy default_strategy = Strategy::kGmdjOptimized;

  // --- Overload protection (0 disables each knob) ---

  /// SO_RCVTIMEO/SO_SNDTIMEO on accepted sockets: a slow-loris request
  /// or a peer that stops draining a response frees the connection
  /// thread after this long (408 mid-request, disconnect mid-response)
  /// instead of pinning it forever.
  uint64_t socket_timeout_ms = 30000;
  /// Queue-latency shed bound: before popping, workers drop queued jobs
  /// that have waited longer than this while strictly-higher-priority
  /// work (X-Priority header) is also queued. Shed jobs answer 503 +
  /// Retry-After. 0 = never shed.
  uint64_t shed_after_ms = 0;
  /// Retry-After hint (milliseconds) attached to overload rejections
  /// (429/503): full queue, eviction, shedding, draining.
  uint64_t retry_after_ms = 100;
  /// Circuit breaker: this many *consecutive* governed aborts (memory
  /// rejection / deadline exceeded) trip a session's breaker — its
  /// queries are refused up front with 503 + Retry-After for
  /// `breaker_cooldown_ms`, sparing the worker pool queries that will
  /// only burn a governance budget before failing. Named sessions only:
  /// the shared anonymous session is exempt, so one misbehaving
  /// headerless client cannot 503 all anonymous traffic. 0 = no breaker.
  size_t breaker_threshold = 8;
  uint64_t breaker_cooldown_ms = 2000;
  /// Named sessions idle longer than this (no connections, nothing in
  /// flight) are expired and their per-tenant gauge series removed from
  /// the registry. 0 = sessions live forever.
  int64_t session_ttl_ms = 15 * 60 * 1000;
};

/// Multi-tenant HTTP/1.1 front end over one OlapEngine (DESIGN.md §10).
///
/// Endpoints:
///   POST /query     SQL body -> result rows (JSON, or TSV under
///                   "X-Format: tsv"). Headers: X-Session, X-Priority
///                   (overload shedding rank, default 0), and per-request
///                   governance overrides X-Deadline-Ms /
///                   X-Mem-Budget-Bytes / X-Threads / X-Strategy.
///                   INSERT INTO ... VALUES statements execute inline
///                   (journaled when the engine has a journal attached)
///                   and answer {"inserted": N}.
///   POST /explain   SQL body -> EXPLAIN ANALYZE text (plain text).
///   POST /session   Create a session whose X-Deadline-Ms /
///                   X-Mem-Budget-Bytes / X-Threads headers become the
///                   session's standing defaults -> {"session": "s-1"}.
///                   With X-Session: replace that session's defaults.
///   POST /config    Idle-only admin: X-Mqo-Cache on|off toggles the MQO
///                   aggregate cache.
///   POST /shutdown  Begin graceful drain (also SIGTERM in the binary).
///   GET  /health    {"status": "ok"|"draining", in-flight/queue depths}.
///   GET  /metrics   Engine MetricRegistry snapshot as JSON — includes
///                   the server.* counters/histograms, which live in the
///                   same registry.
///
/// Overload behavior: the bounded admission queue rejects with 503 when
/// full, but a higher-priority push evicts the newest lower-priority
/// queued job first; workers shed jobs that out-wait `shed_after_ms`
/// behind higher-priority work; per-session circuit breakers refuse
/// tenants whose queries keep aborting on governance limits; overload
/// rejections carry Retry-After / Retry-After-Ms headers.
///
/// Lifecycle: Start() binds and spawns the acceptor/worker threads;
/// Shutdown() (idempotent, callable from any thread) stops accepting and
/// begins the drain; Wait() blocks until drained and joined. The engine
/// must outlive the server. Catalog mutations (INSERT) go through the
/// engine's own catalog lock, so they are safe against in-flight reads.
class QueryServer {
 public:
  QueryServer(OlapEngine* engine, ServerConfig config);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  Status Start();
  void Shutdown();
  void Wait();

  /// The bound port (differs from config.port when it was 0).
  int port() const { return port_; }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  SessionManager* sessions() { return &sessions_; }

 private:
  /// One admitted /query or /explain request, owned jointly by the
  /// connection thread (waits + writes the response) and a worker
  /// (executes + signals).
  struct Job {
    // Inputs.
    SqlStatement statement;  // Parsed by the connection thread.
    Strategy strategy = Strategy::kGmdjOptimized;
    SessionLimits limits;  // Session defaults + request overrides.
    bool explain = false;  // /explain endpoint (plan text result).
    std::shared_ptr<Session> session;

    // Outputs.
    std::optional<Result<Table>> result;
    QueryRun run;
    bool shed = false;  // Dropped by overload shedding/eviction, not run.

    // Completion latch.
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };

  struct Conn {
    int fd = -1;
    std::thread thread;
    std::atomic<bool> finished{false};
    /// True from the moment a complete request is parsed until its
    /// response is written. The drain in Wait() force-closes only idle
    /// connections; a busy one is allowed to deliver its response and
    /// then exits on its own (ConnectionLoop checks draining_).
    std::atomic<bool> busy{false};
    /// The session the most recent request on this connection ran under;
    /// only the connection thread touches it. Backs the per-tenant
    /// connection-count gauges.
    std::shared_ptr<Session> session;
  };

  void AcceptLoop();
  void ConnectionLoop(Conn* conn);
  void WorkerLoop();

  /// Re-points `conn` at `session`, moving its count between the two
  /// sessions' connection gauges.
  static void BindConnection(Conn* conn, std::shared_ptr<Session> session);

  /// Dispatches one parsed request; fills `response`. Returns false when
  /// the connection should close afterwards.
  bool HandleRequest(Conn* conn, const HttpRequest& request,
                     HttpResponse* response);
  HttpResponse HandleQuery(Conn* conn, const HttpRequest& request,
                           bool explain);
  HttpResponse HandleSession(Conn* conn, const HttpRequest& request);
  HttpResponse HandleConfig(const HttpRequest& request);
  HttpResponse HandleHealth();
  HttpResponse HandleMetrics();

  /// Runs one popped job through the engine and signals it.
  void ExecuteJob(const std::shared_ptr<Job>& job);

  /// Completes a job that was dropped without executing (evicted by a
  /// higher-priority push or shed by a worker): records `status`, undoes
  /// the admission accounting, and wakes its connection thread.
  void ShedJob(const std::shared_ptr<Job>& job, Status status);

  /// Expires idle named sessions (config_.session_ttl_ms) and removes
  /// their per-tenant gauge series from the metric registry.
  void PruneSessions();

  /// Parses governance headers (X-Deadline-Ms, X-Mem-Budget-Bytes,
  /// X-Threads) into a SessionLimits override.
  static SessionLimits LimitsFromHeaders(const HttpRequest& request);

  void ReapConnections();

  OlapEngine* const engine_;
  const ServerConfig config_;
  SessionManager sessions_;
  AdmissionQueue<std::shared_ptr<Job>> queue_;

  /// Admission gate: /query pushes onto the queue (and bumps `pending_`)
  /// while holding this, and /config holds it for the whole config
  /// change. `pending_` counts jobs from admission until ExecuteJob or
  /// ShedJob completes them, so `pending_ == 0` under the gate means no
  /// query is queued or executing — and none can be admitted — for the
  /// duration of the change (no check-then-act window).
  std::mutex config_mu_;
  std::atomic<size_t> pending_{0};

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};
  std::chrono::steady_clock::time_point start_time_;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::mutex conns_mu_;
  std::list<std::unique_ptr<Conn>> conns_;
  std::atomic<size_t> open_connections_{0};

  /// Jobs currently executing, so the drain watchdog can cancel their
  /// tokens past the deadline.
  std::mutex active_mu_;
  std::condition_variable active_cv_;
  std::unordered_set<Job*> active_jobs_;
  std::atomic<size_t> in_flight_{0};

  /// Sessions whose per-id gauge series exist in the registry. Expired
  /// sessions are removed (PruneSessions deletes their gauges), and as a
  /// safety valve the set is still capped at kMaxSessionGaugeSeries
  /// (query_server.cc) so a burst of hostile session minting cannot grow
  /// the registry faster than the TTL reclaims it. Guarded by
  /// `metrics_mu_` (concurrent GET /metrics handlers).
  std::mutex metrics_mu_;
  std::unordered_set<std::string> published_sessions_;

  // Registry handles (engine->metrics()), resolved once.
  obs::Counter* m_accepted_;
  obs::Counter* m_rejected_;
  obs::Counter* m_bytes_in_;
  obs::Counter* m_bytes_out_;
  obs::Counter* m_disconnect_cancels_;
  obs::Counter* m_inserts_;
  obs::Counter* m_shed_;
  obs::Counter* m_evicted_;
  obs::Counter* m_breaker_trips_;
  obs::Gauge* g_in_flight_;
  obs::Gauge* g_open_connections_;
  obs::Histogram* h_query_us_;
  obs::Histogram* h_explain_us_;
  obs::Histogram* h_health_us_;
  obs::Histogram* h_metrics_us_;
};

}  // namespace server
}  // namespace gmdj

#endif  // GMDJ_SERVER_QUERY_SERVER_H_
