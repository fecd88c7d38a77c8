#include "server/query_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/byte_size.h"
#include "server/wire.h"

namespace gmdj {
namespace server {

namespace {

/// Poll granularity for the accept loop (drain checks) and the
/// connection thread's disconnect watch while a query executes.
constexpr int kPollMs = 20;

/// Cap on sessions that get per-id `server.session.<id>.*` gauge series.
/// Idle-session pruning deletes a session's gauges when it expires, but
/// the TTL is minutes — without a cap a burst of hostile session minting
/// could still grow the registry (and every /metrics payload) faster
/// than expiry reclaims it.
constexpr size_t kMaxSessionGaugeSeries = 64;

bool EqualsIgnoreCase(const std::string& a, const char* b) {
  size_t i = 0;
  for (; i < a.size() && b[i] != '\0'; ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return i == a.size() && b[i] == '\0';
}

/// True once the peer has hung up: an orderly FIN (recv MSG_PEEK == 0) or
/// a reset. Pending request bytes (which we would see as POLLIN with
/// data) do not count — the protocol has no pipelining, so they are the
/// client's problem, not a disconnect.
bool PeerClosed(int fd) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = POLLIN;
  pfd.revents = 0;
  if (::poll(&pfd, 1, 0) <= 0) return false;
  if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) return true;
  if ((pfd.revents & (POLLIN | POLLHUP)) != 0) {
    char byte;
    const ssize_t n = ::recv(fd, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n == 0) return true;
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return true;
    }
  }
  return false;
}

bool ParseStrategyName(const std::string& name, Strategy* out) {
  // Delegates to the canonical parser (planner/strategy.h), which also
  // accepts "auto" — the cost-based planner picks per query.
  const std::optional<Strategy> parsed = StrategyFromName(name);
  if (!parsed.has_value()) return false;
  *out = *parsed;
  return true;
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

HttpResponse ErrorResponse(int http_status, const Status& status) {
  HttpResponse response;
  response.status = http_status;
  response.body = StatusToJson(status);
  return response;
}

/// Overload rejection: like ErrorResponse, plus Retry-After (whole
/// seconds, rounded up, per RFC 9110) and the finer-grained
/// Retry-After-Ms that the in-repo client prefers.
HttpResponse ErrorResponseRetry(int http_status, const Status& status,
                                uint64_t retry_after_ms) {
  HttpResponse response = ErrorResponse(http_status, status);
  if (retry_after_ms > 0) {
    response.extra_headers.emplace_back(
        "Retry-After", std::to_string((retry_after_ms + 999) / 1000));
    response.extra_headers.emplace_back("Retry-After-Ms",
                                        std::to_string(retry_after_ms));
  }
  return response;
}

/// Renders the one-string-column "plan" table EXPLAIN [ANALYZE] returns
/// as plain text, one line per row.
std::string PlanTableToText(const Table& table) {
  std::string out;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (table.num_columns() > 0) out += table.cell(r, 0).ToString();
    out += '\n';
  }
  return out;
}

}  // namespace

QueryServer::QueryServer(OlapEngine* engine, ServerConfig config)
    : engine_(engine),
      config_(std::move(config)),
      queue_(config_.queue_capacity) {
  obs::MetricRegistry* reg = engine_->metrics();
  m_accepted_ = reg->GetCounter("server.requests_accepted");
  m_rejected_ = reg->GetCounter("server.requests_rejected");
  m_bytes_in_ = reg->GetCounter("server.bytes_in");
  m_bytes_out_ = reg->GetCounter("server.bytes_out");
  m_disconnect_cancels_ = reg->GetCounter("server.disconnect_cancels");
  m_inserts_ = reg->GetCounter("server.rows_inserted");
  m_shed_ = reg->GetCounter("server.jobs_shed");
  m_evicted_ = reg->GetCounter("server.jobs_evicted");
  m_breaker_trips_ = reg->GetCounter("server.breaker_trips");
  g_in_flight_ = reg->GetGauge("server.in_flight");
  g_open_connections_ = reg->GetGauge("server.open_connections");
  h_query_us_ = reg->GetHistogram("server.query_us");
  h_explain_us_ = reg->GetHistogram("server.explain_us");
  h_health_us_ = reg->GetHistogram("server.health_us");
  h_metrics_us_ = reg->GetHistogram("server.metrics_us");
}

QueryServer::~QueryServer() {
  Shutdown();
  Wait();
}

Status QueryServer::Start() {
  if (started_.load()) return Status::Internal("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host '" + config_.host + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) != 0) {
    const Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  // Non-blocking so the accept loop can interleave drain checks.
  ::fcntl(listen_fd_, F_SETFL,
          ::fcntl(listen_fd_, F_GETFL, 0) | O_NONBLOCK);

  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                &addr_len);
  port_ = ntohs(addr.sin_port);

  start_time_ = std::chrono::steady_clock::now();
  started_.store(true);

  size_t workers = config_.workers;
  if (workers == 0) {
    const size_t hw = std::thread::hardware_concurrency();
    workers = hw > 4 ? hw / 2 : 2;
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back(&QueryServer::WorkerLoop, this);
  }
  accept_thread_ = std::thread(&QueryServer::AcceptLoop, this);
  return Status::OK();
}

void QueryServer::Shutdown() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  queue_.Close();
  // Wake a Wait() blocked on the shutdown signal (it shares active_cv_).
  std::lock_guard<std::mutex> lock(active_mu_);
  active_cv_.notify_all();
}

void QueryServer::Wait() {
  if (!started_.load()) return;

  // Block until someone calls Shutdown() (signal handler, /shutdown
  // endpoint, or a test).
  {
    std::unique_lock<std::mutex> lock(active_mu_);
    active_cv_.wait(lock, [&] { return draining_.load(); });
  }

  if (accept_thread_.joinable()) accept_thread_.join();

  // Drain watchdog: give queued + in-flight queries drain_deadline_ms,
  // then cancel whatever is still running. Queued jobs popped after the
  // deadline are cancelled as soon as they surface in active_jobs_.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(
          static_cast<int64_t>(config_.drain_deadline_ms * 1000.0));
  {
    // `pending_` covers queued, popped-but-unregistered, and executing
    // jobs, so the loop cannot exit while a worker holds a job it has
    // not yet surfaced in active_jobs_.
    std::unique_lock<std::mutex> lock(active_mu_);
    while (pending_.load() > 0) {
      if (std::chrono::steady_clock::now() >= deadline) {
        for (Job* job : active_jobs_) job->limits.cancel.Cancel();
        active_cv_.wait_for(lock, std::chrono::milliseconds(kPollMs));
      } else {
        active_cv_.wait_until(lock, deadline);
      }
    }
  }

  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();

  // Wake connection threads blocked in recv on idle keep-alive sockets,
  // then join them. A busy connection is mid-response for a job that
  // just drained — severing it here would eat the reply the drain
  // waited for, so it is left alone; it exits after the write because
  // draining_ is set.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) {
      if (!conn->finished.load() && !conn->busy.load()) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) {
      if (conn->thread.joinable()) conn->thread.join();
      if (conn->fd >= 0) ::close(conn->fd);
    }
    conns_.clear();
  }

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  started_.store(false);
}

void QueryServer::AcceptLoop() {
  while (!draining_.load()) {
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (draining_.load()) break;
    if (ready <= 0) continue;

    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK ||
          errno == ECONNABORTED) {
        continue;
      }
      break;  // Listen socket gone.
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (config_.socket_timeout_ms > 0) {
      // Hard per-syscall deadlines: a stalled (slow-loris) request or a
      // peer that stops draining a response surfaces as EAGAIN, which
      // the HTTP layer maps to a typed timeout — the connection thread
      // frees itself instead of blocking on a dead socket forever.
      struct timeval tv;
      tv.tv_sec = static_cast<time_t>(config_.socket_timeout_ms / 1000);
      tv.tv_usec = static_cast<suseconds_t>(
          (config_.socket_timeout_ms % 1000) * 1000);
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }

    ReapConnections();
    PruneSessions();
    if (open_connections_.load() >= config_.max_connections) {
      HttpResponse response = ErrorResponseRetry(
          503, Status::ResourceExhausted("connection limit reached"),
          config_.retry_after_ms);
      response.close = true;
      WriteHttpResponse(fd, response);
      ::close(fd);
      m_rejected_->Add(1);
      continue;
    }

    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    Conn* raw = conn.get();
    open_connections_.fetch_add(1);
    g_open_connections_->Set(static_cast<int64_t>(open_connections_.load()));
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread(&QueryServer::ConnectionLoop, this, raw);
  }
}

void QueryServer::ReapConnections() {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->finished.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      if ((*it)->fd >= 0) ::close((*it)->fd);
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void QueryServer::ConnectionLoop(Conn* conn) {
  std::string buffer;
  HttpLimits limits;
  limits.max_body_bytes = config_.max_body_bytes;

  bool keep = true;
  while (keep) {
    HttpRequest request;
    Status read_error;
    size_t bytes_read = 0;
    const ReadResult result = ReadHttpRequest(conn->fd, limits, &buffer,
                                              &request, &bytes_read,
                                              &read_error);
    m_bytes_in_->Add(bytes_read);
    if (result == ReadResult::kClosed) break;
    if (result == ReadResult::kError) {
      // Typed read failures keep their HTTP meaning: an oversize request
      // line / header block is 431, a socket deadline firing mid-request
      // is 408; everything else is a plain 400.
      int http_status = 400;
      if (read_error.code() == StatusCode::kResourceExhausted) {
        http_status = 431;
      } else if (read_error.code() == StatusCode::kDeadlineExceeded) {
        http_status = 408;
      }
      HttpResponse response = ErrorResponse(http_status, read_error);
      response.close = true;
      size_t written = 0;
      WriteHttpResponse(conn->fd, response, &written);
      m_bytes_out_->Add(written);
      break;
    }

    conn->busy.store(true);
    HttpResponse response;
    keep = HandleRequest(conn, request, &response);
    if (request.WantsClose()) keep = false;
    // During a drain the in-flight response is still delivered, but the
    // keep-alive ends with it so the thread exits instead of blocking in
    // recv until Wait() severs the socket.
    if (draining_.load()) keep = false;
    response.close = !keep;
    size_t written = 0;
    if (!WriteHttpResponse(conn->fd, response, &written).ok()) keep = false;
    m_bytes_out_->Add(written);
    conn->busy.store(false);
  }

  // FIN promptly; the fd itself is closed at reap/join time.
  BindConnection(conn, nullptr);
  ::shutdown(conn->fd, SHUT_RDWR);
  open_connections_.fetch_sub(1);
  g_open_connections_->Set(static_cast<int64_t>(open_connections_.load()));
  conn->finished.store(true);
}

void QueryServer::BindConnection(Conn* conn,
                                 std::shared_ptr<Session> session) {
  if (conn->session == session) return;
  if (conn->session != nullptr) conn->session->connections.fetch_sub(1);
  if (session != nullptr) session->connections.fetch_add(1);
  conn->session = std::move(session);
}

bool QueryServer::HandleRequest(Conn* conn, const HttpRequest& request,
                                HttpResponse* response) {
  std::string target = request.target;
  const size_t qmark = target.find('?');
  if (qmark != std::string::npos) target.resize(qmark);
  const auto started = std::chrono::steady_clock::now();

  if (request.method == "GET") {
    if (target == "/health") {
      *response = HandleHealth();
      h_health_us_->Record(ElapsedUs(started));
      return true;
    }
    if (target == "/metrics") {
      *response = HandleMetrics();
      h_metrics_us_->Record(ElapsedUs(started));
      return true;
    }
    *response = ErrorResponse(404, Status::NotFound("no such endpoint: " +
                                                    target));
    return true;
  }

  if (request.method != "POST") {
    *response = ErrorResponse(
        405, Status::InvalidArgument("method not allowed: " + request.method));
    return true;
  }

  if (target == "/query" || target == "/explain") {
    const bool explain = target == "/explain";
    *response = HandleQuery(conn, request, explain);
    (explain ? h_explain_us_ : h_query_us_)->Record(ElapsedUs(started));
    return true;
  }
  if (target == "/session") {
    *response = HandleSession(conn, request);
    return true;
  }
  if (target == "/config") {
    *response = HandleConfig(request);
    return true;
  }
  if (target == "/shutdown") {
    Shutdown();
    response->body = "{\"status\": \"draining\"}";
    return false;  // Close this connection once the response is written.
  }
  *response = ErrorResponse(404, Status::NotFound("no such endpoint: " +
                                                  target));
  return true;
}

SessionLimits QueryServer::LimitsFromHeaders(const HttpRequest& request) {
  SessionLimits limits;  // Carries this request's fresh cancellation token.
  const std::string deadline = request.Header("x-deadline-ms");
  if (!deadline.empty()) limits.deadline_ms = std::strtod(deadline.c_str(),
                                                          nullptr);
  const std::string budget = request.Header("x-mem-budget-bytes");
  if (!budget.empty()) {
    // Shared parser (common/byte_size.h): accepts "65536" and "64mb"
    // alike, the same forms the bench flags take. Unparseable values are
    // ignored (keeps the header best-effort, as before).
    auto bytes_or = ParseByteSize(budget);
    if (bytes_or.ok()) limits.mem_budget_bytes = bytes_or.ValueOrDie();
  }
  const std::string threads = request.Header("x-threads");
  if (!threads.empty()) {
    limits.num_threads =
        static_cast<size_t>(std::strtoull(threads.c_str(), nullptr, 10));
  }
  return limits;
}

HttpResponse QueryServer::HandleQuery(Conn* conn, const HttpRequest& request,
                                      bool explain) {
  const int fd = conn->fd;
  if (draining_.load()) {
    m_rejected_->Add(1);
    return ErrorResponseRetry(503,
                              Status::ResourceExhausted("server is draining"),
                              config_.retry_after_ms);
  }

  auto session_or = sessions_.Get(request.Header("x-session"));
  if (!session_or.ok()) {
    m_rejected_->Add(1);
    return ErrorResponse(404, session_or.status());
  }
  std::shared_ptr<Session> session = std::move(session_or).ValueOrDie();
  BindConnection(conn, session);
  session->last_active_ms.store(SteadyNowMs(), std::memory_order_relaxed);

  // Circuit breaker: a tenant whose queries keep aborting on governance
  // limits is refused up front until the cooldown lapses, so its doomed
  // queries stop burning worker time and governance budget. Named
  // sessions only — every headerless client shares the one anonymous
  // session, and a breaker keyed on it would let a single misbehaving
  // client 503 all anonymous traffic.
  if (config_.breaker_threshold > 0 && !session->id().empty()) {
    const int64_t open_until = session->breaker_open_until_ms.load();
    const int64_t now = SteadyNowMs();
    if (open_until > now) {
      m_rejected_->Add(1);
      session->rejected.fetch_add(1);
      return ErrorResponseRetry(
          503,
          Status::ResourceExhausted(
              "session circuit breaker open (consecutive governed aborts)"),
          static_cast<uint64_t>(open_until - now));
    }
  }

  Strategy strategy = config_.default_strategy;
  const std::string strategy_name = request.Header("x-strategy");
  if (!strategy_name.empty() && !ParseStrategyName(strategy_name, &strategy)) {
    m_rejected_->Add(1);
    return ErrorResponse(400, Status::InvalidArgument(
                                  "unknown strategy '" + strategy_name + "'"));
  }

  std::string sql = request.body;
  if (explain) {
    // The /explain endpoint is sugar for EXPLAIN ANALYZE <query>; accept
    // bodies that already spell the prefix out.
    size_t start = 0;
    while (start < sql.size() &&
           std::isspace(static_cast<unsigned char>(sql[start]))) {
      ++start;
    }
    std::string head = sql.substr(start, 7);
    for (char& c : head) c = static_cast<char>(std::toupper(c));
    if (head != "EXPLAIN") sql = "EXPLAIN ANALYZE " + sql;
  }

  // Parse up front: syntax errors answer immediately (with the offending
  // token's byte offset) without consuming a queue slot.
  auto statement_or = ParseStatement(sql);
  if (!statement_or.ok()) {
    m_rejected_->Add(1);
    session->rejected.fetch_add(1);
    return ErrorResponse(400, statement_or.status());
  }
  SqlStatement statement = std::move(statement_or).ValueOrDie();

  // INSERT executes inline on the connection thread: it takes the
  // engine's exclusive catalog lock for a row append (cheap), is
  // journaled before it is applied when the engine has a WAL attached,
  // and must not wait in the admission queue behind reads.
  if (statement.kind == SqlStatement::Kind::kInsert) {
    const size_t inserted = statement.insert_rows.size();
    const std::string table = statement.insert_table;
    const Status status =
        engine_->AppendRows(table, std::move(statement.insert_rows));
    if (!status.ok()) {
      m_rejected_->Add(1);
      session->rejected.fetch_add(1);
      return ErrorResponse(HttpStatusFor(status), status);
    }
    m_inserts_->Add(static_cast<int64_t>(inserted));
    session->queries.fetch_add(1);
    HttpResponse response;
    response.body = "{\"status\": \"ok\", \"inserted\": " +
                    std::to_string(inserted) + ", \"table\": \"" +
                    JsonEscape(table) + "\"}";
    return response;
  }

  // SAVE/RESTORE SNAPSHOT are admin statements: they read/write
  // server-local filesystem paths of the caller's choosing, and restore
  // swaps catalog tables out from under concurrently executing queries.
  // Over the network that is an unauthenticated file-I/O primitive plus
  // a use-after-free, so they are local-surface only (shell, ExecuteSql,
  // gmdj_serve --restore at boot).
  // ANALYZE rides the normal query path below: a bounded statistics
  // scan, safe to serve.
  if (statement.kind != SqlStatement::Kind::kSelect &&
      statement.kind != SqlStatement::Kind::kAnalyze) {
    m_rejected_->Add(1);
    session->rejected.fetch_add(1);
    return ErrorResponse(
        403, Status::InvalidArgument(
                 "snapshot statements are not served over HTTP; use the "
                 "shell \\snapshot/\\restore or gmdj_serve --restore"));
  }

  auto job = std::make_shared<Job>();
  job->statement = std::move(statement);
  job->strategy = strategy;
  job->limits = session->defaults().Overridden(LimitsFromHeaders(request));
  job->explain = explain;
  job->session = session;

  // Shedding rank: a full queue evicts the newest strictly-lower-priority
  // queued job to admit this one, and workers shed overdue lower-priority
  // jobs first under sustained overload. Uniform priorities (the default)
  // degrade to plain full-queue rejection.
  int priority = 0;
  const std::string priority_header = request.Header("x-priority");
  if (!priority_header.empty()) {
    priority = std::atoi(priority_header.c_str());
  }

  bool admitted;
  std::shared_ptr<Job> evicted;
  {
    // Under the config gate, so /config's idle check can exclude
    // admissions; `pending_` is bumped before the gate is released.
    // The per-tenant in-flight count is bumped before the push too —
    // ExecuteJob's decrement can land as soon as a worker can pop, so
    // incrementing after would let the gauge transiently read -1.
    std::lock_guard<std::mutex> gate(config_mu_);
    session->in_flight.fetch_add(1);  // Dropped by ExecuteJob/ShedJob.
    admitted = queue_.TryPush(job, priority, &evicted);
    if (admitted) {
      pending_.fetch_add(1);
    } else {
      session->in_flight.fetch_sub(1);
    }
  }
  if (evicted != nullptr) {
    m_evicted_->Add(1);
    ShedJob(evicted, Status::ResourceExhausted(
                         "evicted from the admission queue by a "
                         "higher-priority request"));
  }
  if (!admitted) {
    m_rejected_->Add(1);
    session->rejected.fetch_add(1);
    return ErrorResponseRetry(
        503,
        Status::ResourceExhausted("admission queue full (capacity " +
                                  std::to_string(config_.queue_capacity) +
                                  ")"),
        config_.retry_after_ms);
  }
  m_accepted_->Add(1);
  session->queries.fetch_add(1);

  // Wait for a worker, watching the socket: a client that hangs up
  // cancels its own query (and only its own — the token is per-request).
  bool cancelled = false;
  {
    std::unique_lock<std::mutex> lock(job->mu);
    while (!job->done) {
      job->cv.wait_for(lock, std::chrono::milliseconds(kPollMs));
      if (!job->done && !cancelled && PeerClosed(fd)) {
        job->limits.cancel.Cancel();
        m_disconnect_cancels_->Add(1);
        cancelled = true;
      }
    }
  }

  Result<Table>& result = *job->result;
  if (!result.ok()) {
    session->rejected.fetch_add(1);
    if (job->shed) {
      // Dropped by overload shedding/eviction without executing — not
      // the tenant's fault, so it does not count toward the breaker.
      return ErrorResponseRetry(503, result.status(),
                                config_.retry_after_ms);
    }
    const StatusCode code = result.status().code();
    if (config_.breaker_threshold > 0 && !session->id().empty() &&
        (code == StatusCode::kResourceExhausted ||
         code == StatusCode::kDeadlineExceeded)) {
      // A governed abort: the query ran and burned its budget before
      // failing. Enough in a row trips the breaker. The count is left
      // standing on a trip, so a failure right after the cooldown
      // (half-open probe) re-trips immediately; only success resets.
      const uint64_t aborts = session->governed_aborts.fetch_add(1) + 1;
      if (aborts >= config_.breaker_threshold) {
        session->breaker_open_until_ms.store(
            SteadyNowMs() +
            static_cast<int64_t>(config_.breaker_cooldown_ms));
        m_breaker_trips_->Add(1);
      }
    }
    const int http_status = HttpStatusFor(result.status());
    if (http_status == 429 || http_status == 503) {
      return ErrorResponseRetry(http_status, result.status(),
                                config_.retry_after_ms);
    }
    return ErrorResponse(http_status, result.status());
  }
  session->governed_aborts.store(0);

  HttpResponse response;
  if (explain) {
    response.content_type = "text/plain";
    response.body = PlanTableToText(result.ValueOrDie());
  } else if (EqualsIgnoreCase(request.Header("x-format"), "tsv")) {
    response.content_type = "text/tab-separated-values";
    response.body = TableToTsv(result.ValueOrDie());
  } else {
    response.body = TableToJson(result.ValueOrDie(), job->run.elapsed_ms,
                                StrategyToString(job->strategy));
  }
  return response;
}

HttpResponse QueryServer::HandleSession(Conn* conn,
                                        const HttpRequest& request) {
  const SessionLimits limits = LimitsFromHeaders(request);
  std::shared_ptr<Session> session;
  const std::string id = request.Header("x-session");
  if (!id.empty()) {
    auto session_or = sessions_.Get(id);
    if (!session_or.ok()) return ErrorResponse(404, session_or.status());
    session = std::move(session_or).ValueOrDie();
    session->set_defaults(limits);
  } else {
    session = sessions_.Create(limits);
  }
  session->last_active_ms.store(SteadyNowMs(), std::memory_order_relaxed);
  BindConnection(conn, session);
  HttpResponse response;
  response.body = "{\"status\": \"ok\", \"session\": \"" +
                  JsonEscape(session->id()) + "\", \"deadline_ms\": " +
                  std::to_string(limits.deadline_ms) +
                  ", \"mem_budget_bytes\": " +
                  std::to_string(limits.mem_budget_bytes) +
                  ", \"num_threads\": " + std::to_string(limits.num_threads) +
                  "}";
  return response;
}

HttpResponse QueryServer::HandleConfig(const HttpRequest& request) {
  // The cache toggle is an admin knob for A/B runs (the load driver
  // flips it between sweeps); it must not race live queries.
  // Holding the admission gate for the whole handler blocks new /query
  // admissions, and `pending_` covers queued + executing jobs, so the
  // idle check cannot race an admission on another connection.
  std::lock_guard<std::mutex> gate(config_mu_);
  if (pending_.load() > 0) {
    return ErrorResponse(
        409, Status::InvalidArgument(
                 "/config requires an idle server (queries in flight)"));
  }
  const std::string cache = request.Header("x-mqo-cache");
  if (!cache.empty()) {
    if (EqualsIgnoreCase(cache, "on")) {
      GmdjAggCacheConfig cache_config;
      const std::string mb = request.Header("x-cache-mb");
      if (!mb.empty()) {
        cache_config.byte_budget =
            static_cast<size_t>(std::strtoull(mb.c_str(), nullptr, 10))
            << 20;
      }
      engine_->EnableAggCache(cache_config);
    } else if (EqualsIgnoreCase(cache, "off")) {
      engine_->DisableAggCache();
    } else {
      return ErrorResponse(400, Status::InvalidArgument(
                                    "X-Mqo-Cache must be 'on' or 'off'"));
    }
  }
  HttpResponse response;
  response.body = std::string("{\"status\": \"ok\", \"mqo_cache\": ") +
                  (engine_->agg_cache() != nullptr ? "true" : "false") + "}";
  return response;
}

HttpResponse QueryServer::HandleHealth() {
  HttpResponse response;
  response.body =
      std::string("{\"status\": \"") + (draining_.load() ? "draining" : "ok") +
      "\", \"in_flight\": " + std::to_string(in_flight_.load()) +
      ", \"queued\": " + std::to_string(queue_.size()) +
      ", \"open_connections\": " + std::to_string(open_connections_.load()) +
      ", \"sessions\": " + std::to_string(sessions_.size()) +
      ", \"uptime_ms\": " + std::to_string(ElapsedUs(start_time_) / 1000) +
      "}";
  return response;
}

HttpResponse QueryServer::HandleMetrics() {
  PruneSessions();
  obs::MetricRegistry* reg = engine_->metrics();
  reg->GetGauge("server.queued")->Set(static_cast<int64_t>(queue_.size()));
  // Per-tenant gauges: refresh each published session's connection and
  // in-flight counts right before the snapshot. A session is "active"
  // while it has a bound connection or a query between admission and
  // completion. Idle expiry (PruneSessions above) removes a dead
  // session's gauge series; kMaxSessionGaugeSeries remains as a safety
  // valve against a minting burst outpacing the TTL — sessions past the
  // cap are counted only in the server.sessions* aggregates until the
  // pruner frees slots.
  int64_t active_sessions = 0;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    for (const auto& session : sessions_.List()) {
      const int64_t connections = session->connections.load();
      const int64_t in_flight = session->in_flight.load();
      if (connections > 0 || in_flight > 0) ++active_sessions;
      const std::string id =
          session->id().empty() ? std::string("anonymous") : session->id();
      if (published_sessions_.count(id) == 0) {
        if (published_sessions_.size() >= kMaxSessionGaugeSeries) continue;
        published_sessions_.insert(id);
      }
      const std::string prefix = "server.session." + id;
      reg->GetGauge(prefix + ".connections")->Set(connections);
      reg->GetGauge(prefix + ".in_flight")->Set(in_flight);
      reg->GetGauge(prefix + ".queries")
          ->Set(static_cast<int64_t>(session->queries.load()));
      reg->GetGauge(prefix + ".rejected")
          ->Set(static_cast<int64_t>(session->rejected.load()));
    }
  }
  reg->GetGauge("server.sessions")
      ->Set(static_cast<int64_t>(sessions_.size()));
  reg->GetGauge("server.sessions_active")->Set(active_sessions);
  HttpResponse response;
  response.body = engine_->SnapshotMetrics().ToJson();
  return response;
}

void QueryServer::PruneSessions() {
  if (config_.session_ttl_ms <= 0) return;
  const std::vector<std::string> pruned =
      sessions_.PruneIdle(SteadyNowMs(), config_.session_ttl_ms);
  if (pruned.empty()) return;
  obs::MetricRegistry* reg = engine_->metrics();
  std::lock_guard<std::mutex> lock(metrics_mu_);
  for (const std::string& id : pruned) {
    if (published_sessions_.erase(id) > 0) {
      // Safe to delete: per-session gauges are re-resolved by name on
      // every /metrics pass (never cached), and `metrics_mu_` excludes a
      // concurrent pass holding one.
      reg->RemoveGaugesWithPrefix("server.session." + id + ".");
    }
  }
}

void QueryServer::WorkerLoop() {
  while (true) {
    if (config_.shed_after_ms > 0) {
      // Adaptive load shedding: before taking more work, drop queued
      // jobs that have out-waited the latency bound while
      // higher-priority work is also queued — under sustained overload
      // the backlog sheds its least important tail instead of growing
      // every tenant's latency without bound.
      std::vector<std::shared_ptr<Job>> overdue = queue_.ShedOverdue(
          std::chrono::microseconds(config_.shed_after_ms * 1000));
      for (auto& job : overdue) {
        m_shed_->Add(1);
        ShedJob(std::move(job),
                Status::ResourceExhausted(
                    "shed after waiting " +
                    std::to_string(config_.shed_after_ms) +
                    "ms behind higher-priority work"));
      }
    }
    std::optional<std::shared_ptr<Job>> job = queue_.Pop();
    if (!job.has_value()) return;  // Closed and drained.
    ExecuteJob(*job);
  }
}

void QueryServer::ExecuteJob(const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    active_jobs_.insert(job.get());
    in_flight_.fetch_add(1);
    g_in_flight_->Set(static_cast<int64_t>(in_flight_.load()));
  }

  job->result = engine_->ExecuteStatement(std::move(job->statement),
                                          job->strategy, job->limits,
                                          &job->run);

  if (job->session != nullptr) job->session->in_flight.fetch_sub(1);
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    active_jobs_.erase(job.get());
    in_flight_.fetch_sub(1);
    pending_.fetch_sub(1);
    g_in_flight_->Set(static_cast<int64_t>(in_flight_.load()));
    active_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->done = true;
  }
  job->cv.notify_one();
}

void QueryServer::ShedJob(const std::shared_ptr<Job>& job, Status status) {
  // The job never reached ExecuteJob: undo only the admission
  // accounting (session in-flight + pending_), not in_flight_, which is
  // bumped when a worker takes the job. The connection thread reads
  // `result`/`shed` only after observing `done` under job->mu, so the
  // unguarded writes here are ordered by that acquire.
  job->result = std::move(status);
  job->shed = true;
  if (job->session != nullptr) job->session->in_flight.fetch_sub(1);
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    pending_.fetch_sub(1);
    active_cv_.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(job->mu);
    job->done = true;
  }
  job->cv.notify_one();
}

}  // namespace server
}  // namespace gmdj
