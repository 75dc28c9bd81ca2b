#include "simserve/server.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "simserve/protocol.hpp"

namespace columbia::simserve {

namespace {

/// Per-session shared state. Evaluation callbacks run on pool workers
/// and may outlive the moment the peer hangs up, so the session's write
/// sink and its pending-eval accounting live behind a shared_ptr the
/// callbacks co-own; the session loop waits for pending == 0 before it
/// tears the sink down.
struct SessionState {
  std::mutex mu;
  std::condition_variable cv;
  int pending = 0;  ///< eval requests whose result line is not yet written
  std::function<void(const std::string& line)> sink;  ///< called under mu

  void write_line(const std::string& line) {
    std::lock_guard lock(mu);
    if (sink) sink(line);
  }
  void add_pending() {
    std::lock_guard lock(mu);
    ++pending;
  }
  void finish_one() {
    std::lock_guard lock(mu);
    --pending;
    cv.notify_all();
  }
  void wait_pending() {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return pending == 0; });
  }
};

bool blank(const std::string& line) {
  for (const char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

/// Dispatches one request line. Returns true when it was a shutdown
/// request (already acknowledged).
bool handle_line(const std::string& line, Service& service,
                 const ListFn& list_ids,
                 const std::shared_ptr<SessionState>& state) {
  if (blank(line)) return false;
  Request req;
  std::string err;
  if (!parse_request(line, req, err)) {
    state->write_line(error_line(req.id, err));
    return false;
  }
  switch (req.op) {
    case Request::Op::kPing:
      state->write_line(pong_line(req.id));
      return false;
    case Request::Op::kList:
      state->write_line(list_line(
          req.id, list_ids ? list_ids() : std::vector<std::string>{}));
      return false;
    case Request::Op::kStats:
      state->write_line(stats_line(req.id, service.stats()));
      return false;
    case Request::Op::kShutdown:
      state->write_line(shutdown_line(req.id));
      return true;
    case Request::Op::kEval:
      break;
  }
  // Streamed response: acknowledge now, complete from the pool later.
  state->write_line(status_line(req.id, req.spec.hash()));
  state->add_pending();
  service.submit(req.spec,
                 [state, id = req.id](const Response& r) {
                   state->write_line(result_line(id, r));
                   state->finish_one();
                 });
  return false;
}

}  // namespace

bool serve_stream(std::istream& in, std::ostream& out, Service& service,
                  const ListFn& list_ids) {
  auto state = std::make_shared<SessionState>();
  state->sink = [&out](const std::string& line) {
    out << line << '\n';
    out.flush();  // pipe clients read line-by-line; don't sit on results
  };
  bool shutdown = false;
  std::string line;
  while (!shutdown && std::getline(in, line)) {
    shutdown = handle_line(line, service, list_ids, state);
  }
  // Every accepted eval gets its result line before the stream ends.
  state->wait_pending();
  std::lock_guard lock(state->mu);
  state->sink = nullptr;
  return shutdown;
}

TcpServer::TcpServer(Service& service, ListFn list_ids)
    : service_(service), list_ids_(std::move(list_ids)) {}

TcpServer::~TcpServer() { stop(); }

bool TcpServer::start(int port, std::string& error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): start() runs once on the
    // host thread before the accept loop spawns; errno is thread-local
    // and the strerror buffer is consumed immediately.
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): same single-threaded setup
    error = std::string("bind: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));
  if (::listen(listen_fd_, 128) != 0) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): same single-threaded setup
    error = std::string("listen: ") + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void TcpServer::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR) continue;
      return;  // listener closed
    }
    std::lock_guard lock(mutex_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    connection_fds_.push_back(fd);
    const std::size_t index = connection_fds_.size() - 1;
    connection_threads_.emplace_back(
        [this, fd, index] { connection_loop(fd, index); });
  }
}

void TcpServer::connection_loop(int fd, std::size_t index) {
  auto state = std::make_shared<SessionState>();
  state->sink = [fd](const std::string& line) {
    std::string out = line;
    out += '\n';
    std::size_t sent = 0;
    while (sent < out.size()) {
      // MSG_NOSIGNAL: a peer that hung up before its results were ready
      // must not SIGPIPE the server; the failed send just ends delivery.
      const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  };

  std::string buffer;
  char chunk[4096];
  bool shutdown = false;
  while (!shutdown) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl = buffer.find('\n', start);
         nl != std::string::npos && !shutdown;
         nl = buffer.find('\n', start)) {
      shutdown = handle_line(buffer.substr(start, nl - start), service_,
                             list_ids_, state);
      start = nl + 1;
    }
    buffer.erase(0, start);
  }
  state->wait_pending();
  {
    std::lock_guard lock(state->mu);
    state->sink = nullptr;
  }
  {
    // Retire the fd under the server lock before closing so stop() never
    // shutdown()s a number the kernel may have already reused.
    std::lock_guard lock(mutex_);
    connection_fds_[index] = -1;
  }
  ::close(fd);
  if (shutdown) {
    std::lock_guard lock(mutex_);
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
  }
}

void TcpServer::wait() {
  std::unique_lock lock(mutex_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_ || stopping_.load(); });
}

void TcpServer::stop() {
  if (stopping_.exchange(true)) {
    // Second caller (e.g. destructor after an explicit stop): nothing to
    // tear down, but wake any wait()er.
    std::lock_guard lock(mutex_);
    shutdown_cv_.notify_all();
    return;
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard lock(mutex_);
    for (const int fd : connection_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
    shutdown_cv_.notify_all();
  }
  // Joining outside the lock: connection threads take mutex_ to retire
  // their fd on the way out.
  for (auto& t : connection_threads_) {
    if (t.joinable()) t.join();
  }
  service_.drain();
  listen_fd_ = -1;
}

}  // namespace columbia::simserve
