#include "serve/ordering_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <istream>
#include <ostream>
#include <utility>

#include "core/serialization.h"
#include "serve/fd_stream.h"
#include "serve/wire.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace spectral {

namespace {

using SteadyClock = std::chrono::steady_clock;

double ToMs(SteadyClock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

SteadyClock::duration FromMs(double ms) {
  return std::chrono::duration_cast<SteadyClock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

// Latency histograms bin log10(ms) so sub-millisecond cache hits and
// multi-second cold solves share one axis at ~2% resolution.
constexpr double kLogLo = -5.0;
constexpr double kLogHi = 5.0;
constexpr int kLogBins = 1000;

double QuantileMs(const Histogram& h, double p) {
  if (h.total_count() == 0) return 0.0;
  return std::pow(10.0, h.Quantile(p));
}

// The server-level fault registry reaches the MappingService ladder too,
// unless the caller wired a different one into the service options.
MappingServiceOptions WithServerFaults(MappingServiceOptions service,
                                       FaultInjector* faults) {
  if (service.faults == nullptr) service.faults = faults;
  return service;
}

}  // namespace

OrderingServer::OrderingServer(OrderingServerOptions options)
    : options_(std::move(options)),
      service_(WithServerFaults(options_.service, options_.faults)),
      latency_all_(kLogLo, kLogHi, kLogBins),
      latency_cold_(kLogLo, kLogHi, kLogBins),
      latency_warm_(kLogLo, kLogHi, kLogBins) {
  batcher_ = std::thread([this] { BatcherLoop(); });
  snapshot_writer_ = std::thread([this] { SnapshotLoop(); });
}

OrderingServer::~OrderingServer() { Shutdown(); }

std::future<StatusOr<OrderingResult>> OrderingServer::Submit(
    OrderingRequest request, double deadline_ms) {
  std::promise<StatusOr<OrderingResult>> promise;
  std::future<StatusOr<OrderingResult>> future = promise.get_future();
  if (deadline_ms < 0.0) deadline_ms = options_.default_deadline_ms;
  const SteadyClock::time_point now = SteadyClock::now();

  size_t depth = 0;
  {
    std::unique_lock<std::mutex> lock(queue_mu_);
    if (shutdown_) {
      lock.unlock();
      promise.set_value(FailedPreconditionError("server is shut down"));
      return future;
    }
    if (queue_.size() >= options_.max_queue) {
      lock.unlock();
      {
        std::lock_guard<std::mutex> slock(stats_mu_);
        ++shed_overload_;
      }
      promise.set_value(ResourceExhaustedError(
          "serving queue full (max_queue=" +
          FormatInt(static_cast<int64_t>(options_.max_queue)) + ")"));
      return future;
    }
    Pending pending;
    pending.request = std::move(request);
    pending.promise = std::move(promise);
    pending.enqueue = now;
    if (deadline_ms > 0.0) {
      pending.has_deadline = true;
      pending.deadline = now + FromMs(deadline_ms);
    }
    queue_.push_back(std::move(pending));
    depth = queue_.size();
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++accepted_;
    max_queue_depth_ = std::max(max_queue_depth_, depth);
  }
  queue_cv_.notify_all();
  return future;
}

void OrderingServer::Pause() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  paused_ = true;
}

void OrderingServer::Resume() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

void OrderingServer::BatcherLoop() {
  const SteadyClock::duration window =
      FromMs(std::max(0.0, options_.window_ms));
  std::unique_lock<std::mutex> lock(queue_mu_);
  for (;;) {
    queue_cv_.wait(lock,
                   [&] { return shutdown_ || (!queue_.empty() && !paused_); });
    if (queue_.empty()) {
      if (shutdown_) return;
      continue;
    }
    if (!shutdown_) {
      // Aggregation window, anchored at the oldest pending request; a full
      // batch, a pause, or shutdown cuts it short. During shutdown the
      // remaining queue drains without windowing.
      const SteadyClock::time_point wake = queue_.front().enqueue + window;
      while (!shutdown_ && !paused_ &&
             queue_.size() < options_.max_batch &&
             SteadyClock::now() < wake) {
        queue_cv_.wait_until(lock, wake);
      }
      if (paused_ && !shutdown_) continue;
    }
    std::vector<Pending> batch;
    while (!queue_.empty() && batch.size() < options_.max_batch) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    lock.unlock();
    DispatchBatch(std::move(batch));
    lock.lock();
  }
}

void OrderingServer::DispatchBatch(std::vector<Pending> batch) {
  const SteadyClock::time_point dispatch_time = SteadyClock::now();
  std::vector<Pending> live;
  live.reserve(batch.size());
  int64_t expired = 0;
  for (Pending& pending : batch) {
    if (pending.has_deadline && dispatch_time > pending.deadline) {
      pending.promise.set_value(DeadlineExceededError(
          "deadline expired after " +
          FormatDouble(ToMs(dispatch_time - pending.enqueue), 2) +
          " ms in queue"));
      ++expired;
      continue;
    }
    live.push_back(std::move(pending));
  }
  if (expired > 0) {
    std::lock_guard<std::mutex> slock(stats_mu_);
    expired_deadline_ += expired;
  }
  if (live.empty()) return;

  // Failure-domain boundary: an injected dispatch fault fails the whole
  // batch with a typed error instead of solving. Every promise is still
  // fulfilled — overload, expiry, and faults all answer, never hang.
  if (FaultFires(options_.faults, "serve.dispatch")) {
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      served_error_ += static_cast<int64_t>(live.size());
    }
    for (Pending& pending : live) {
      pending.promise.set_value(InternalError(
          "injected serve.dispatch fault: batch of " +
          FormatInt(static_cast<int64_t>(live.size())) + " dropped"));
    }
    return;
  }

  std::vector<OrderingRequest> requests;
  requests.reserve(live.size());
  for (const Pending& pending : live) requests.push_back(pending.request);
  std::vector<StatusOr<OrderingResult>> results =
      service_.OrderBatch(requests);

  const SteadyClock::time_point done = SteadyClock::now();
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    for (size_t i = 0; i < live.size(); ++i) {
      if (results[i].ok()) {
        const bool warm = results[i]->served_from == ServeKind::kHit;
        RecordLatencyLocked(ToMs(done - live[i].enqueue), warm);
        ++served_ok_;
      } else {
        ++served_error_;
      }
    }
  }
  for (size_t i = 0; i < live.size(); ++i) {
    live[i].promise.set_value(std::move(results[i]));
  }
}

void OrderingServer::RecordLatencyLocked(double ms, bool warm) {
  const double log_ms = std::log10(std::max(ms, 1e-5));
  latency_all_.Add(log_ms);
  if (warm) {
    latency_warm_.Add(log_ms);
  } else {
    latency_cold_.Add(log_ms);
  }
}

OrderingServerStats OrderingServer::stats() const {
  OrderingServerStats s;
  s.service = service_.stats();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    s.queue_depth = queue_.size();
  }
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    s.snapshots_saved = snapshots_saved_;
    s.snapshot_failures = snapshot_failures_;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  s.accepted = accepted_;
  s.shed_overload = shed_overload_;
  s.expired_deadline = expired_deadline_;
  s.served_ok = served_ok_;
  s.served_error = served_error_;
  s.max_queue_depth = max_queue_depth_;
  s.p50_ms = QuantileMs(latency_all_, 0.5);
  s.p99_ms = QuantileMs(latency_all_, 0.99);
  s.cold_p50_ms = QuantileMs(latency_cold_, 0.5);
  s.cold_p99_ms = QuantileMs(latency_cold_, 0.99);
  s.warm_p50_ms = QuantileMs(latency_warm_, 0.5);
  s.warm_p99_ms = QuantileMs(latency_warm_, 0.99);
  return s;
}

void OrderingServer::ResetStats() {
  service_.ResetStats();
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    snapshots_saved_ = 0;
    snapshot_failures_ = 0;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  accepted_ = 0;
  shed_overload_ = 0;
  expired_deadline_ = 0;
  served_ok_ = 0;
  served_error_ = 0;
  max_queue_depth_ = 0;
  latency_all_ = Histogram(kLogLo, kLogHi, kLogBins);
  latency_cold_ = Histogram(kLogLo, kLogHi, kLogBins);
  latency_warm_ = Histogram(kLogLo, kLogHi, kLogBins);
}

std::string OrderingServer::StatsLine(const std::string& id) const {
  const OrderingServerStats s = stats();
  std::string line = "STATS " + id;
  line += " requests=" + FormatInt(s.service.requests);
  line += " solves=" + FormatInt(s.service.solves);
  line += " cache_hits=" + FormatInt(s.service.cache_hits);
  line += " cache_misses=" + FormatInt(s.service.cache_misses);
  line += " cache_evictions=" + FormatInt(s.service.cache_evictions);
  line += " failures=" + FormatInt(s.service.failures);
  line += " batches=" + FormatInt(s.service.batches);
  line += " coalesced=" + FormatInt(s.service.coalesced_requests);
  line += " batch_latency_max_ms=" +
          FormatDouble(s.service.batch_latency_max_ms, 3);
  line += " retried_solves=" + FormatInt(s.service.retried_solves);
  line += " degraded_orders=" + FormatInt(s.service.degraded_orders);
  line += " accepted=" + FormatInt(s.accepted);
  line += " shed_overload=" + FormatInt(s.shed_overload);
  line += " expired_deadline=" + FormatInt(s.expired_deadline);
  line += " served_ok=" + FormatInt(s.served_ok);
  line += " served_error=" + FormatInt(s.served_error);
  line += " snapshots_saved=" + FormatInt(s.snapshots_saved);
  line += " snapshot_failures=" + FormatInt(s.snapshot_failures);
  line += " queue_depth=" + FormatInt(static_cast<int64_t>(s.queue_depth));
  line += " max_queue_depth=" +
          FormatInt(static_cast<int64_t>(s.max_queue_depth));
  line += " p50_ms=" + FormatDouble(s.p50_ms, 4);
  line += " p99_ms=" + FormatDouble(s.p99_ms, 4);
  line += " cold_p50_ms=" + FormatDouble(s.cold_p50_ms, 4);
  line += " cold_p99_ms=" + FormatDouble(s.cold_p99_ms, 4);
  line += " warm_p50_ms=" + FormatDouble(s.warm_p50_ms, 4);
  line += " warm_p99_ms=" + FormatDouble(s.warm_p99_ms, 4);
  return line;
}

std::string OrderingServer::HealthLine(const std::string& id) const {
  const OrderingServerStats s = stats();
  std::string line = "HEALTH " + id;
  line += " accepted=" + FormatInt(s.accepted);
  line += " shed_overload=" + FormatInt(s.shed_overload);
  line += " expired_deadline=" + FormatInt(s.expired_deadline);
  line += " served_ok=" + FormatInt(s.served_ok);
  line += " served_error=" + FormatInt(s.served_error);
  line += " retried_solves=" + FormatInt(s.service.retried_solves);
  line += " degraded_orders=" + FormatInt(s.service.degraded_orders);
  line += " cache_entries=" +
          FormatInt(static_cast<int64_t>(service_.CacheSize()));
  line += " snapshots_saved=" + FormatInt(s.snapshots_saved);
  line += " snapshot_failures=" + FormatInt(s.snapshot_failures);
  return line;
}

Status OrderingServer::SaveSnapshot(const std::string& path) const {
  return SaveOrderCacheSnapshotToFile(service_.ExportCache(), path,
                                      options_.faults);
}

StatusOr<int64_t> OrderingServer::LoadSnapshot(const std::string& path) {
  auto entries = LoadOrderCacheSnapshotFromFile(path);
  if (!entries.ok()) return entries.status();
  return service_.ImportCache(*entries);
}

StatusOr<int64_t> OrderingServer::RotateSnapshot(const std::string& path) {
  if (path.empty()) {
    return InvalidArgumentError("snapshot rotation needs a file path");
  }
  SnapshotJob job;
  job.path = path;
  job.entries = service_.ExportCache();
  const auto count = static_cast<int64_t>(job.entries.size());
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    if (snap_shutdown_) {
      return FailedPreconditionError("snapshot writer is shut down");
    }
    snap_queue_.push_back(std::move(job));
  }
  snap_cv_.notify_all();
  return count;
}

void OrderingServer::FlushSnapshots() {
  std::unique_lock<std::mutex> lock(snap_mu_);
  snap_cv_.wait(lock, [&] { return snap_queue_.empty() && !snap_inflight_; });
}

void OrderingServer::SnapshotLoop() {
  std::unique_lock<std::mutex> lock(snap_mu_);
  for (;;) {
    snap_cv_.wait(lock, [&] { return snap_shutdown_ || !snap_queue_.empty(); });
    if (snap_queue_.empty()) return;  // shutdown with nothing left to drain
    SnapshotJob job = std::move(snap_queue_.front());
    snap_queue_.pop_front();
    snap_inflight_ = true;
    lock.unlock();
    const Status s =
        SaveOrderCacheSnapshotToFile(job.entries, job.path, options_.faults);
    lock.lock();
    snap_inflight_ = false;
    if (s.ok()) {
      ++snapshots_saved_;
    } else {
      ++snapshot_failures_;
    }
    snap_cv_.notify_all();
  }
}

void OrderingServer::ServeStream(std::istream& in, std::ostream& out) {
  // Replies are queued in submission order; a writer thread drains them so
  // reading (and therefore window coalescing of pipelined ORDER lines)
  // never blocks on an in-flight solve. STATS and SNAPSHOT replies are
  // rendered when the writer *dequeues* them — i.e. after every earlier
  // ORDER on this stream has completed — so their contents are consistent
  // with the reply position the client sees them at.
  struct Reply {
    enum Kind { kText, kStats, kHealth, kSnapshot, kOrder } kind = kText;
    std::string text;  // kText payload; kSnapshot path
    std::string id;
    std::future<StatusOr<OrderingResult>> result;  // kOrder
  };
  std::deque<Reply> replies;
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;

  std::thread writer([&] {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return done || !replies.empty(); });
      if (replies.empty()) return;
      Reply reply = std::move(replies.front());
      replies.pop_front();
      lock.unlock();
      std::string text;
      switch (reply.kind) {
        case Reply::kText:
          text = std::move(reply.text);
          break;
        case Reply::kStats:
          text = StatsLine(reply.id);
          break;
        case Reply::kHealth:
          // HEALTH is a barrier: queued snapshot rotations land first, so
          // its counters are deterministic for a scripted session.
          FlushSnapshots();
          text = HealthLine(reply.id);
          break;
        case Reply::kSnapshot: {
          // Queued on the background writer; the reply reports how many
          // entries the rotation will persist, not that the write landed
          // (HEALTH or FlushSnapshots observe completion).
          const StatusOr<int64_t> queued = RotateSnapshot(reply.text);
          text = queued.ok() ? "SAVED " + reply.id + " " +
                                   FormatInt(*queued) + " " + reply.text
                             : FormatErrorResponse(reply.id, queued.status());
          break;
        }
        case Reply::kOrder: {
          StatusOr<OrderingResult> result = reply.result.get();
          text = result.ok() ? FormatOrderedResponse(reply.id, *result)
                             : FormatErrorResponse(reply.id, result.status());
          break;
        }
      }
      out << text << '\n';
      out.flush();
      lock.lock();
    }
  });

  auto push = [&](Reply reply) {
    {
      std::lock_guard<std::mutex> lock(mu);
      replies.push_back(std::move(reply));
    }
    cv.notify_all();
  };
  auto push_immediate = [&](std::string text) {
    Reply reply;
    reply.kind = Reply::kText;
    reply.text = std::move(text);
    push(std::move(reply));
  };

  std::string line;
  bool quit = false;
  while (!quit && std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    auto parsed = ParseWireRequest(line);
    if (!parsed.ok()) {
      push_immediate(FormatErrorResponse("-", parsed.status()));
      continue;
    }
    switch (parsed->command) {
      case WireCommand::kQuit:
        quit = true;
        break;
      case WireCommand::kStats: {
        Reply reply;
        reply.kind = Reply::kStats;
        reply.id = parsed->id;
        push(std::move(reply));
        break;
      }
      case WireCommand::kHealth: {
        Reply reply;
        reply.kind = Reply::kHealth;
        reply.id = parsed->id;
        push(std::move(reply));
        break;
      }
      case WireCommand::kSnapshot: {
        Reply reply;
        reply.kind = Reply::kSnapshot;
        reply.id = parsed->id;
        reply.text = parsed->snapshot_path;
        push(std::move(reply));
        break;
      }
      case WireCommand::kOrder: {
        Reply reply;
        reply.kind = Reply::kOrder;
        reply.id = parsed->id;
        reply.result = Submit(std::move(parsed->request), parsed->deadline_ms);
        push(std::move(reply));
        break;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  writer.join();
  if (quit) {
    out << "BYE\n";
    out.flush();
  }
}

StatusOr<int> OrderingServer::StartTcp(int port) {
  std::lock_guard<std::mutex> lock(tcp_mu_);
  if (listen_fd_ >= 0) {
    return FailedPreconditionError("TCP listener already running");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return InternalError("socket() failed");
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return InternalError("bind() to port " + FormatInt(port) + " failed");
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    return InternalError("listen() failed");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    ::close(fd);
    return InternalError("getsockname() failed");
  }
  listen_fd_ = fd;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return static_cast<int>(ntohs(addr.sin_port));
}

void OrderingServer::AcceptLoop() {
  for (;;) {
    int listen_fd;
    {
      std::lock_guard<std::mutex> lock(tcp_mu_);
      listen_fd = listen_fd_;
    }
    if (listen_fd < 0) return;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or fatal accept error): stop serving
    }
    // Replies leave in 4 KiB writes (FdStreambuf). With Nagle on, the tail
    // of any reply longer than one write waits for the client's delayed ACK
    // (~40 ms on Linux), so turn it off.
    const int nodelay = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    std::lock_guard<std::mutex> lock(tcp_mu_);
    const size_t slot = connection_fds_.size();
    connection_fds_.push_back(fd);
    connection_threads_.emplace_back([this, fd, slot] {
      FdStreambuf in_buf(fd);
      FdStreambuf out_buf(fd);
      std::istream conn_in(&in_buf);
      std::ostream conn_out(&out_buf);
      ServeStream(conn_in, conn_out);
      int to_close = -1;
      {
        std::lock_guard<std::mutex> l(tcp_mu_);
        to_close = connection_fds_[slot];
        connection_fds_[slot] = -1;
      }
      if (to_close >= 0) ::close(to_close);
    });
  }
}

void OrderingServer::Shutdown() {
  // 1. Stop intake and drain the request queue: the batcher serves
  //    everything already accepted, then exits.
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    shutdown_ = true;
    paused_ = false;
  }
  queue_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();

  // 2. Unblock and join the TCP side: shutting the listener down pops the
  //    accept loop; shutting each live connection fd down pops its reader.
  {
    std::lock_guard<std::mutex> lock(tcp_mu_);
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(tcp_mu_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    for (int fd : connection_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
    to_join.swap(connection_threads_);
  }
  for (std::thread& t : to_join) t.join();
  {
    std::lock_guard<std::mutex> lock(tcp_mu_);
    connection_fds_.clear();
  }

  // 3. Last, the snapshot writer: after the batcher and every connection
  //    are gone nothing can enqueue a rotation, so the writer drains the
  //    remaining queue and exits.
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    snap_shutdown_ = true;
  }
  snap_cv_.notify_all();
  if (snapshot_writer_.joinable()) snapshot_writer_.join();
}

}  // namespace spectral
