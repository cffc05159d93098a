// TelemetryServer: a tiny embedded HTTP/1.1 server (plain POSIX sockets, no
// dependencies) that makes the observability plane scrapeable while the
// engine runs (ISSUE 9 tentpole). One accept thread serves requests
// serially — the expected traffic is one Prometheus scraper and an occasional
// curl, not a web frontend.
//
// Paths are registered before Start() as closures returning an HttpResponse;
// the engine (engine/dsms.cc) wires /metrics, /healthz and /status. Handlers
// run on the server thread, so everything they read must be safe against the
// engine threads: metric slots are relaxed atomics (metrics.h threading
// contract), slot *discovery* goes through MetricsRegistry::SnapshotSlots()
// (lock-guarded, stable deque pointers), and engine-level status is mirrored
// into atomics by Dsms rather than read from live structures.
//
// RenderPrometheus serializes a MetricsRegistry in the Prometheus text
// exposition format (version 0.0.4): counters as `_total`, gauges plain,
// LatencyHistograms as cumulative `_bucket{le="..."}` series + `_sum` +
// `_count`, plus interpolated p50/p99 gauges. Slot names "s<k>/op" from the
// shard executor map to labels {op="op",shard="<k>"}. Under
// -DGENMIG_NO_METRICS the renderer compiles to an empty stub and the engine
// answers /metrics with 503 (satellite: compile-out coverage).

#ifndef GENMIG_OBS_SERVE_H_
#define GENMIG_OBS_SERVE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace genmig {
namespace obs {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class TelemetryServer {
 public:
  using Handler = std::function<HttpResponse()>;

  struct Options {
    /// Loopback only by default: telemetry is an operator port, not a public
    /// service.
    std::string host = "127.0.0.1";
    /// 0 = ephemeral (the OS picks; read the result from port()).
    int port = 0;
  };

  TelemetryServer() : TelemetryServer(Options()) {}
  explicit TelemetryServer(Options options);
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Registers `handler` for exact-match `path` (query strings are stripped
  /// before lookup). Call before Start().
  void Handle(std::string path, Handler handler);

  /// Binds, listens and spawns the accept thread. False on socket errors
  /// (port taken, no loopback); the engine treats that as non-fatal.
  bool Start();

  /// Unblocks the accept loop and joins the thread. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The actually bound port (resolves port 0) — valid after Start().
  int port() const { return port_; }
  /// Requests answered so far. A request is counted before its response is
  /// sent, so a client that has read its response sees it included.
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void ServeLoop();
  HttpResponse Dispatch(const std::string& path) const;

  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> requests_{0};
  mutable std::mutex handlers_mu_;
  std::map<std::string, Handler> handlers_;
};

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string PromEscapeLabel(const std::string& value);

/// The full registry in Prometheus text exposition format. Empty string when
/// compiled with -DGENMIG_NO_METRICS.
std::string RenderPrometheus(const MetricsRegistry& registry);

}  // namespace obs
}  // namespace genmig

#endif  // GENMIG_OBS_SERVE_H_
