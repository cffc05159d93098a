#include "obs/serve.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>

namespace genmig {
namespace obs {

namespace {

#ifndef MSG_NOSIGNAL
#define MSG_NOSIGNAL 0
#endif

bool SendAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return true;
}

const char* StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

}  // namespace

TelemetryServer::TelemetryServer(Options options)
    : options_(std::move(options)) {}

TelemetryServer::~TelemetryServer() { Stop(); }

void TelemetryServer::Handle(std::string path, Handler handler) {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  handlers_[std::move(path)] = std::move(handler);
}

bool TelemetryServer::Start() {
  if (running_.load(std::memory_order_acquire)) return true;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return false;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { ServeLoop(); });
  return true;
}

void TelemetryServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_.store(true, std::memory_order_release);
  // shutdown() unblocks the accept() in ServeLoop; the fd is closed only
  // after the thread joined so the loop never races a reused descriptor.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

HttpResponse TelemetryServer::Dispatch(const std::string& path) const {
  Handler handler;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    auto it = handlers_.find(path);
    if (it != handlers_.end()) handler = it->second;
  }
  if (!handler) {
    HttpResponse r;
    r.status = 404;
    r.body = "not found\n";
    return r;
  }
  return handler();
}

void TelemetryServer::ServeLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // Listener shut down (Stop) or broken — exit the loop.
    }
    // Read until the end of the request headers (the body, if any, is
    // ignored — telemetry is GET-only). Bounded: nobody legitimate sends
    // 16 KiB of headers to a metrics port.
    std::string req;
    char buf[2048];
    while (req.find("\r\n\r\n") == std::string::npos &&
           req.size() < 16 * 1024) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      req.append(buf, static_cast<size_t>(n));
    }

    HttpResponse resp;
    bool head = false;
    const size_t line_end = req.find("\r\n");
    const std::string line =
        line_end == std::string::npos ? req : req.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      resp.status = 405;
      resp.body = "bad request\n";
    } else {
      const std::string method = line.substr(0, sp1);
      std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
      const size_t query = path.find('?');
      if (query != std::string::npos) path.resize(query);
      if (method != "GET" && method != "HEAD") {
        resp.status = 405;
        resp.body = "only GET\n";
      } else {
        resp = Dispatch(path);
        head = method == "HEAD";
      }
    }

    // Counted before the first byte goes out: a client that has read the
    // whole response must already see its own request in the total.
    requests_.fetch_add(1, std::memory_order_relaxed);

    // HEAD advertises the entity length it would have sent but omits the
    // body itself (RFC 9110 §9.3.2).
    char header[256];
    const int header_len = std::snprintf(
        header, sizeof(header),
        "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
        "Connection: close\r\n\r\n",
        resp.status, StatusText(resp.status), resp.content_type.c_str(),
        resp.body.size());
    if (SendAll(fd, header, static_cast<size_t>(header_len)) && !head) {
      SendAll(fd, resp.body.data(), resp.body.size());
    }
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

std::string PromEscapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

#ifdef GENMIG_NO_METRICS

std::string RenderPrometheus(const MetricsRegistry&) { return ""; }

#else  // GENMIG_NO_METRICS

namespace {

/// {op="join0",shard="2"} from a slot name "s2/join0"; plain names get only
/// the op label. The shard executor's naming convention is the only encoding
/// of shard identity in slot names (metrics.h).
std::string SlotLabels(const std::string& name) {
  std::string op = name;
  std::string shard;
  if (name.size() >= 3 && name[0] == 's') {
    const size_t slash = name.find('/');
    if (slash != std::string::npos && slash > 1) {
      bool digits = true;
      for (size_t i = 1; i < slash; ++i) {
        if (name[i] < '0' || name[i] > '9') {
          digits = false;
          break;
        }
      }
      if (digits) {
        shard = name.substr(1, slash - 1);
        op = name.substr(slash + 1);
      }
    }
  }
  std::string out = "{op=\"" + PromEscapeLabel(op) + "\"";
  if (!shard.empty()) out += ",shard=\"" + shard + "\"";
  out += "}";
  return out;
}

void AppendValue(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

/// A slot paired with its rendered label set. Re-registrations of the same
/// name (a migration installs a new box whose operators carry the names of
/// the old ones) get a gen="<n>" label so every labelset stays unique, as
/// the exposition format requires.
struct LabeledSlot {
  const OperatorMetrics* m;
  std::string labels;
};

std::vector<LabeledSlot> LabelSlots(
    const std::vector<const OperatorMetrics*>& slots) {
  std::vector<LabeledSlot> out;
  out.reserve(slots.size());
  std::map<std::string, int> seen;
  for (const OperatorMetrics* m : slots) {
    std::string labels = SlotLabels(m->name);
    const int gen = seen[m->name]++;
    if (gen > 0) {
      labels.insert(labels.size() - 1,
                    ",gen=\"" + std::to_string(gen) + "\"");
    }
    out.push_back({m, std::move(labels)});
  }
  return out;
}

struct Family {
  const char* name;
  const char* type;  // "counter" or "gauge".
  const char* help;
  uint64_t (*get)(const OperatorMetrics&);
};

constexpr Family kFamilies[] = {
    {"genmig_op_elements_in_total", "counter", "Elements pushed into the operator",
     [](const OperatorMetrics& m) -> uint64_t { return m.elements_in; }},
    {"genmig_op_elements_out_total", "counter", "Elements emitted by the operator",
     [](const OperatorMetrics& m) -> uint64_t { return m.elements_out; }},
    {"genmig_op_heartbeats_in_total", "counter", "Heartbeats pushed into the operator",
     [](const OperatorMetrics& m) -> uint64_t { return m.heartbeats_in; }},
    {"genmig_op_batches_in_total", "counter", "Whole-batch pushes into the operator",
     [](const OperatorMetrics& m) -> uint64_t { return m.batches_in; }},
    {"genmig_op_negatives_in_total", "counter", "Negative (PN) elements in",
     [](const OperatorMetrics& m) -> uint64_t { return m.negatives_in; }},
    {"genmig_op_negatives_out_total", "counter", "Negative (PN) elements out",
     [](const OperatorMetrics& m) -> uint64_t { return m.negatives_out; }},
    {"genmig_op_state_inserts_total", "counter", "State insertions",
     [](const OperatorMetrics& m) -> uint64_t { return m.state_inserts; }},
    {"genmig_op_state_expires_total", "counter", "State expirations",
     [](const OperatorMetrics& m) -> uint64_t { return m.state_expires; }},
    {"genmig_op_state_units", "gauge", "Sampled state size in units (tuples)",
     [](const OperatorMetrics& m) -> uint64_t { return m.state_units; }},
    {"genmig_op_state_bytes", "gauge", "Sampled state size in bytes",
     [](const OperatorMetrics& m) -> uint64_t { return m.state_bytes; }},
    {"genmig_op_peak_state_bytes", "gauge", "Peak sampled state size in bytes",
     [](const OperatorMetrics& m) -> uint64_t { return m.peak_state_bytes; }},
    {"genmig_op_queue_depth", "gauge",
     "Elements held back in reorder/merge buffers awaiting watermark",
     [](const OperatorMetrics& m) -> uint64_t { return m.queue_depth; }},
    {"genmig_op_peak_queue_depth", "gauge", "Peak held-back elements",
     [](const OperatorMetrics& m) -> uint64_t { return m.peak_queue_depth; }},
    {"genmig_op_watermark_lag", "gauge",
     "Application-time lag between the source front and the operator watermark",
     [](const OperatorMetrics& m) -> uint64_t { return m.watermark_lag; }},
    {"genmig_op_peak_watermark_lag", "gauge", "Peak watermark lag",
     [](const OperatorMetrics& m) -> uint64_t { return m.peak_watermark_lag; }},
    {"genmig_op_backpressure_seconds_total", "counter",
     "Wall-clock time producers spent blocked pushing into this operator's queue",
     [](const OperatorMetrics& m) -> uint64_t { return m.backpressure_ns; }},
    {"genmig_op_backpressure_events_total", "counter",
     "Pushes that blocked on a full queue",
     [](const OperatorMetrics& m) -> uint64_t {
       return m.backpressure_events;
     }},
};

void AppendHistogram(std::string* out, const char* family, const char* help,
                     const std::vector<LabeledSlot>& slots,
                     const LatencyHistogram& (*hist)(const OperatorMetrics&)) {
  bool any = false;
  for (const LabeledSlot& slot : slots) {
    if (hist(*slot.m).count() > 0) {
      any = true;
      break;
    }
  }
  if (!any) return;
  *out += "# HELP ";
  *out += family;
  *out += ' ';
  *out += help;
  *out += "\n# TYPE ";
  *out += family;
  *out += " histogram\n";
  for (const LabeledSlot& slot : slots) {
    const LatencyHistogram& h = hist(*slot.m);
    if (h.count() == 0) continue;
    const std::string& labels = slot.labels;
    // labels is "{...}"; per-bucket series need the le label inside.
    const std::string label_prefix =
        labels.substr(0, labels.size() - 1) + ",le=\"";
    const auto counts = h.counts();
    uint64_t cumulative = 0;
    for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
      cumulative += counts[i];
      if (counts[i] == 0 && i + 1 < LatencyHistogram::kBuckets) {
        // Skip interior empty buckets to keep scrapes compact; cumulative
        // monotonicity is preserved because `cumulative` carries across.
        continue;
      }
      *out += family;
      *out += "_bucket";
      *out += label_prefix;
      if (i + 1 < LatencyHistogram::kBuckets) {
        AppendValue(out,
                    static_cast<double>(LatencyHistogram::BucketUpperNs(i)));
      } else {
        *out += "+Inf";
      }
      *out += "\"} ";
      AppendValue(out, static_cast<double>(cumulative));
      *out += '\n';
    }
    *out += family;
    *out += "_sum";
    *out += labels;
    *out += ' ';
    AppendValue(out, static_cast<double>(h.sum_ns()));
    *out += '\n';
    // _count repeats the +Inf cumulative from the SAME bucket snapshot, so a
    // scrape racing a writer still satisfies count == sum(buckets).
    *out += family;
    *out += "_count";
    *out += labels;
    *out += ' ';
    AppendValue(out, static_cast<double>(cumulative));
    *out += '\n';
  }
}

void AppendQuantileGauge(std::string* out, const char* family,
                         const char* help, double p,
                         const std::vector<LabeledSlot>& slots,
                         const LatencyHistogram& (*hist)(
                             const OperatorMetrics&)) {
  bool any = false;
  for (const LabeledSlot& slot : slots) {
    if (hist(*slot.m).count() > 0) {
      any = true;
      break;
    }
  }
  if (!any) return;
  *out += "# HELP ";
  *out += family;
  *out += ' ';
  *out += help;
  *out += "\n# TYPE ";
  *out += family;
  *out += " gauge\n";
  for (const LabeledSlot& slot : slots) {
    const LatencyHistogram& h = hist(*slot.m);
    if (h.count() == 0) continue;
    *out += family;
    *out += slot.labels;
    *out += ' ';
    AppendValue(out, h.ApproxQuantile(p));
    *out += '\n';
  }
}

}  // namespace

std::string RenderPrometheus(const MetricsRegistry& registry) {
  const std::vector<LabeledSlot> slots = LabelSlots(registry.SnapshotSlots());
  std::string out;
  out.reserve(4096 + slots.size() * 1024);

  for (const Family& f : kFamilies) {
    // Elide all-zero families (common: negatives, backpressure on idle
    // queues) to keep the scrape readable; Prometheus treats a missing
    // series as 0-by-absence.
    bool any = false;
    for (const LabeledSlot& slot : slots) {
      if (f.get(*slot.m) != 0) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    out += "# HELP ";
    out += f.name;
    out += ' ';
    out += f.help;
    out += "\n# TYPE ";
    out += f.name;
    out += ' ';
    out += f.type;
    out += '\n';
    const bool seconds =
        std::strcmp(f.name, "genmig_op_backpressure_seconds_total") == 0;
    for (const LabeledSlot& slot : slots) {
      const uint64_t v = f.get(*slot.m);
      if (v == 0) continue;
      out += f.name;
      out += slot.labels;
      out += ' ';
      AppendValue(&out,
                  seconds ? static_cast<double>(v) * 1e-9
                          : static_cast<double>(v));
      out += '\n';
    }
  }

  AppendHistogram(&out, "genmig_op_push_latency_ns",
                  "Sampled wall-clock latency of one element push", slots,
                  [](const OperatorMetrics& m) -> const LatencyHistogram& {
                    return m.push_ns;
                  });
  AppendHistogram(&out, "genmig_sink_e2e_latency_ns",
                  "End-to-end latency from source ingress to sink arrival",
                  slots,
                  [](const OperatorMetrics& m) -> const LatencyHistogram& {
                    return m.e2e_ns;
                  });
  AppendQuantileGauge(&out, "genmig_op_push_latency_p99_ns",
                      "Interpolated p99 of the push latency histogram", 0.99,
                      slots,
                      [](const OperatorMetrics& m) -> const LatencyHistogram& {
                        return m.push_ns;
                      });
  AppendQuantileGauge(&out, "genmig_sink_e2e_latency_p50_ns",
                      "Interpolated p50 of the sink end-to-end latency", 0.5,
                      slots,
                      [](const OperatorMetrics& m) -> const LatencyHistogram& {
                        return m.e2e_ns;
                      });
  AppendQuantileGauge(&out, "genmig_sink_e2e_latency_p99_ns",
                      "Interpolated p99 of the sink end-to-end latency", 0.99,
                      slots,
                      [](const OperatorMetrics& m) -> const LatencyHistogram& {
                        return m.e2e_ns;
                      });
  return out;
}

#endif  // GENMIG_NO_METRICS

}  // namespace obs
}  // namespace genmig
