#include "obs/serve.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace genmig {
namespace obs {
namespace {

/// Minimal blocking HTTP/1.1 request: returns the raw response (headers +
/// body), or "" on connection failure.
std::string HttpRequest(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpGet(int port, const std::string& path) {
  return HttpRequest(port, "GET " + path +
                               " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                               "Connection: close\r\n\r\n");
}

std::string BodyOf(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

TEST(TelemetryServerTest, ServesRegisteredPathOnEphemeralPort) {
  TelemetryServer server;  // Port 0: the OS picks.
  server.Handle("/hello", [] {
    HttpResponse r;
    r.body = "hi there\n";
    return r;
  });
  ASSERT_TRUE(server.Start());
  ASSERT_GT(server.port(), 0);
  const std::string response = HttpGet(server.port(), "/hello");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Length: 9"), std::string::npos);
  EXPECT_EQ(BodyOf(response), "hi there\n");
  EXPECT_GE(server.requests_served(), 1u);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // Idempotent.
}

TEST(TelemetryServerTest, UnknownPathIs404AndQueryStringIsStripped) {
  TelemetryServer server;
  server.Handle("/metrics", [] {
    HttpResponse r;
    r.body = "m 1\n";
    return r;
  });
  ASSERT_TRUE(server.Start());
  EXPECT_NE(HttpGet(server.port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  // "?seconds=5" must route to the same handler.
  const std::string response = HttpGet(server.port(), "/metrics?seconds=5");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  EXPECT_EQ(BodyOf(response), "m 1\n");
  server.Stop();
}

TEST(TelemetryServerTest, HeadOmitsBodyAndPostIsRejected) {
  TelemetryServer server;
  server.Handle("/metrics", [] {
    HttpResponse r;
    r.body = "payload\n";
    return r;
  });
  ASSERT_TRUE(server.Start());
  const std::string head = HttpRequest(
      server.port(),
      "HEAD /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_NE(head.find("HTTP/1.1 200"), std::string::npos) << head;
  EXPECT_NE(head.find("Content-Length: 8"), std::string::npos);
  EXPECT_EQ(BodyOf(head), "");
  const std::string post = HttpRequest(
      server.port(),
      "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n"
      "Connection: close\r\n\r\n");
  EXPECT_NE(post.find("HTTP/1.1 405"), std::string::npos) << post;
  server.Stop();
}

/// Feeds `body` to tools/check_prom.py over stdin; returns its exit code
/// (-1 when the tool cannot be spawned).
int CheckProm(const std::string& body, bool allow_empty) {
  std::string tool = __FILE__;  // <repo>/tests/obs/serve_test.cc
  const size_t pos = tool.rfind("/tests/");
  if (pos == std::string::npos) return -1;
  tool = tool.substr(0, pos) + "/tools/check_prom.py";
  const std::string cmd = std::string("python3 ") + tool +
                          (allow_empty ? " --allow-empty" : "") +
                          " >/dev/null 2>&1";
  FILE* pipe = ::popen(cmd.c_str(), "w");
  if (pipe == nullptr) return -1;
  ::fwrite(body.data(), 1, body.size(), pipe);
  const int status = ::pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(TelemetryServerTest, EmptyMetricsScrapeFailsCheckProm) {
  if (std::system("python3 --version >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 unavailable";
  }
  // Regression: a server that answers 200 with an EMPTY body used to sail
  // through check_prom (every per-line check is vacuous on zero lines), so
  // a dead registry or misrouted scrape looked green in CI.
  TelemetryServer server;
  server.Handle("/metrics", [] { return HttpResponse{}; });
  ASSERT_TRUE(server.Start());
  const std::string response = HttpGet(server.port(), "/metrics");
  ASSERT_NE(response.find("HTTP/1.1 200"), std::string::npos) << response;
  const std::string body = BodyOf(response);
  ASSERT_TRUE(body.empty());
  EXPECT_NE(CheckProm(body, /*allow_empty=*/false), 0);
  EXPECT_EQ(CheckProm(body, /*allow_empty=*/true), 0);   // Deliberate opt-out.
  EXPECT_EQ(CheckProm("# TYPE m gauge\nm 1\n", false), 0);  // Real sample: OK.
  server.Stop();
}

TEST(TelemetryServerTest, HandlerStatusAndContentTypePassThrough) {
  TelemetryServer server;
  server.Handle("/status", [] {
    HttpResponse r;
    r.status = 503;
    r.content_type = "application/json; charset=utf-8";
    r.body = "{}";
    return r;
  });
  ASSERT_TRUE(server.Start());
  const std::string response = HttpGet(server.port(), "/status");
  EXPECT_NE(response.find("HTTP/1.1 503"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Type: application/json; charset=utf-8"),
            std::string::npos);
  server.Stop();
}

TEST(PromEscapeTest, EscapesLabelSpecials) {
  EXPECT_EQ(PromEscapeLabel("plain"), "plain");
  EXPECT_EQ(PromEscapeLabel("a\"b"), "a\\\"b");
  EXPECT_EQ(PromEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(PromEscapeLabel("a\nb"), "a\\nb");
}

#ifdef GENMIG_NO_METRICS

TEST(RenderPrometheusTest, CompiledOutRendererIsEmpty) {
  MetricsRegistry registry;
  registry.Register("op");
  EXPECT_EQ(RenderPrometheus(registry), "");
}

#else  // !GENMIG_NO_METRICS

TEST(RenderPrometheusTest, CountersGaugesAndLabels) {
  MetricsRegistry registry;
  OperatorMetrics* plain = registry.Register("join");
  plain->elements_in += 10;
  plain->elements_out += 7;
  plain->SampleState(3, 96, 2);
  // Shard-executor naming convention: "s<k>/op" becomes {op=...,shard=...}.
  OperatorMetrics* sharded = registry.Register("s2/dedup");
  sharded->elements_in += 5;
  sharded->watermark_lag = 123;
  sharded->backpressure_ns = 1500000000;  // 1.5 s.
  sharded->backpressure_events += 4;
  // A name needing label escaping.
  OperatorMetrics* weird = registry.Register("op\"x\\y\nz");
  weird->elements_in += 1;

  const std::string text = RenderPrometheus(registry);
  EXPECT_NE(text.find("# TYPE genmig_op_elements_in_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("genmig_op_elements_in_total{op=\"join\"} 10"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("genmig_op_elements_out_total{op=\"join\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("genmig_op_state_bytes{op=\"join\"} 96"),
            std::string::npos);
  EXPECT_NE(text.find("genmig_op_elements_in_total{op=\"dedup\","
                      "shard=\"2\"} 5"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("genmig_op_watermark_lag{op=\"dedup\",shard=\"2\"} 123"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("genmig_op_backpressure_seconds_total{op=\""
                      "dedup\",shard=\"2\"} 1.5"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("genmig_op_elements_in_total{op=\"op\\\"x\\\\y\\nz\"} 1"),
      std::string::npos)
      << text;
  // No family may render all-zero-only noise: heartbeats never moved.
  EXPECT_EQ(text.find("genmig_op_heartbeats_in_total"), std::string::npos)
      << text;
}

TEST(RenderPrometheusTest, ReRegisteredNamesGetGenerationLabels) {
  // A migration installs a new box whose operators re-register under the
  // old names; the exposition format requires unique labelsets, so the
  // renderer adds gen="<n>" to every re-registration.
  MetricsRegistry registry;
  registry.Register("join")->elements_in += 10;
  registry.Register("join")->elements_in += 3;
  registry.Register("join")->elements_in += 1;

  const std::string text = RenderPrometheus(registry);
  EXPECT_NE(text.find("genmig_op_elements_in_total{op=\"join\"} 10"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("genmig_op_elements_in_total{op=\"join\",gen=\"1\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("genmig_op_elements_in_total{op=\"join\",gen=\"2\"} 1"),
            std::string::npos)
      << text;
}

TEST(RenderPrometheusTest, HistogramBucketsAreCumulativeAndConsistent) {
  MetricsRegistry registry;
  OperatorMetrics* op = registry.Register("probe");
  op->push_ns.Record(3);     // Bucket le=4.
  op->push_ns.Record(3);     // Bucket le=4.
  op->push_ns.Record(100);   // Bucket le=128.
  op->push_ns.Record(5000);  // Bucket le=8192.

  const std::string text = RenderPrometheus(registry);
  EXPECT_NE(text.find("# TYPE genmig_op_push_latency_ns histogram"),
            std::string::npos)
      << text;
  // Cumulative counts in ascending le order; _sum then _count follow, and
  // _count repeats the +Inf cumulative from the same snapshot.
  const std::vector<std::string> expected = {
      "genmig_op_push_latency_ns_bucket{op=\"probe\",le=\"4\"} 2",
      "genmig_op_push_latency_ns_bucket{op=\"probe\",le=\"128\"} 3",
      "genmig_op_push_latency_ns_bucket{op=\"probe\",le=\"8192\"} 4",
      "genmig_op_push_latency_ns_bucket{op=\"probe\",le=\"+Inf\"} 4",
      "genmig_op_push_latency_ns_sum{op=\"probe\"} 5106",
      "genmig_op_push_latency_ns_count{op=\"probe\"} 4",
  };
  size_t last_pos = 0;
  for (const std::string& needle : expected) {
    const size_t pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos) << needle << "\n---\n" << text;
    EXPECT_GE(pos, last_pos) << "series out of order: " << needle;
    last_pos = pos;
  }
  EXPECT_NE(text.find("genmig_op_push_latency_p99_ns{op=\"probe\"}"),
            std::string::npos)
      << text;
}

TEST(RenderPrometheusTest, ConcurrentScrapeWhileRegisteringAndMutating) {
  // TSan coverage: one thread registers fresh slots and bumps counters
  // (single-writer per slot) while scrapers render concurrently. The
  // renderer must only use SnapshotSlots() + torn-free loads.
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::vector<OperatorMetrics*> slots;
    size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      // Bounded slot count: registration churn is the interesting part, not
      // an ever-growing registry (which would make renders quadratic).
      if (slots.size() < 64) {
        slots.push_back(registry.Register("w" + std::to_string(slots.size())));
      }
      OperatorMetrics* m = slots[i++ % slots.size()];
      for (int j = 0; j < 100; ++j) {
        ++m->elements_in;
        m->push_ns.Record(static_cast<uint64_t>(j));
      }
      m->SampleState(1, 2, 3);
    }
  });
  std::vector<std::thread> scrapers;
  std::atomic<uint64_t> scraped_bytes{0};
  for (int s = 0; s < 2; ++s) {
    scrapers.emplace_back([&] {
      // Scrape only once the writer has registered a slot; otherwise a late
      // writer thread leaves every render empty.
      while (registry.size() == 0) std::this_thread::yield();
      for (int i = 0; i < 50; ++i) {
        scraped_bytes += RenderPrometheus(registry).size();
      }
    });
  }
  for (std::thread& t : scrapers) t.join();
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_GT(scraped_bytes.load(), 0u);
  // A final quiescent render parses as non-empty and contains every slot.
  EXPECT_NE(RenderPrometheus(registry).find("genmig_op_elements_in"),
            std::string::npos);
}

#endif  // GENMIG_NO_METRICS

}  // namespace
}  // namespace obs
}  // namespace genmig
