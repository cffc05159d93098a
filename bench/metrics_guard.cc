// Overhead guard for the observability layer: runs a representative operator
// workload (the micro_operators mix: symmetric-hash join, nested-loops join,
// duplicate elimination) twice in the same binary — once with every operator
// attached to a MetricsRegistry, once detached — and fails if the attached
// run is more than 5% slower (min over repetitions).
//
// The attached run carries the full instrumentation path: counter updates,
// push-latency sampling, sampled ingress stamping at the sources plus
// sink-side end-to-end recording, and periodic TimelineSampler snapshots
// into an event journal (one per ~1024 injected elements, far denser than
// any real deployment). Detached operators still pay the compiled-in
// `metrics_ == nullptr` check, so this measures the full per-element
// instrumentation cost on top of the dormant hook; the dormant hook itself
// is a single predicted branch, which is the only cost a GENMIG_NO_METRICS
// build additionally removes.
//
// A third configuration (ISSUE 9) re-times the attached run while a live
// TelemetryServer answers real HTTP /metrics scrapes from a second thread
// on a fixed 10 ms cadence (orders of magnitude denser than any real
// Prometheus interval). Exposition only reads relaxed atomics, so with a
// spare core to serve on, scrapes must not slow the hot loop beyond the
// same budget. On a single-core machine the scraper and the loopback TCP
// stack inevitably time-slice the hot loop out — that is scheduler
// behavior, not instrumentation cost — so the scraped ratio is reported
// but only enforced when hardware_concurrency() > 1 (every CI runner).
// The guard also counts the appends to the journal the scraped run's
// TimelineSampler writes: they must equal the samples the loop took (one
// per 1024 injections per pass), so no operator, exporter or scrape writes
// the journal per element.
//
// A fourth configuration (ISSUE 10) prices durable state: the same engine
// workload runs through a Dsms twice — once plain, once with periodic
// incremental checkpointing (src/ckpt) at a cadence far denser than any
// real deployment — and the checkpointed run must stay within the same 5%
// budget. Blob collection happens on the engine thread but chunk/manifest
// IO rides the store's background commit thread, so with a spare core the
// hot path only pays the dirty-tracking walk.
//
// Exit codes: 0 = within budget, 1 = overhead above threshold, 77 = skipped
// (Debug builds, sanitizers and GENMIG_NO_METRICS builds measure
// instrumentation that is either absent or swamped by unrelated costs).
// Wall-clock ratios swing with machine load, so the nightly workflow runs
// this binary; the deterministic, counted guarantees are ctests in
// tests/obs/hot_path_test.cc.

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "engine/dsms.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/serve.h"
#include "obs/timeline.h"
#include "ops/dedup.h"
#include "ops/join.h"
#include "ops/sink.h"
#include "ops/source.h"
#include "stream/generator.h"

namespace genmig {
namespace {

MaterializedStream KeyedWindowed(size_t n, int64_t keys, Duration w,
                                 uint64_t seed) {
  MaterializedStream out;
  for (const TimedTuple& tt : GenerateKeyedStream(n, 1, keys, seed)) {
    out.emplace_back(tt.tuple,
                     TimeInterval(Timestamp(tt.t), Timestamp(tt.t + w + 1)));
  }
  return out;
}

struct Workload {
  MaterializedStream shj_left = KeyedWindowed(2000, 64, 100, 1);
  MaterializedStream shj_right = KeyedWindowed(2000, 64, 100, 2);
  MaterializedStream nlj_left = KeyedWindowed(1000, 64, 50, 3);
  MaterializedStream nlj_right = KeyedWindowed(1000, 64, 50, 4);
  MaterializedStream dedup_in = KeyedWindowed(8000, 16, 200, 5);
};

/// One pass over the operator mix; `registry` null means detached. When
/// attached, `sampler` snapshots the registry into a journal every 1024
/// injections so the guard also prices the timeline-sampling path.
size_t RunOnce(const Workload& w, obs::MetricsRegistry* registry,
               obs::TimelineSampler* sampler) {
  size_t total = 0;
  int64_t injected = 0;
  auto maybe_sample = [&]() {
    if (sampler != nullptr && (++injected & 1023) == 0) {
      sampler->Sample(Timestamp(injected), /*migration_active=*/false);
    }
  };
  {
    SymmetricHashJoin join("j", 0, 0);
    Source l("l");
    Source r("r");
    CollectorSink sink("k");
    for (Operator* op : {static_cast<Operator*>(&join),
                         static_cast<Operator*>(&l),
                         static_cast<Operator*>(&r),
                         static_cast<Operator*>(&sink)}) {
      op->AttachMetrics(registry);
    }
    l.ConnectTo(0, &join, 0);
    r.ConnectTo(0, &join, 1);
    join.ConnectTo(0, &sink, 0);
    for (size_t i = 0; i < w.shj_left.size(); ++i) {
      l.Inject(w.shj_left[i]);
      r.Inject(w.shj_right[i]);
      maybe_sample();
    }
    l.Close();
    r.Close();
    total += sink.count();
  }
  {
    NestedLoopsJoin join("j", [](const Tuple& a, const Tuple& b) {
      return a.field(0) == b.field(0);
    });
    Source l("l");
    Source r("r");
    CollectorSink sink("k");
    for (Operator* op : {static_cast<Operator*>(&join),
                         static_cast<Operator*>(&l),
                         static_cast<Operator*>(&r),
                         static_cast<Operator*>(&sink)}) {
      op->AttachMetrics(registry);
    }
    l.ConnectTo(0, &join, 0);
    r.ConnectTo(0, &join, 1);
    join.ConnectTo(0, &sink, 0);
    for (size_t i = 0; i < w.nlj_left.size(); ++i) {
      l.Inject(w.nlj_left[i]);
      r.Inject(w.nlj_right[i]);
      maybe_sample();
    }
    l.Close();
    r.Close();
    total += sink.count();
  }
  {
    DuplicateElimination dedup("d");
    Source src("s");
    CollectorSink sink("k");
    for (Operator* op : {static_cast<Operator*>(&dedup),
                         static_cast<Operator*>(&src),
                         static_cast<Operator*>(&sink)}) {
      op->AttachMetrics(registry);
    }
    src.ConnectTo(0, &dedup, 0);
    dedup.ConnectTo(0, &sink, 0);
    for (const StreamElement& e : w.dedup_in) {
      src.Inject(e);
      maybe_sample();
    }
    src.Close();
    total += sink.count();
  }
  return total;
}

/// Timeline samples one RunOnce pass takes: one per 1024 injections.
[[maybe_unused]] uint64_t SamplesPerPass(const Workload& w) {
  return (w.shj_left.size() + w.nlj_left.size() + w.dedup_in.size()) / 1024;
}

// Unused when GENMIG_GUARD_SKIP is defined below (the guard becomes a skip).
// `journal_appends` (nullable) receives the appends to the sampler's journal.
[[maybe_unused]] int64_t MinNs(const Workload& w,
                               obs::MetricsRegistry* registry, int reps,
                               size_t* checksum,
                               uint64_t* journal_appends = nullptr) {
  int64_t best = std::numeric_limits<int64_t>::max();
  obs::EventJournal samples(obs::EventJournal::Options{64, ""});
  obs::TimelineSampler sampler(registry, &samples);
  for (int r = 0; r < reps; ++r) {
    if (registry != nullptr) registry->Reset();
    const auto start = std::chrono::steady_clock::now();
    const size_t count =
        RunOnce(w, registry, registry != nullptr ? &sampler : nullptr);
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    best = std::min(best, static_cast<int64_t>(ns));
    *checksum = count;
  }
  if (journal_appends != nullptr) *journal_appends = samples.total_appended();
  return best;
}

/// Best-of-`reps` wall time of a Dsms run over a keyed join+dedup workload
/// (streams pre-generated outside the timed region); with a checkpoint
/// directory, the engine commits an incremental cut every 1000 app-time
/// units (the streams span ~20k units => ~20 cuts, still far denser than
/// any real deployment's seconds-scale cadence).
[[maybe_unused]] int64_t DsmsMinNs(const std::string& ckpt_dir, int reps,
                                   size_t* checksum) {
  const std::vector<TimedTuple> left = GenerateKeyedStream(20000, 1, 64, 6);
  const std::vector<TimedTuple> right = GenerateKeyedStream(20000, 1, 64, 7);
  int64_t best = std::numeric_limits<int64_t>::max();
  for (int r = 0; r < reps; ++r) {
    Dsms::Options options;
    if (!ckpt_dir.empty()) {
      options.checkpoint_dir = ckpt_dir;
      options.checkpoint_period = 1000;
    }
    const auto start = std::chrono::steady_clock::now();
    Dsms dsms(options);
    dsms.RegisterRawStream("L", Schema::OfInts({"x"}), left);
    dsms.RegisterRawStream("R", Schema::OfInts({"x"}), right);
    auto id = dsms.InstallQuery(
        "SELECT DISTINCT L.x FROM L [RANGE 100], R [RANGE 100] "
        "WHERE L.x = R.x");
    if (!id.ok()) return -1;
    dsms.RunToCompletion();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    best = std::min(best, static_cast<int64_t>(ns));
    *checksum = dsms.Results(id.value()).size();
  }
  return best;
}

/// Removes every regular file in `dir`, then the directory itself (the
/// checkpoint store writes a flat directory).
[[maybe_unused]] void RemoveFlatDir(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* ent = ::readdir(d)) {
      const std::string name = ent->d_name;
      if (name == "." || name == "..") continue;
      ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

/// One blocking HTTP GET against the local telemetry server; returns the
/// response size (0 on connection failure).
[[maybe_unused]] size_t ScrapeOnce(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return 0;
  }
  static const char kReq[] =
      "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  (void)!::send(fd, kReq, sizeof(kReq) - 1, 0);
  size_t total = 0;
  char buf[8192];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    total += static_cast<size_t>(n);
  }
  ::close(fd);
  return total;
}

}  // namespace
}  // namespace genmig

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_UNDEFINED__)
#define GENMIG_GUARD_SKIP "sanitizer build"
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define GENMIG_GUARD_SKIP "sanitizer build"
#endif
#endif
#if !defined(GENMIG_GUARD_SKIP) && !defined(NDEBUG)
#define GENMIG_GUARD_SKIP "non-Release build"
#endif
#if !defined(GENMIG_GUARD_SKIP) && defined(GENMIG_NO_METRICS)
#define GENMIG_GUARD_SKIP "GENMIG_NO_METRICS build"
#endif

int main(int argc, char** argv) {
  using namespace genmig;  // NOLINT

  double threshold = 1.05;
  int reps = 9;
  if (argc > 1) threshold = std::atof(argv[1]);
  if (argc > 2) reps = std::atoi(argv[2]);

#ifdef GENMIG_GUARD_SKIP
  std::printf("metrics_guard: SKIP (%s)\n", GENMIG_GUARD_SKIP);
  (void)threshold;
  (void)reps;
  return 77;
#else
  Workload w;
  obs::MetricsRegistry registry;
  size_t check_detached = 0;
  size_t check_attached = 0;
  size_t check_scraped = 0;
  // Warm up once so allocator and cache state match across configs.
  (void)RunOnce(w, nullptr, nullptr);
  const int64_t detached_ns = MinNs(w, nullptr, reps, &check_detached);
  const int64_t attached_ns = MinNs(w, &registry, reps, &check_attached);

  // Third config: the same attached hot loop with a live /metrics scraper
  // hammering the telemetry server from another thread the whole time. Its
  // sampler's journal must see exactly the loop's samples — journal writes
  // are control-path-only, never per element.
  int64_t scraped_ns = attached_ns;
  uint64_t scrapes = 0;
  uint64_t journal_appends = 0;
  uint64_t samples_taken = 0;
  {
    obs::TelemetryServer server;
    server.Handle("/metrics", [&registry] {
      obs::HttpResponse resp;
      resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
      resp.body = obs::RenderPrometheus(registry);
      return resp;
    });
    if (server.Start()) {
      std::atomic<bool> stop{false};
      std::thread scraper([&] {
        while (!stop.load(std::memory_order_acquire)) {
          if (ScrapeOnce(server.port()) > 0) ++scrapes;
          // Fixed cadence: still far denser than any real scrape interval,
          // but it leaves the hot loop a core to run on.
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      });
      scraped_ns =
          MinNs(w, &registry, reps, &check_scraped, &journal_appends);
      samples_taken = SamplesPerPass(w) * static_cast<uint64_t>(reps);
      stop.store(true, std::memory_order_release);
      scraper.join();
    } else {
      std::printf("metrics_guard: WARN — telemetry bind failed, scraped "
                  "config reuses attached timing\n");
      check_scraped = check_attached;
    }
  }

  // Fourth config: the engine-level workload with and without periodic
  // incremental checkpointing. Same budget; the hot path pays only the
  // dirty-tracking walk — chunk IO rides the background commit thread.
  size_t check_plain = 0;
  size_t check_ckpt = 0;
  const int64_t plain_ns = DsmsMinNs("", reps, &check_plain);
  std::string ckpt_dir;
  {
    char tmpl[] = "/dev/shm/genmig_guard_ckpt_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) ckpt_dir = tmpl;
  }
  const int64_t ckpt_ns =
      ckpt_dir.empty() ? plain_ns : DsmsMinNs(ckpt_dir, reps, &check_ckpt);
  if (ckpt_dir.empty()) check_ckpt = check_plain;
  if (!ckpt_dir.empty()) RemoveFlatDir(ckpt_dir);

  const double ratio =
      static_cast<double>(attached_ns) / static_cast<double>(detached_ns);
  const double scraped_ratio =
      static_cast<double>(scraped_ns) / static_cast<double>(detached_ns);
  const bool single_core = std::thread::hardware_concurrency() <= 1;

  std::printf("metrics_guard: detached=%lld ns attached=%lld ns "
              "overhead=%+.2f%% (budget %+.2f%%, min of %d reps)\n",
              static_cast<long long>(detached_ns),
              static_cast<long long>(attached_ns), (ratio - 1.0) * 100.0,
              (threshold - 1.0) * 100.0, reps);
  std::printf("metrics_guard: scraped=%lld ns overhead=%+.2f%%%s "
              "(%llu live /metrics scrapes during the hot loop)\n",
              static_cast<long long>(scraped_ns),
              (scraped_ratio - 1.0) * 100.0,
              single_core ? " [not enforced: single core]" : "",
              static_cast<unsigned long long>(scrapes));
  std::printf("metrics_guard: journal appends during the scraped run: %llu "
              "(timeline samples taken: %llu)\n",
              static_cast<unsigned long long>(journal_appends),
              static_cast<unsigned long long>(samples_taken));
  const double ckpt_ratio =
      static_cast<double>(ckpt_ns) / static_cast<double>(plain_ns);
  std::printf("metrics_guard: engine plain=%lld ns checkpointed=%lld ns "
              "overhead=%+.2f%%%s\n",
              static_cast<long long>(plain_ns),
              static_cast<long long>(ckpt_ns), (ckpt_ratio - 1.0) * 100.0,
              single_core ? " [not enforced: single core]" : "");
  if (check_detached != check_attached ||
      check_scraped != check_attached) {
    std::printf("metrics_guard: FAIL — result counts differ "
                "(detached=%zu attached=%zu scraped=%zu)\n",
                check_detached, check_attached, check_scraped);
    return 1;
  }
  if (journal_appends != samples_taken) {
    std::printf("metrics_guard: FAIL — the journal must never be written "
                "on the element hot path\n");
    return 1;
  }
  if (ratio > threshold) {
    std::printf("metrics_guard: FAIL — instrumentation overhead above "
                "budget\n");
    return 1;
  }
  if (scraped_ratio > threshold && !single_core) {
    std::printf("metrics_guard: FAIL — concurrent scrapes push the hot "
                "loop above budget\n");
    return 1;
  }
  if (check_ckpt != check_plain || plain_ns < 0 || ckpt_ns < 0) {
    std::printf("metrics_guard: FAIL — checkpointed engine run diverged "
                "(plain=%zu checkpointed=%zu)\n",
                check_plain, check_ckpt);
    return 1;
  }
  if (ckpt_ratio > threshold && !single_core) {
    std::printf("metrics_guard: FAIL — periodic checkpointing pushes the "
                "engine above budget\n");
    return 1;
  }
  std::printf("metrics_guard: OK\n");
  return 0;
#endif
}
