// End-to-end benchmark of the Dsms facade: generated streams in, CQL
// installed, the engine stepped, Results() read back — the way a user drives
// the engine. Three workloads (filter, join, migrate; see NOTES.md for why
// each exists and which layer each stresses) run in four configurations:
//
//   scalar   Options{} (plus the workload's own engine knobs), Step() loop.
//   batched  executor.batch_size = 256 with fuse_stateless, Step() loop.
//   sharded  shards = 2, RunToCompletion() (sharded queries only produce
//            results there).
//   paced    scalar config, open loop: every input element is released at
//            the wall time its application timestamp is due at a fixed rate.
//
// Usage:
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale tiny] [--corrupt-drop-one] [--dump-inputs FILE]
//             [--state-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// the calls into each module and prints the per-layer metrics (NOTES.md
// lists both sets and what each should move). The last stdout line is one
// JSON object
// {"correct", "attempted", "failed", "metrics"}. Every configuration's
// output is checked for snapshot equivalence (ref::SnapshotNormalForm)
// against the first scalar run, which is itself checked against the
// ref::CheckPlanOutput oracle on an input prefix; a mismatch exits 1.

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cql/parser.h"
#include "engine/dsms.h"
#include "ref/checker.h"
#include "ref/eval.h"
#include "stream/generator.h"

using namespace genmig;  // NOLINT

namespace {

// --- Clock and small statistics helpers --------------------------------------

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int64_t ThreadCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// The paced loop's clock: wall time since construction minus the time
/// the benchmark thread was descheduled. On a shared VM another task or the
/// hypervisor holds the CPU for about 1% of wall time, in stalls of up to
/// 4 ms; left in, they would set every tail percentile. The engine never
/// blocks in the paced configuration, so the time it was off the CPU is
/// none of its doing. Reads the cheap wall clock on every call and the
/// thread's CPU clock only after a gap long enough to hide a stall.
class ScheduleClock {
 public:
  ScheduleClock()
      : wall0_(NowNs()), last_(wall0_), mark_wall_(wall0_),
        mark_cpu_(ThreadCpuNs()) {}

  int64_t Now() {
    const int64_t wall = NowNs();
    if (wall - last_ > kGapNs) {
      const int64_t cpu = ThreadCpuNs();
      off_cpu_ += std::max<int64_t>(0, (wall - mark_wall_) - (cpu - mark_cpu_));
      mark_wall_ = wall;
      mark_cpu_ = cpu;
    }
    last_ = wall;
    return wall - wall0_ - off_cpu_;
  }
  int64_t off_cpu_ns() const { return off_cpu_; }
  int64_t wall_ns() const { return NowNs() - wall0_; }

 private:
  static constexpr int64_t kGapNs = 20000;
  int64_t wall0_;
  int64_t last_;
  int64_t mark_wall_;
  int64_t mark_cpu_;
  int64_t off_cpu_ = 0;
};

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Nearest-rank quantile of an unsorted sample (copies; callers pass small
/// or already-owned vectors). 0 for an empty sample.
template <typename T>
double Quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const size_t k = std::min(
      v.size() - 1, static_cast<size_t>(std::ceil(q * v.size())) - (q > 0));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

template <typename T>
double Median(const std::vector<T>& v) {
  return Quantile(v, 0.5);
}

/// Mean of the middle 80% of a sample.
double TrimmedMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 10;
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

// --- Workloads ------------------------------------------------------------------

struct StreamSpec {
  std::string name;
  Schema schema;
  MaterializedStream ordered;  // By start; what the oracle sees.
  bool disordered = false;
  MaterializedStream arrivals;  // Arrival order (disordered streams only).
  int64_t delta = 0;            // DisorderBuffer allowance (lossless).
};

struct Workload {
  std::string name;
  std::string query;
  std::vector<StreamSpec> streams;
  /// Engine knobs every configuration of this workload shares.
  Dsms::Options base;
  /// Paced input rate in elements per second: fixed per workload, never
  /// derived from a measurement in the run (NOTES.md gives each choice).
  double paced_rate_eps = 0.0;
  /// Application time a paced element is held back by: the disorder
  /// allowance, which is when an arrival-paced DisorderBuffer would release
  /// it (the executor reads arrivals ahead, so the benchmark applies the hold).
  int64_t hold_app = 0;
  /// Oracle prefix: inputs with start < this go through ref::CheckPlanOutput.
  int64_t oracle_prefix_app = 0;
  /// Application time at which the arrival rates swap (migrate only).
  int64_t swap_app = -1;
  /// Fixed application-time points at which Info() is sampled.
  int64_t sample_every_app = 1000;

  size_t InputCount() const {
    size_t n = 0;
    for (const StreamSpec& s : streams) n += s.ordered.size();
    return n;
  }
  int64_t EndApp() const {
    int64_t end = 0;
    for (const StreamSpec& s : streams) {
      if (!s.ordered.empty()) {
        end = std::max(end, s.ordered.back().interval.start.t + 1);
      }
    }
    return end;
  }
  /// Application-time units per wall second at the paced rate.
  double AppUnitsPerSecond() const {
    return paced_rate_eps * static_cast<double>(EndApp()) /
           static_cast<double>(InputCount());
  }
};

/// Deterministic keyed stream: fields drawn with `rng() % range` (the
/// standard library's distributions are implementation-defined), one element
/// per `period` units of application time in [begin, end).
void AppendKeyed(MaterializedStream* out, std::mt19937_64* rng, int64_t begin,
                 int64_t end, int64_t period,
                 const std::vector<int64_t>& ranges) {
  for (int64_t t = begin; t < end; t += period) {
    std::vector<Value> fields;
    fields.reserve(ranges.size());
    for (const int64_t r : ranges) {
      fields.emplace_back(static_cast<int64_t>((*rng)() % static_cast<uint64_t>(r)));
    }
    out->push_back(StreamElement(Tuple(std::move(fields)),
                                 TimeInterval(Timestamp(t), Timestamp(t + 1))));
  }
}

uint64_t StreamSeed(uint64_t seed, size_t stream) {
  return seed * 1000003ULL + 17ULL * (stream + 1);
}

// Sizes are per scale: "full" for measurement, "tiny" for the benchmark's own
// tests (every code path, a fraction of a second).
Workload MakeFilter(uint64_t seed, bool tiny) {
  Workload w;
  w.name = "filter";
  w.query = "SELECT S.k, S.v FROM S [RANGE 200] WHERE S.v < 500";
  const int64_t n = tiny ? 4000 : 100000;
  std::mt19937_64 rng(StreamSeed(seed, 0));
  StreamSpec s{"S", Schema::OfInts({"k", "v"}), {}, false, {}, 0};
  AppendKeyed(&s.ordered, &rng, 0, n, 1, {20000, 1000});
  w.streams.push_back(std::move(s));
  w.paced_rate_eps = 800000.0;
  w.oracle_prefix_app = 1500;
  w.sample_every_app = 2000;
  return w;
}

Workload MakeJoin(uint64_t seed, bool tiny) {
  Workload w;
  w.name = "join";
  w.query =
      "SELECT A.k, B.v FROM A [RANGE 1000], B [RANGE 1000] "
      "WHERE A.k = B.k AND A.v < 500";
  const int64_t n = tiny ? 3000 : 40000;
  for (size_t i = 0; i < 2; ++i) {
    std::mt19937_64 rng(StreamSeed(seed, i));
    StreamSpec s{i == 0 ? "A" : "B", Schema::OfInts({"k", "v"}), {}, false,
                 {}, 0};
    AppendKeyed(&s.ordered, &rng, 0, n, 1, {2000, 1000});
    w.streams.push_back(std::move(s));
  }
  w.paced_rate_eps = 100000.0;
  w.oracle_prefix_app = 1200;
  w.sample_every_app = 500;
  return w;
}

Workload MakeMigrate(uint64_t seed, bool tiny) {
  Workload w;
  w.name = "migrate";
  const int64_t range = tiny ? 2000 : 5000;
  const int64_t end = 4 * range;
  w.swap_app = end / 2;
  w.query = "SELECT A.x, B.x, C.x FROM A [RANGE " + std::to_string(range) +
            "], B [RANGE " + std::to_string(range) + "], C [RANGE " +
            std::to_string(range) + "] WHERE A.x = B.x AND B.x = C.x";
  // The window and key count keep the join states near 1 MB, inside one
  // core's L2, and still put about 12k results inside the migration window.
  // Twice the window with 600 keys puts 19k there, but its 2-3 MB of state
  // spills into the L3 that the VM shares with its neighbours: scalar
  // throughput then swung 8-25% between runs in one process, not 2-4%.
  const int64_t keys = 250;
  // A and B start slow (period 40) and C fast (period 4); the rates swap at
  // mid-run, which moves the cost optimum away from the installed plan.
  const char* names[] = {"A", "B", "C"};
  for (size_t i = 0; i < 3; ++i) {
    std::mt19937_64 rng(StreamSeed(seed, i));
    const bool slow_first = i < 2;
    StreamSpec s{names[i], Schema::OfInts({"x"}), {}, false, {}, 0};
    AppendKeyed(&s.ordered, &rng, 0, w.swap_app, slow_first ? 40 : 4, {keys});
    AppendKeyed(&s.ordered, &rng, w.swap_app, end, slow_first ? 4 : 40, {keys});
    w.streams.push_back(std::move(s));
  }
  // 10% of A arrives late; a lossless DisorderBuffer (delta = the realized
  // maximum lateness) reorders it, so nothing is dropped.
  StreamSpec& a = w.streams[0];
  const DisorderedArrivals late =
      ApplyLateFraction(a.ordered, 0.10, 400, StreamSeed(seed, 7));
  a.disordered = true;
  a.arrivals = late.arrivals;
  a.delta = late.max_lateness;
  w.hold_app = late.max_lateness;

  w.base.stats_horizon = 2000;
  w.base.calibration_period = 1000;
  w.base.migration_cooldown = 5000;
  w.paced_rate_eps = 30000.0;
  w.oracle_prefix_app = 3000;
  w.sample_every_app = 1000;
  return w;
}

bool MakeWorkload(const std::string& name, uint64_t seed, bool tiny,
                  Workload* out) {
  if (name == "filter") {
    *out = MakeFilter(seed, tiny);
  } else if (name == "join") {
    *out = MakeJoin(seed, tiny);
  } else if (name == "migrate") {
    *out = MakeMigrate(seed, tiny);
  } else {
    return false;
  }
  return true;
}

/// Text dump of a workload's generated inputs (the same seed must give a
/// byte-identical file).
std::string DumpInputs(const Workload& w) {
  std::string out = "workload " + w.name + "\nquery " + w.query + "\n";
  for (const StreamSpec& s : w.streams) {
    const MaterializedStream& seq = s.disordered ? s.arrivals : s.ordered;
    out += "stream " + s.name + " " + std::to_string(seq.size()) +
           " delta " + std::to_string(s.delta) + "\n";
    for (const StreamElement& e : seq) {
      out += std::to_string(e.interval.start.t);
      for (size_t f = 0; f < e.tuple.size(); ++f) {
        out += " " + std::to_string(e.tuple.field(f).AsInt64());
      }
      out += "\n";
    }
  }
  return out;
}

// --- Spans (traced run only) ------------------------------------------------------

/// In-memory span recorder: name, start, end, parent and run id per span, as
/// spans around the benchmark's calls into each module. Layer = the span
/// name up to its first '.'; self time = span time minus child-span time.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    int32_t run;
  };

  void set_enabled(bool on) { enabled_ = on; }
  void set_run(int32_t run) { run_ = run; }

  int32_t Begin(const char* name) {
    if (!enabled_) return -1;
    const int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, NowNs(), 0, parent, run_});
    const int32_t id = static_cast<int32_t>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
  }
  /// Returns the span's duration (0 when disabled).
  int64_t End(int32_t id) {
    if (id < 0) return 0;
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ns = NowNs();
    stack_.pop_back();
    return s.end_ns - s.start_ns;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Exclusive (self) nanoseconds per layer.
  std::map<std::string, int64_t> SelfNsByLayer() const {
    std::vector<int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    std::map<std::string, int64_t> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const std::string name(s.name);
      const std::string layer = name.substr(0, name.find('.'));
      out[layer] += (s.end_ns - s.start_ns) - child[i];
    }
    return out;
  }

  /// Writes every span as one CSV line (id,parent,run,name,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,run,name,start_ns,end_ns\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%d,%d,%s,%" PRId64 ",%" PRId64 "\n", i, s.parent,
                   s.run, s.name, s.start_ns, s.end_ns);
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_ = false;
  int32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

SpanLog g_spans;

struct ScopedSpan {
  explicit ScopedSpan(const char* name) : id(g_spans.Begin(name)) {}
  ~ScopedSpan() { g_spans.End(id); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id;
};

// --- Driving one Dsms ---------------------------------------------------------------

enum class Mode { kScalar, kBatched, kSharded, kPaced };

const char* ModeName(Mode m) {
  switch (m) {
    case Mode::kScalar: return "scalar";
    case Mode::kBatched: return "batched";
    case Mode::kSharded: return "sharded";
    case Mode::kPaced: return "paced";
  }
  return "?";
}

Dsms::Options OptionsFor(const Workload& w, Mode mode) {
  Dsms::Options o = w.base;
  if (mode == Mode::kBatched) {
    o.executor.batch_size = 256;
    o.fuse_stateless = true;
  } else if (mode == Mode::kSharded) {
    o.shards = 2;
  }
  return o;
}

/// A Dsms with the workload's streams registered and its query installed.
struct Engine {
  std::unique_ptr<Dsms> dsms;
  Dsms::QueryId id = -1;
  int64_t setup_ns = 0;     // RegisterStream + InstallQuery.
  int64_t register_ns = 0;  // The RegisterStream share of setup_ns.
};

Engine Setup(const Workload& w, Dsms::Options options,
             const std::vector<StreamSpec>* streams = nullptr) {
  if (streams == nullptr) streams = &w.streams;
  // Input copies are made before the clock starts: the engine takes its
  // streams by value, and copying them is the benchmark's cost, not setup's.
  std::vector<MaterializedStream> data;
  for (const StreamSpec& s : *streams) {
    data.push_back(s.disordered ? s.arrivals : s.ordered);
  }
  Engine e;
  e.dsms = std::make_unique<Dsms>(std::move(options));
  const int64_t t0 = NowNs();
  for (size_t i = 0; i < streams->size(); ++i) {
    const StreamSpec& s = (*streams)[i];
    ScopedSpan span("engine.register");
    if (s.disordered) {
      DisorderBuffer::Options d;
      d.delta = s.delta;
      e.dsms->RegisterDisorderedStream(s.name, s.schema, std::move(data[i]), d);
    } else {
      e.dsms->RegisterStream(s.name, s.schema, std::move(data[i]));
    }
  }
  e.register_ns = NowNs() - t0;
  Result<Dsms::QueryId> id = [&] {
    ScopedSpan span("engine.install");
    return e.dsms->InstallQuery(w.query);
  }();
  e.setup_ns = NowNs() - t0;
  if (!id.ok()) {
    std::fprintf(stderr, "InstallQuery failed: %s\n",
                 id.status().ToString().c_str());
    std::exit(1);
  }
  e.id = id.value();
  return e;
}

/// Per-run observations the traced run turns into per-layer metrics.
struct StepTrace {
  std::vector<int64_t> step_ns;
  std::vector<int64_t> step_app;  // current_time() after the step.
  std::vector<int64_t> calibration_step_ns;
};

/// Unpaced run: Step() as fast as possible (RunToCompletion for sharded).
/// Returns the wall nanoseconds of the run.
int64_t RunUnpaced(Engine& e, Mode mode, StepTrace* trace) {
  Dsms& d = *e.dsms;
  const int64_t t0 = NowNs();
  if (mode == Mode::kSharded) {
    ScopedSpan span("par.run_to_completion");
    d.RunToCompletion();
  } else if (trace == nullptr) {
    while (d.Step()) {
    }
  } else {
    const Dsms::AutoReoptStatus& auto_status = d.AutoStatus(e.id);
    while (true) {
      const size_t calibrations = auto_status.calibrations;
      const int32_t span = g_spans.Begin("plan.step");
      const bool more = d.Step();
      const int64_t ns = g_spans.End(span);
      if (!more) break;
      trace->step_ns.push_back(ns);
      trace->step_app.push_back(d.current_time().t);
      if (auto_status.calibrations != calibrations) {
        trace->calibration_step_ns.push_back(ns);
      }
    }
  }
  return NowNs() - t0;
}

/// Paced (open-loop) run. Appends one latency (ns, from the wall time the
/// result's start timestamp was due to its first appearance in Results())
/// per result to `latency_ns`, and the matching result start to `start_app`.
struct PacedRun {
  std::vector<int64_t> latency_ns;
  std::vector<int64_t> start_app;
  std::vector<int64_t> lag_ns;  // Generator lateness per loop iteration.
  int64_t end_lag_ns = 0;       // Lateness when the last input was released.
  int64_t wall_ns = 0;          // Wall time of the run.
  int64_t off_cpu_ns = 0;       // Wall time the thread was descheduled.
};

PacedRun RunPaced(const Workload& w, Engine& e, size_t expected_results) {
  Dsms& d = *e.dsms;
  PacedRun out;
  // Reserved up front so the benchmark's own bookkeeping never reallocates
  // while the engine is being timed.
  out.latency_ns.reserve(expected_results + 1024);
  out.start_app.reserve(expected_results + 1024);
  out.lag_ns.reserve(static_cast<size_t>(w.EndApp()) + 16);
  const double units_per_ns = w.AppUnitsPerSecond() * 1e-9;
  const int64_t end_app = w.EndApp();
  const MaterializedStream& results = d.Results(e.id);
  size_t seen = 0;
  int64_t released_below = std::numeric_limits<int64_t>::min();
  ScheduleClock clock;
  auto due_ns = [&](int64_t app) {
    return static_cast<int64_t>(static_cast<double>(app) / units_per_ns);
  };
  auto collect = [&](int64_t now_rel) {
    for (; seen < results.size(); ++seen) {
      const int64_t start = results[seen].interval.start.t;
      out.latency_ns.push_back(now_rel - due_ns(start));
      out.start_app.push_back(start);
    }
  };
  while (true) {
    const int64_t now_rel = clock.Now();
    // Everything with start <= due_app - hold is due; release it.
    const int64_t due_app =
        static_cast<int64_t>(static_cast<double>(now_rel) * units_per_ns) -
        w.hold_app;
    if (due_app + 1 > released_below) {
      if (released_below != std::numeric_limits<int64_t>::min() &&
          released_below < end_app) {
        // The oldest element still unreleased was due at released_below
        // (+ hold); the loop reaches it only now.
        out.lag_ns.push_back(
            std::max<int64_t>(0, now_rel - due_ns(released_below + w.hold_app)));
      }
      {
        ScopedSpan span("plan.run_until");
        d.RunUntil(Timestamp(due_app + 1));
      }
      released_below = due_app + 1;
    }
    collect(clock.Now());
    if (released_below >= end_app) {
      out.end_lag_ns = std::max<int64_t>(
          0, clock.Now() - due_ns(end_app - 1 + w.hold_app));
      break;
    }
  }
  {
    ScopedSpan span("plan.run_to_completion");
    d.RunToCompletion();  // Closes the sources: flushes held-back results.
  }
  collect(clock.Now());
  out.off_cpu_ns = clock.off_cpu_ns();
  out.wall_ns = clock.wall_ns();
  return out;
}

// --- Correctness ---------------------------------------------------------------------

/// Order-sensitive fingerprint of a raw result stream: equal fingerprints of
/// two runs in one configuration mean identical outputs, so only the first
/// run of each configuration pays for a normal-form comparison.
uint64_t Fingerprint(const MaterializedStream& s) {
  uint64_t h = 1469598103934665603ULL ^ s.size();
  auto mix = [&h](uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const StreamElement& e : s) {
    mix(e.tuple.Hash());
    mix(static_cast<uint64_t>(e.interval.start.t));
    mix(e.interval.start.eps);
    mix(static_cast<uint64_t>(e.interval.end.t));
    mix(e.interval.end.eps);
  }
  return h;
}

struct Checker {
  MaterializedStream reference_nf;  // Normal form of the first scalar run.
  std::map<Mode, uint64_t> accepted;  // Fingerprint that matched, per mode.
  bool corrupt_drop_one = false;
  size_t checks = 0;

  /// True iff `results` is snapshot-equivalent to the reference output.
  bool Check(Mode mode, MaterializedStream results) {
    if (corrupt_drop_one && !results.empty()) {
      results.erase(results.begin() + static_cast<ptrdiff_t>(results.size() / 2));
    }
    const uint64_t fp = Fingerprint(results);
    auto it = accepted.find(mode);
    if (it != accepted.end() && it->second == fp) return true;
    ++checks;
    if (ref::SnapshotNormalForm(results) != reference_nf) {
      std::fprintf(stderr, "correctness: %s output is not snapshot-equivalent "
                   "to the scalar reference (%zu vs %zu normal-form rows)\n",
                   ModeName(mode), results.size(), reference_nf.size());
      return false;
    }
    accepted[mode] = fp;
    return true;
  }
};

/// Runs the workload on its input prefix and compares the output with the
/// relational reference evaluation (O(n^2), hence the prefix).
bool OracleCheck(const Workload& w, bool corrupt) {
  std::vector<StreamSpec> prefix;
  ref::InputMap inputs;
  cql::Catalog catalog;
  for (const StreamSpec& s : w.streams) {
    StreamSpec p{s.name, s.schema, {}, s.disordered, {}, s.delta};
    for (const StreamElement& e : s.ordered) {
      if (e.interval.start.t < w.oracle_prefix_app) p.ordered.push_back(e);
    }
    for (const StreamElement& e : s.arrivals) {
      if (e.interval.start.t < w.oracle_prefix_app) p.arrivals.push_back(e);
    }
    inputs[s.name] = p.ordered;
    catalog.Register(s.name, s.schema);
    prefix.push_back(std::move(p));
  }
  Engine e = Setup(w, OptionsFor(w, Mode::kScalar), &prefix);
  e.dsms->RunToCompletion();
  MaterializedStream actual = e.dsms->Results(e.id);
  if (corrupt && !actual.empty()) actual.pop_back();
  Result<LogicalPtr> plan = cql::ParseQuery(w.query, catalog);
  if (!plan.ok()) return false;
  const Status s = ref::CheckPlanOutput(*plan.value(), inputs, actual);
  if (!s.ok()) {
    std::fprintf(stderr, "oracle: %s prefix mismatch: %s\n", w.name.c_str(),
                 s.ToString().substr(0, 400).c_str());
  }
  return s.ok();
}

// --- Output ------------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "" : ", ");
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void PrintTable(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("# %s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("#   %-34s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

size_t PeakRssKb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<size_t>(ru.ru_maxrss);
}

// --- The untraced run: end-to-end metrics -----------------------------------------

struct RunContext {
  Workload w;
  double seconds = 10.0;
  bool tiny = false;
  bool corrupt_drop_one = false;
  std::string state_dir;   // Checkpoints and the span dump go here.
  uint64_t seed = 0;
  size_t reference_results = 0;  // Result count of the reference run.
  uint64_t attempted = 0;  // Input elements offered to the engine.
  uint64_t failed = 0;     // Late-dropped + inputs of runs that failed.
  bool correct = true;
  Checker checker;
};

uint64_t DroppedLate(const Workload& w, const Dsms& d) {
  uint64_t dropped = 0;
  for (const StreamSpec& s : w.streams) {
    if (s.disordered) dropped += d.DisorderStats(s.name).stats.dropped_late;
  }
  return dropped;
}

/// Accounts one finished run: attempted inputs, drops and the output check.
void Account(RunContext& ctx, Mode mode, Engine& e) {
  const uint64_t inputs = ctx.w.InputCount();
  ctx.attempted += inputs;
  ctx.failed += DroppedLate(ctx.w, *e.dsms);
  if (!ctx.checker.Check(mode, e.dsms->Results(e.id))) {
    ctx.correct = false;
    ctx.failed += inputs;
  }
}

/// Reference run (untimed): scalar, driven by RunUntil over fixed
/// application-time points at which Info().state_bytes is sampled. Its
/// output, oracle-checked on a prefix, is every other run's reference.
/// Returns the peak sampled state bytes.
size_t ReferenceRun(RunContext& ctx, std::vector<int64_t>* info_ns,
                    int64_t* watermark_lag_app = nullptr) {
  const Workload& w = ctx.w;
  Engine e = Setup(w, OptionsFor(w, Mode::kScalar));
  Dsms& d = *e.dsms;
  size_t peak = 0;
  for (int64_t t = w.sample_every_app; t < w.EndApp() + w.sample_every_app;
       t += w.sample_every_app) {
    d.RunUntil(Timestamp(t));
    const int32_t span = g_spans.Begin("engine.info");
    const int64_t t0 = NowNs();
    const Dsms::QueryInfo info = d.Info(e.id);
    if (info_ns != nullptr) info_ns->push_back(NowNs() - t0);
    g_spans.End(span);
    peak = std::max(peak, info.state_bytes);
    if (watermark_lag_app == nullptr) continue;
    // How far each disordered stream's watermark trails its newest arrival:
    // the hold-back the buffer imposes.
    for (const StreamSpec& s : w.streams) {
      const Dsms::DisorderInfo di = d.DisorderStats(s.name);
      if (!s.disordered || di.stats.arrived == 0 ||
          di.watermark == Timestamp::MinInstant()) {
        continue;
      }
      int64_t newest = std::numeric_limits<int64_t>::min();
      for (size_t i = 0; i < di.stats.arrived && i < s.arrivals.size(); ++i) {
        newest = std::max(newest, s.arrivals[i].interval.start.t);
      }
      *watermark_lag_app = std::max(*watermark_lag_app, newest - di.watermark.t);
    }
  }
  d.RunToCompletion();
  ctx.checker.reference_nf = ref::SnapshotNormalForm(d.Results(e.id));
  ctx.reference_results = d.Results(e.id).size();
  ctx.attempted += w.InputCount();
  ctx.failed += DroppedLate(w, d);
  if (!OracleCheck(w, ctx.corrupt_drop_one)) {
    ctx.correct = false;
    ctx.failed += w.InputCount();
  }
  return peak;
}

/// The migration window of a run: first to last application time of the
/// tracer's records. False when the run did not migrate.
bool MigrationWindow(const Dsms& d, int64_t* lo, int64_t* hi) {
  const std::vector<obs::TraceRecord>& records = d.tracer().records();
  if (records.empty()) return false;
  *lo = records.front().app_time.t;
  *hi = records.front().app_time.t;
  for (const obs::TraceRecord& r : records) {
    *lo = std::min(*lo, r.app_time.t);
    *hi = std::max(*hi, r.app_time.t);
  }
  return true;
}

/// Input elements and wall time summed over every unpaced run of one
/// configuration. On a shared 4-vCPU VM, memory-bound runs switch between a
/// fast and a slow state every few seconds (about 1.6x apart on migrate).
/// The overall rate moves smoothly with the share of time spent in each
/// state. A median over runs would jump between the two.
struct Throughput {
  double inputs = 0.0;
  int64_t ns = 0;
  double eps() const { return ns == 0 ? 0.0 : inputs / Seconds(ns); }
};

void ThroughputRun(RunContext& ctx, Mode mode, Throughput* out,
                   std::vector<double>* setup_s = nullptr) {
  Engine e = Setup(ctx.w, OptionsFor(ctx.w, mode));
  if (setup_s != nullptr) setup_s->push_back(Seconds(e.setup_ns));
  out->ns += RunUnpaced(e, mode, nullptr);
  out->inputs += static_cast<double>(ctx.w.InputCount());
  Account(ctx, mode, e);
}

/// Per-run latency percentiles of the paced configuration. Each run's
/// percentile rests on its own samples; the metrics are medians over runs,
/// so one run disturbed by a neighbour's burst does not move them.
struct PacedSummary {
  std::vector<double> p50_ns;
  std::vector<double> p999_ns;
  std::vector<double> window_p99_ns;
  std::vector<double> lag_p99_ns;
  std::vector<double> end_lag_ns;
  std::vector<double> setup_s;
  size_t samples = 0;
  size_t window_samples = 0;
  int64_t wall_ns = 0;
  int64_t off_cpu_ns = 0;
};

void PacedRunOnce(RunContext& ctx, PacedSummary* sum) {
  Engine e = Setup(ctx.w, OptionsFor(ctx.w, Mode::kPaced));
  sum->setup_s.push_back(Seconds(e.setup_ns));
  const PacedRun run = RunPaced(ctx.w, e, ctx.reference_results);
  int64_t lo = 0;
  int64_t hi = 0;
  // Without a migration the window is the whole run (see NOTES.md).
  const bool migrated = MigrationWindow(*e.dsms, &lo, &hi);
  std::vector<int64_t> window;
  window.reserve(run.latency_ns.size());
  for (size_t i = 0; i < run.latency_ns.size(); ++i) {
    if (!migrated || (run.start_app[i] >= lo && run.start_app[i] <= hi)) {
      window.push_back(run.latency_ns[i]);
    }
  }
  sum->samples += run.latency_ns.size();
  sum->window_samples += window.size();
  sum->wall_ns += run.wall_ns;
  sum->off_cpu_ns += run.off_cpu_ns;
  sum->p50_ns.push_back(Quantile(run.latency_ns, 0.5));
  sum->p999_ns.push_back(Quantile(run.latency_ns, 0.999));
  sum->window_p99_ns.push_back(Quantile(window, 0.99));
  sum->lag_p99_ns.push_back(Quantile(run.lag_ns, 0.99));
  sum->end_lag_ns.push_back(static_cast<double>(run.end_lag_ns));
  Account(ctx, Mode::kPaced, e);
}

void PrintPacedSummary(const RunContext& ctx, const PacedSummary& paced) {
  std::printf("# paced at %.0f el/s: %zu runs, %zu latency samples (%zu due "
              "inside the migration window)\n",
              ctx.w.paced_rate_eps, paced.p50_ns.size(), paced.samples,
              paced.window_samples);
  std::printf("#   latency p50 %.3f us, p999 %.3f us, migration-window p99 "
              "%.3f us (medians of runs)\n",
              Median(paced.p50_ns) * 1e-3, Median(paced.p999_ns) * 1e-3,
              Median(paced.window_p99_ns) * 1e-3);
  std::printf("#   generator lateness p99 %.4f ms, %.4f ms at the last input; "
              "lateness that grows over a run means the rate is over "
              "capacity\n",
              Median(paced.lag_p99_ns) * 1e-6, Median(paced.end_lag_ns) * 1e-6);
  std::printf("#   %.1f ms of wall time, %.2f ms of it with the benchmark thread "
              "descheduled (left out: the schedule runs on on-CPU time)\n",
              paced.wall_ns * 1e-6, paced.off_cpu_ns * 1e-6);
}

int RunEndToEnd(RunContext& ctx) {
  const int min_rounds = ctx.tiny ? 1 : 3;
  const size_t peak_state = ReferenceRun(ctx, nullptr);

  // Rounds of scalar, batched, sharded and paced runs until the time is
  // spent: interleaving spreads any slow stretch of the machine over every
  // configuration instead of one.
  Throughput scalar;
  Throughput batched;
  Throughput sharded;
  PacedSummary paced;
  double rss_mb = 0.0;
  const int64_t start = NowNs();
  int rounds = 0;
  while (rounds < min_rounds || Seconds(NowNs() - start) < ctx.seconds) {
    ThroughputRun(ctx, Mode::kScalar, &scalar, &paced.setup_s);
    if (rounds == 0) {
      // Peak RSS so far: inputs, the reference run and one scalar run.
      rss_mb = static_cast<double>(PeakRssKb()) / 1024.0;
    }
    ThroughputRun(ctx, Mode::kBatched, &batched);
    ThroughputRun(ctx, Mode::kSharded, &sharded);
    PacedRunOnce(ctx, &paced);
    ++rounds;
  }

  std::vector<Metric> m;
  // Set-up is well under a millisecond and memory-bound (registration scans
  // every input once), so it follows the machine's fast and slow states.
  // Samples come from every scalar-config set-up across the run; the
  // trimmed mean drops preempted outliers.
  m.push_back({"setup_s", TrimmedMean(paced.setup_s), "s"});
  m.push_back({"throughput_eps", scalar.eps(), "1/s"});
  m.push_back({"throughput_batched_eps", batched.eps(), "1/s"});
  m.push_back({"throughput_sharded_eps", sharded.eps(), "1/s"});
  m.push_back({"latency_p50_us", Median(paced.p50_ns) * 1e-3, "us"});
  m.push_back({"peak_rss_mb", rss_mb, "MB"});

  std::printf("# workload %s: %zu inputs, query: %s\n", ctx.w.name.c_str(),
              ctx.w.InputCount(), ctx.w.query.c_str());
  std::printf("# %d rounds of scalar, batched, sharded and paced runs\n",
              rounds);
  PrintPacedSummary(ctx, paced);
  std::printf("# peak state (Info().state_bytes at fixed points): %zu B\n",
              peak_state);
  PrintTable("end-to-end metrics", m);
  std::printf("# correctness: %s (%zu normal-form comparisons)\n",
              ctx.correct ? "ok" : "FAILED", ctx.checker.checks);
  std::printf("%s\n",
              FormatJson(ctx.correct, ctx.attempted, ctx.failed, m).c_str());
  return ctx.correct ? 0 : 1;
}

// --- The traced run: per-layer metrics ----------------------------------------------

/// Counter sums over the registry slots of one operator role.
struct RoleCounters {
  uint64_t in = 0;
  uint64_t out = 0;
  uint64_t batches = 0;
  uint64_t inserts = 0;
  uint64_t expires = 0;
  uint64_t peak_units = 0;
  uint64_t backpressure_ns = 0;
  uint64_t peak_watermark_lag = 0;
};

/// Operator role from its registry name. The engine names windows "w_*",
/// the per-query migration controller "q<i>", its GenMig merge
/// "q<i>/coalesce", box operators "select#<n>", "hashjoin#<n>" and so on,
/// and sharded slots carry an "s<k>/" prefix.
std::string RoleOf(const std::string& full) {
  std::string name = full;
  if (name.size() > 1 && name[0] == 's' && std::isdigit(name[1])) {
    const size_t slash = name.find('/');
    if (slash != std::string::npos) name = name.substr(slash + 1);
  }
  if (name.rfind("w_", 0) == 0) return "window";
  if (name.find("coalesce") != std::string::npos) return "coalesce";
  if (name.find("join") != std::string::npos) return "join";
  if (name.find("select") != std::string::npos) return "select";
  if (name.size() > 1 && name[0] == 'q' &&
      name.find_first_not_of("0123456789", 1) == std::string::npos) {
    return "q0";
  }
  return "other";
}

std::map<std::string, RoleCounters> CountersByRole(const Dsms& d) {
  std::map<std::string, RoleCounters> out;
  for (const obs::OperatorMetrics& m : d.metrics().operators()) {
    RoleCounters& c = out[RoleOf(m.name)];
    c.in += m.elements_in;
    c.out += m.elements_out;
    c.batches += m.batches_in;
    c.inserts += m.state_inserts;
    c.expires += m.state_expires;
    c.peak_units += m.peak_state_units;
    c.backpressure_ns += m.backpressure_ns;
    c.peak_watermark_lag =
        std::max<uint64_t>(c.peak_watermark_lag, m.peak_watermark_lag);
  }
  return out;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Rows per pushed batch; an operator that saw rows but no batch got every
/// row pushed on its own (1 row per push).
double RowsPerBatch(const RoleCounters& c) {
  if (c.in == 0) return 0.0;
  return c.batches == 0 ? 1.0 : static_cast<double>(c.in) / c.batches;
}

/// Explicit checkpoints at fixed application-time points of one scalar run.
struct CkptSummary {
  std::vector<int64_t> ns;
  uint64_t bytes_written = 0;
};

CkptSummary CheckpointRun(RunContext& ctx) {
  CkptSummary out;
  const std::string dir = ctx.state_dir + "/ckpt-" + ctx.w.name + "-" +
                          std::to_string(ctx.seed);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  {
    Dsms::Options options = OptionsFor(ctx.w, Mode::kScalar);
    options.checkpoint_dir = dir;
    Engine e = Setup(ctx.w, options);
    Dsms& d = *e.dsms;
    const int kPoints = 8;
    for (int i = 1; i <= kPoints; ++i) {
      d.RunUntil(Timestamp(ctx.w.EndApp() * i / (kPoints + 1)));
      // A migration in a transient phase refuses the cut for a few steps.
      for (int attempt = 0; attempt < 10000; ++attempt) {
        const int32_t span = g_spans.Begin("ckpt.checkpoint");
        const int64_t t0 = NowNs();
        const Status s = d.Checkpoint();
        const int64_t ns = NowNs() - t0;
        g_spans.End(span);
        if (s.ok()) {
          out.ns.push_back(ns);
          out.bytes_written += d.CheckpointStats().written_bytes;
          break;
        }
        if (!d.Step()) break;
      }
    }
    d.RunToCompletion();
    Account(ctx, Mode::kScalar, e);
  }
  std::filesystem::remove_all(dir, ec);
  return out;
}

int RunTraced(RunContext& ctx) {
  const Workload& w = ctx.w;
  const int min_runs = ctx.tiny ? 1 : 3;
  g_spans.set_enabled(true);
  int32_t run_id = 0;
  auto begin_run = [&](const char* name) {
    g_spans.set_run(++run_id);
    return g_spans.Begin(name);
  };

  // Reference run: Info() at fixed application-time points.
  std::vector<int64_t> info_ns;
  int64_t watermark_lag_app = 0;
  int32_t root = begin_run("bench.reference");
  const size_t peak_state = ReferenceRun(ctx, &info_ns, &watermark_lag_app);
  g_spans.End(root);

  // CQL parse, called directly (InstallQuery parses internally, out of sight).
  std::vector<int64_t> parse_ns;
  {
    cql::Catalog catalog;
    for (const StreamSpec& s : w.streams) catalog.Register(s.name, s.schema);
    root = begin_run("bench.parse");
    for (int i = 0; i < 50; ++i) {
      const int32_t span = g_spans.Begin("cql.parse");
      Result<LogicalPtr> plan = cql::ParseQuery(w.query, catalog);
      parse_ns.push_back(g_spans.End(span));
      if (!plan.ok()) return 1;
    }
    g_spans.End(root);
  }

  // Scalar runs, untraced and traced interleaved: the traced ones time every
  // Step() and give the executor, migration and optimizer numbers; the pair
  // gives the tracing overhead.
  std::vector<double> untraced_eps;
  std::vector<double> traced_eps;
  std::vector<int64_t> register_ns;
  std::vector<int64_t> install_ns;
  StepTrace steps;
  std::vector<int64_t> migration_step_ns;
  std::unique_ptr<Engine> last;  // Last traced scalar engine, for obs calls.
  const int64_t start = NowNs();
  // Every traced run keeps one span per Step in memory: stop at 600k.
  const size_t max_traced_steps = 600000;
  while (static_cast<int>(traced_eps.size()) < min_runs ||
         (steps.step_ns.size() + w.InputCount() <= max_traced_steps &&
          Seconds(NowNs() - start) < 0.2 * ctx.seconds)) {
    {
      g_spans.set_enabled(false);
      Engine e = Setup(w, OptionsFor(w, Mode::kScalar));
      const int64_t ns = RunUnpaced(e, Mode::kScalar, nullptr);
      untraced_eps.push_back(static_cast<double>(w.InputCount()) / Seconds(ns));
      Account(ctx, Mode::kScalar, e);
      g_spans.set_enabled(true);
    }
    root = begin_run("bench.scalar");
    auto e = std::make_unique<Engine>(Setup(w, OptionsFor(w, Mode::kScalar)));
    register_ns.push_back(e->register_ns);
    install_ns.push_back(e->setup_ns - e->register_ns);
    StepTrace run;
    const int64_t ns = RunUnpaced(*e, Mode::kScalar, &run);
    g_spans.End(root);
    traced_eps.push_back(static_cast<double>(w.InputCount()) / Seconds(ns));
    int64_t lo = 0;
    int64_t hi = 0;
    if (MigrationWindow(*e->dsms, &lo, &hi)) {
      for (size_t i = 0; i < run.step_ns.size(); ++i) {
        if (run.step_app[i] >= lo && run.step_app[i] <= hi) {
          migration_step_ns.push_back(run.step_ns[i]);
        }
      }
    }
    steps.step_ns.insert(steps.step_ns.end(), run.step_ns.begin(),
                         run.step_ns.end());
    steps.calibration_step_ns.insert(steps.calibration_step_ns.end(),
                                     run.calibration_step_ns.begin(),
                                     run.calibration_step_ns.end());
    Account(ctx, Mode::kScalar, *e);
    last = std::move(e);
  }
  Dsms& d = *last->dsms;
  const Dsms::QueryId id = last->id;
  const auto scalar_roles = CountersByRole(d);
  const Dsms::AutoReoptStatus& auto_status = d.AutoStatus(id);
  int64_t mig_lo = 0;
  int64_t mig_hi = 0;
  const bool migrated = MigrationWindow(d, &mig_lo, &mig_hi);
  double mig_wall_ms = 0.0;
  if (migrated) {
    const auto& recs = d.tracer().records();
    uint64_t wlo = recs.front().wall_ns;
    uint64_t whi = recs.front().wall_ns;
    for (const obs::TraceRecord& r : recs) {
      wlo = std::min(wlo, r.wall_ns);
      whi = std::max(whi, r.wall_ns);
    }
    mig_wall_ms = static_cast<double>(whi - wlo) * 1e-6;
  }
  uint64_t admitted = 0;
  uint64_t dropped = 0;
  for (const StreamSpec& s : w.streams) {
    if (!s.disordered) continue;
    const Dsms::DisorderInfo info = d.DisorderStats(s.name);
    admitted += info.stats.admitted;
    dropped += info.stats.dropped_late;
  }
  const size_t results = d.Results(id).size();

  // Observability calls a user polls, once each at the end of the run.
  root = begin_run("bench.obs");
  int64_t metrics_text_ns = 0;
  int64_t status_json_ns = 0;
  int64_t chrome_trace_ns = 0;
  {
    int32_t span = g_spans.Begin("obs.metrics_text");
    (void)d.MetricsText();
    metrics_text_ns = g_spans.End(span);
    span = g_spans.Begin("obs.status_json");
    (void)d.StatusJson();
    status_json_ns = g_spans.End(span);
    span = g_spans.Begin("obs.chrome_trace");
    (void)d.ExportChromeTraceJson();
    chrome_trace_ns = g_spans.End(span);
  }
  g_spans.End(root);

  // Batched: achieved rows per step and per operator batch.
  root = begin_run("bench.batched");
  Engine batched = Setup(w, OptionsFor(w, Mode::kBatched));
  StepTrace batched_steps;
  RunUnpaced(batched, Mode::kBatched, &batched_steps);
  g_spans.End(root);
  const auto batched_roles = CountersByRole(*batched.dsms);
  Account(ctx, Mode::kBatched, batched);

  // Sharded: router backpressure and shard watermark lag.
  root = begin_run("bench.sharded");
  Engine sharded = Setup(w, OptionsFor(w, Mode::kSharded));
  RunUnpaced(sharded, Mode::kSharded, nullptr);
  g_spans.End(root);
  RoleCounters par_total;
  for (const auto& [role, c] : CountersByRole(*sharded.dsms)) {
    par_total.backpressure_ns += c.backpressure_ns;
    par_total.peak_watermark_lag =
        std::max(par_total.peak_watermark_lag, c.peak_watermark_lag);
  }
  Account(ctx, Mode::kSharded, sharded);

  // Paced: latency tails and how late the open-loop generator ran. Only the
  // first run records spans; the tails are medians over all the runs.
  PacedSummary paced;
  const int64_t paced_start = NowNs();
  while (static_cast<int>(paced.p50_ns.size()) < min_runs ||
         Seconds(NowNs() - paced_start) < 0.3 * ctx.seconds) {
    const bool first = paced.p50_ns.empty();
    if (first) root = begin_run("bench.paced");
    g_spans.set_enabled(first);
    PacedRunOnce(ctx, &paced);
    g_spans.set_enabled(true);
    if (first) g_spans.End(root);
  }

  // Checkpoints at fixed application-time points.
  root = begin_run("bench.checkpoint");
  const CkptSummary ckpt = CheckpointRun(ctx);
  g_spans.End(root);

  auto role = [](const std::map<std::string, RoleCounters>& m,
                 const char* name) -> const RoleCounters& {
    static const RoleCounters kNone;
    auto it = m.find(name);
    return it == m.end() ? kNone : it->second;
  };
  const RoleCounters& join = role(scalar_roles, "join");
  const RoleCounters& select = role(scalar_roles, "select");
  const RoleCounters& coalesce = role(scalar_roles, "coalesce");
  const auto self_ns = g_spans.SelfNsByLayer();
  auto self_ms = [&](const char* layer) {
    auto it = self_ns.find(layer);
    return it == self_ns.end() ? 0.0 : static_cast<double>(it->second) * 1e-6;
  };
  const double inputs = static_cast<double>(w.InputCount());

  std::vector<Metric> m;
  m.push_back({"cql.parse_us", Median(parse_ns) * 1e-3, "us"});
  m.push_back({"engine.register_ms", Median(register_ns) * 1e-6, "ms"});
  m.push_back({"engine.install_ms", Median(install_ns) * 1e-6, "ms"});
  m.push_back({"engine.info_us", Median(info_ns) * 1e-3, "us"});
  m.push_back({"engine.peak_state_bytes", static_cast<double>(peak_state), "B"});
  m.push_back({"plan.step_ns_p50", Quantile(steps.step_ns, 0.5), "ns"});
  m.push_back({"plan.step_ns_p99", Quantile(steps.step_ns, 0.99), "ns"});
  m.push_back({"plan.steps",
               static_cast<double>(steps.step_ns.size()) / traced_eps.size(),
               "count"});
  m.push_back({"plan.rows_per_step",
               Ratio(inputs, static_cast<double>(batched_steps.step_ns.size())),
               "rows"});
  m.push_back({"plan.sched_lag_p99_ms", Median(paced.lag_p99_ns) * 1e-6, "ms"});
  m.push_back({"plan.sched_lag_end_ms", Median(paced.end_lag_ns) * 1e-6, "ms"});
  m.push_back({"ops.window.rows_per_batch",
               RowsPerBatch(role(batched_roles, "window")), "rows"});
  m.push_back({"ops.q0.rows_per_batch", RowsPerBatch(role(batched_roles, "q0")),
               "rows"});
  m.push_back({"ops.join.rows_per_batch",
               RowsPerBatch(role(batched_roles, "join")), "rows"});
  m.push_back({"ops.select.selectivity",
               Ratio(static_cast<double>(select.out), static_cast<double>(select.in)),
               "ratio"});
  m.push_back({"ops.join.selectivity",
               Ratio(static_cast<double>(join.out), static_cast<double>(join.in)),
               "ratio"});
  m.push_back({"ops.join.state_inserts", static_cast<double>(join.inserts), "count"});
  m.push_back({"ops.join.state_expires", static_cast<double>(join.expires), "count"});
  m.push_back({"ops.join.peak_state_units", static_cast<double>(join.peak_units),
               "count"});
  m.push_back({"migration.count",
               static_cast<double>(d.Info(id).migrations_completed), "count"});
  m.push_back({"migration.window_app",
               migrated ? static_cast<double>(mig_hi - mig_lo) : 0.0, "app"});
  m.push_back({"migration.window_wall_ms", mig_wall_ms, "ms"});
  m.push_back({"migration.step_ns_p99", Quantile(migration_step_ns, 0.99), "ns"});
  m.push_back({"migration.coalesced_pairs",
               static_cast<double>(coalesce.in - coalesce.out), "count"});
  m.push_back({"opt.calibrations", static_cast<double>(auto_status.calibrations),
               "count"});
  m.push_back({"opt.trigger_delay_app",
               auto_status.last_armed == Timestamp::MinInstant() || w.swap_app < 0
                   ? 0.0
                   : static_cast<double>(auto_status.last_armed.t - w.swap_app),
               "app"});
  m.push_back({"opt.calibration_step_us_p50",
               Median(steps.calibration_step_ns) * 1e-3, "us"});
  m.push_back({"stream.disorder.admitted", static_cast<double>(admitted), "count"});
  m.push_back({"stream.disorder.dropped_late", static_cast<double>(dropped),
               "count"});
  m.push_back({"stream.disorder.watermark_lag_app",
               static_cast<double>(watermark_lag_app), "app"});
  m.push_back({"sink.results", static_cast<double>(results), "count"});
  m.push_back({"sink.results_per_input", static_cast<double>(results) / inputs,
               "ratio"});
  m.push_back({"sink.latency_p999_us", Median(paced.p999_ns) * 1e-3, "us"});
  m.push_back({"sink.migration_latency_p99_us",
               Median(paced.window_p99_ns) * 1e-3, "us"});
  m.push_back({"par.backpressure_ms",
               static_cast<double>(par_total.backpressure_ns) * 1e-6, "ms"});
  m.push_back({"par.peak_watermark_lag_app",
               static_cast<double>(par_total.peak_watermark_lag), "app"});
  m.push_back({"obs.metrics_text_us", static_cast<double>(metrics_text_ns) * 1e-3,
               "us"});
  m.push_back({"obs.status_json_us", static_cast<double>(status_json_ns) * 1e-3,
               "us"});
  m.push_back({"obs.chrome_trace_ms", static_cast<double>(chrome_trace_ns) * 1e-6,
               "ms"});
  m.push_back({"obs.tracing_overhead_frac",
               Median(untraced_eps) / Median(traced_eps) - 1.0, "ratio"});
  m.push_back({"ckpt.checkpoint_ms_p50", Median(ckpt.ns) * 1e-6, "ms"});
  m.push_back({"ckpt.checkpoint_ms_max",
               ckpt.ns.empty() ? 0.0
                               : static_cast<double>(*std::max_element(
                                     ckpt.ns.begin(), ckpt.ns.end())) *
                                     1e-6,
               "ms"});
  m.push_back({"ckpt.bytes_written", static_cast<double>(ckpt.bytes_written), "B"});
  for (const char* layer : {"bench", "engine", "cql", "plan", "par", "obs", "ckpt"}) {
    m.push_back({std::string("self.") + layer + "_ms", self_ms(layer), "ms"});
  }

  std::printf("# workload %s (traced): %zu inputs, %zu spans\n", w.name.c_str(),
              w.InputCount(), g_spans.spans().size());
  std::printf("# operators (scalar):");
  for (const obs::OperatorMetrics& op : d.metrics().operators()) {
    std::printf(" %s[%s]", op.name.c_str(), RoleOf(op.name).c_str());
  }
  std::printf("\n# scalar throughput untraced %.0f el/s, traced %.0f el/s "
              "(tracing overhead %.3f)\n",
              Median(untraced_eps), Median(traced_eps),
              Median(untraced_eps) / Median(traced_eps) - 1.0);
  PrintPacedSummary(ctx, paced);
  PrintTable("per-layer metrics", m);
  std::error_code ec;
  std::filesystem::create_directories(ctx.state_dir, ec);
  const std::string spans_path = ctx.state_dir + "/spans-" + w.name + "-" +
                                 std::to_string(ctx.seed) + ".csv";
  if (!g_spans.WriteCsv(spans_path)) {
    std::fprintf(stderr, "cannot write %s\n", spans_path.c_str());
    return 1;
  }
  std::printf("# spans written to %s\n", spans_path.c_str());
  std::printf("# correctness: %s (%zu normal-form comparisons)\n",
              ctx.correct ? "ok" : "FAILED", ctx.checker.checks);
  std::printf("%s\n",
              FormatJson(ctx.correct, ctx.attempted, ctx.failed, m).c_str());
  return ctx.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  bool corrupt = false;
  std::string dump_path;
  std::string state_dir = ".bench_build/state";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(next().c_str());
    } else if (arg == "--scale") {
      tiny = next() == "tiny";
    } else if (arg == "--corrupt-drop-one") {
      corrupt = true;
    } else if (arg == "--state-dir") {
      state_dir = next();
    } else if (arg == "--dump-inputs") {
      dump_path = next();
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  // Keep freed memory in the heap. Every run builds and drops a whole Dsms;
  // with glibc's defaults its memory goes back to the kernel and the next
  // run faults it in again. On a VM those faults are slow and vary with the
  // host's load: migrate ran 30-50% slower with them, by a different amount
  // in each run. A long-running engine reuses its pages instead.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, -1);
  mallopt(M_TOP_PAD, 64 << 20);
  RunContext ctx;
  if (!MakeWorkload(workload, seed, tiny, &ctx.w)) {
    std::fprintf(stderr, "unknown workload '%s' (filter, join, migrate)\n",
                 workload.c_str());
    return 2;
  }

  if (!dump_path.empty()) {
    FILE* f = std::fopen(dump_path.c_str(), "w");
    if (f == nullptr) return 2;
    const std::string text = DumpInputs(ctx.w);
    std::fwrite(text.data(), 1, text.size(), f);
    return std::fclose(f) == 0 ? 0 : 2;
  }
  ctx.seconds = seconds;
  ctx.tiny = tiny;
  ctx.corrupt_drop_one = corrupt;
  ctx.checker.corrupt_drop_one = corrupt;
  ctx.state_dir = state_dir;
  ctx.seed = seed;
  return trace != 0 ? RunTraced(ctx) : RunEndToEnd(ctx);
}
