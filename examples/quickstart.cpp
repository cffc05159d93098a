// Quickstart: register streams, pose a CQL sliding-window query, run it, and
// migrate the running plan to a re-optimized one with GenMig — without
// stopping the query or losing a single result.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Pass --stats to print per-operator runtime metrics and the migration's
// phase-transition trace after the run (and --stats-json for the raw JSON
// export instead of the table). Pass --trace-out PATH to write a
// Chrome-trace / Perfetto JSON of the run (migration phase spans + latency
// and queue-depth counter tracks; open at ui.perfetto.dev).
//
// Pass --shards N (N > 1) to run the same query hash-partitioned across N
// plan replicas on their own threads (src/par), with the same GenMig rewrite
// broadcast to every shard at one coordinated T_split.
//
// Pass --replay trace.csv to replay a recorded CSV trace (lines
// "<timestamp>,<item>", in *arrival* order — late lines allowed) through a
// DisorderBuffer at --speedup N times real time (default 10; <= 0 replays
// unpaced). --delta D overrides the lateness allowance (default: the trace's
// own observed maximum, so nothing is dropped).
//
// Pass --checkpoint-dir DIR for the crash-recovery demo: the engine takes
// periodic incremental checkpoints (every --checkpoint-period app-time units,
// default 1000) plus one explicit checkpoint at t=12s, then exits mid-stream
// as a stand-in for a crash. Rerun with the same --checkpoint-dir plus
// --restore to resume from the last durable cut and finish the stream; the
// demo verifies the stitched result is snapshot-equivalent to an
// uninterrupted from-scratch run.
//
// Pass --telemetry-port P (0 = ephemeral) for the live-monitoring demo: a
// skewed-rate workload whose stream rates trade places mid-run, so the
// cost-feedback trigger fires a GenMig on its own, served with the embedded
// HTTP telemetry plane — curl /metrics (Prometheus), /status (JSON), and
// /healthz while it runs. --serve-seconds S keeps the server up after the
// run so scrapers can attach; --journal-out PATH spills the decision
// journal (trigger evaluations, migration phases, T_split) as JSONL.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <random>
#include <thread>

#include "cql/parser.h"
#include "engine/dsms.h"
#include "engine/replay.h"
#include "stream/csv.h"
#include "stream/disorder.h"
#include "par/coordinator.h"
#include "migration/controller.h"
#include "obs/export.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "ref/checker.h"
#include "opt/rules.h"
#include "plan/compile.h"
#include "plan/executor.h"
#include "stream/generator.h"

using namespace genmig;  // NOLINT: example brevity.

namespace {

void PrintStats(const obs::MetricsRegistry& registry,
                const obs::MigrationTracer& tracer) {
  std::printf("\nper-operator metrics:\n");
  std::printf("%-22s %10s %10s %10s %10s %12s %8s %8s\n", "operator", "in",
              "out", "st_peak", "q_peak", "p50_push_ns", "wm_lag", "bp_ms");
  for (const obs::OperatorMetrics& m : registry.operators()) {
    std::printf("%-22s %10llu %10llu %10llu %10llu %12llu %8llu %8.1f\n",
                m.name.c_str(),
                static_cast<unsigned long long>(m.elements_in),
                static_cast<unsigned long long>(m.elements_out),
                static_cast<unsigned long long>(m.peak_state_units),
                static_cast<unsigned long long>(m.peak_queue_depth),
                static_cast<unsigned long long>(
                    m.push_ns.ApproxQuantileNs(0.5)),
                static_cast<unsigned long long>(m.peak_watermark_lag),
                static_cast<double>(m.backpressure_ns) / 1e6);
  }
  // End-to-end latency (sampled ingress stamp -> sink), per sink.
  for (const obs::OperatorMetrics& m : registry.operators()) {
    if (m.e2e_ns.count() == 0) continue;
    std::printf("\ne2e latency at %s: n=%llu p50=%.1f us p99=%.1f us "
                "max=%.1f us\n",
                m.name.c_str(),
                static_cast<unsigned long long>(m.e2e_ns.count()),
                m.e2e_ns.ApproxQuantile(0.5) / 1000.0,
                m.e2e_ns.ApproxQuantile(0.99) / 1000.0,
                static_cast<double>(m.e2e_ns.max_ns()) / 1000.0);
  }
  std::printf("\nmigration trace:\n");
  for (const obs::TraceRecord& rec : tracer.records()) {
    std::printf("  migration %d  %-22s app_t=%lld  wall=%.3f ms%s%s\n",
                rec.migration_id, obs::MigrationEventName(rec.event),
                static_cast<long long>(rec.app_time.t),
                static_cast<double>(rec.wall_ns) / 1e6,
                rec.detail.empty() ? "" : "  ", rec.detail.c_str());
  }
}

/// One line per auto-migration, sourced from the decision journal: the
/// firing trigger evaluation plus the completed phase trail.
void PrintJournalSummary(const obs::EventJournal& journal) {
  const auto evals =
      journal.SnapshotKind(obs::JournalEvent::Kind::kTriggerEval);
  size_t fired = 0;
  for (const obs::JournalEvent& ev : evals) {
    if (ev.Num("fired") == 1.0) ++fired;
  }
  size_t completed = 0;
  Timestamp last_split = Timestamp::MinInstant();
  for (const obs::JournalEvent& ev :
       journal.SnapshotKind(obs::JournalEvent::Kind::kMigrationPhase)) {
    if (ev.Str("phase") == std::string("completed")) ++completed;
    if (ev.HasNum("t_split")) {
      last_split = Timestamp(static_cast<int64_t>(ev.Num("t_split")), 0);
    }
  }
  std::printf("journal: %zu events (%zu trigger evals, %zu fired), "
              "%zu migration(s) completed, last T_split=%s\n",
              static_cast<size_t>(journal.total_appended()), evals.size(),
              fired, completed,
              last_split == Timestamp::MinInstant()
                  ? "-"
                  : last_split.ToString().c_str());
}

/// The skewed-rate stream of the monitoring demo: arrival period flips from
/// `before` to `after` at `flip`, so relative stream rates trade places and
/// the installed join order stops being optimal (the Figure 4 shape).
MaterializedStream PiecewiseRate(int64_t t_end, int64_t before, int64_t after,
                                 int64_t flip, int64_t keys, uint64_t seed) {
  MaterializedStream out;
  std::mt19937_64 rng(seed);
  for (int64_t t = 0; t < t_end;) {
    const int64_t key = static_cast<int64_t>(
        rng() % static_cast<uint64_t>(keys));
    out.push_back(StreamElement(
        Tuple::OfInts({key}), TimeInterval(Timestamp(t), Timestamp(t + 1))));
    t += t < flip ? before : after;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool stats = false;
  bool stats_json = false;
  const char* trace_out = nullptr;
  int shards = 1;
  const char* replay_path = nullptr;
  double speedup = 10.0;
  int64_t delta = -1;  // < 0: use the trace's observed max lateness.
  int telemetry_port = -1;  // < 0: telemetry off.
  const char* journal_out = nullptr;
  double serve_seconds = 0.0;
  const char* ckpt_dir = nullptr;
  int64_t ckpt_period = 1000;
  bool restore = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats") == 0) {
      stats = true;
    } else if (std::strcmp(argv[i], "--stats-json") == 0) {
      stats_json = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::atoi(argv[++i]);
      if (shards < 1) {
        std::fprintf(stderr, "--shards wants a positive count, got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      replay_path = argv[++i];
    } else if (std::strcmp(argv[i], "--speedup") == 0 && i + 1 < argc) {
      speedup = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--delta") == 0 && i + 1 < argc) {
      delta = std::atoll(argv[++i]);
      if (delta < 0) {
        std::fprintf(stderr, "--delta wants a non-negative allowance, got "
                     "'%s'\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--telemetry-port") == 0 &&
               i + 1 < argc) {
      telemetry_port = std::atoi(argv[++i]);
      if (telemetry_port < 0 || telemetry_port > 65535) {
        std::fprintf(stderr, "--telemetry-port wants 0..65535, got '%s'\n",
                     argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--journal-out") == 0 && i + 1 < argc) {
      journal_out = argv[++i];
    } else if (std::strcmp(argv[i], "--serve-seconds") == 0 && i + 1 < argc) {
      serve_seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--checkpoint-dir") == 0 && i + 1 < argc) {
      ckpt_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--checkpoint-period") == 0 &&
               i + 1 < argc) {
      ckpt_period = std::atoll(argv[++i]);
      if (ckpt_period <= 0) {
        std::fprintf(stderr, "--checkpoint-period wants a positive app-time "
                     "span, got '%s'\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--restore") == 0) {
      restore = true;
    } else {
      std::fprintf(stderr,
                   "unknown option '%s'\nusage: %s [--stats | --stats-json] "
                   "[--trace-out PATH] [--shards N] "
                   "[--replay trace.csv [--speedup N] [--delta D]] "
                   "[--telemetry-port P [--serve-seconds S]] "
                   "[--journal-out PATH] "
                   "[--checkpoint-dir DIR [--checkpoint-period P] "
                   "[--restore]]\n",
                   argv[i], argv[0]);
      return 2;
    }
  }
  if (restore && ckpt_dir == nullptr) {
    std::fprintf(stderr, "--restore needs --checkpoint-dir DIR\n");
    return 2;
  }

  // Live-monitoring mode (--telemetry-port P): an auto-triggered migration
  // under observation. Streams A and B start slow with C fast, so the
  // installed left-deep join order is optimal; at t=15s the rates trade
  // places (10x) and the cost-feedback loop migrates the plan on its own —
  // scrape /metrics and /status while it happens.
  if (telemetry_port >= 0) {
    Dsms::Options options;
    options.telemetry_port = telemetry_port;
    if (journal_out != nullptr) options.journal_spill_path = journal_out;
    options.stats_horizon = 2000;
    options.calibration_period = 1000;
    options.migration_cooldown = 5000;
    Dsms dsms(options);
    constexpr int64_t kFlip = 15000;
    constexpr int64_t kEnd = 30000;
    dsms.RegisterStream("A", Schema::OfInts({"x"}),
                        PiecewiseRate(kEnd, 40, 4, kFlip, 200, 31));
    dsms.RegisterStream("B", Schema::OfInts({"x"}),
                        PiecewiseRate(kEnd, 40, 4, kFlip, 200, 32));
    dsms.RegisterStream("C", Schema::OfInts({"x"}),
                        PiecewiseRate(kEnd, 4, 40, kFlip, 200, 33));
    Result<Dsms::QueryId> id = dsms.InstallQuery(
        "SELECT A.x, B.x, C.x FROM A [RANGE 2000], B [RANGE 2000], "
        "C [RANGE 2000] WHERE A.x = B.x AND B.x = C.x");
    if (!id.ok()) {
      std::fprintf(stderr, "install failed: %s\n",
                   id.status().ToString().c_str());
      return 1;
    }
    if (dsms.telemetry_port() < 0) {
      std::fprintf(stderr, "telemetry: bind to port %d failed\n",
                   telemetry_port);
      return 1;
    }
    std::printf("telemetry: listening on port %d\n", dsms.telemetry_port());
    std::printf("  curl -s http://127.0.0.1:%d/metrics\n"
                "  curl -s http://127.0.0.1:%d/status\n",
                dsms.telemetry_port(), dsms.telemetry_port());
    dsms.RunToCompletion();

    const Dsms::AutoReoptStatus& status = dsms.AutoStatus(id.value());
    std::printf("finished: %zu calibrations, %d auto trigger(s) fired, "
                "%d migration(s) completed, %zu results\n",
                status.calibrations, status.fires,
                dsms.Info(id.value()).migrations_completed,
                dsms.Results(id.value()).size());
    PrintJournalSummary(dsms.journal());
    if (journal_out != nullptr) {
      dsms.journal().Flush();
      std::printf("journal spilled to %s\n", journal_out);
    }
    if (stats) PrintStats(dsms.metrics(), dsms.tracer());
    if (serve_seconds > 0) {
      std::printf("serving telemetry for %.1f more second(s)...\n",
                  serve_seconds);
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::milliseconds(
          static_cast<int64_t>(serve_seconds * 1000)));
    }
    std::printf("telemetry: served %llu request(s)\n",
                static_cast<unsigned long long>(dsms.telemetry_requests()));
    return 0;
  }

  // Replay mode (--replay trace.csv): feed a recorded, possibly-disordered
  // trace through a DisorderBuffer into a windowed query, paced so that
  // `speedup` units of application time pass per unit of wall time.
  if (replay_path != nullptr) {
    const Schema schema = Schema::OfInts({"item"});
    Result<CsvTrace> trace = ReadCsvTraceFile(replay_path, schema);
    if (!trace.ok()) {
      std::fprintf(stderr, "cannot read trace: %s\n",
                   trace.status().ToString().c_str());
      return 1;
    }
    DisorderBuffer::Options dopt;
    dopt.delta = delta >= 0 ? delta : trace.value().max_lateness;
    std::printf("trace: %zu arrivals, max lateness %lld, delta %lld%s\n",
                trace.value().arrivals.size(),
                static_cast<long long>(trace.value().max_lateness),
                static_cast<long long>(dopt.delta),
                delta >= 0 ? "" : " (auto: no drops)");

    Dsms dsms;
    dsms.RegisterRawDisorderedStream("Trace", schema, trace.value().arrivals,
                                     dopt);
    Result<Dsms::QueryId> id =
        dsms.InstallQuery("SELECT DISTINCT Trace.item FROM Trace "
                          "[RANGE 10000]");
    if (!id.ok()) {
      std::fprintf(stderr, "install failed: %s\n",
                   id.status().ToString().c_str());
      return 1;
    }
    ReplayOptions ropt;
    ropt.speedup = speedup;
    const ReplayStats rs = ReplayToCompletion(dsms, ropt);
    const Dsms::DisorderInfo di = dsms.DisorderStats("Trace");
    std::printf("replayed %zu steps covering %lld app-time units in %.2f s "
                "(achieved speedup %.1fx)\n",
                rs.steps, static_cast<long long>(rs.app_span),
                rs.wall_seconds, rs.achieved_speedup);
    std::printf("disorder: admitted=%llu dropped_late=%llu released=%llu "
                "watermark=%s\n",
                static_cast<unsigned long long>(di.stats.admitted),
                static_cast<unsigned long long>(di.stats.dropped_late),
                static_cast<unsigned long long>(di.stats.released),
                di.watermark.ToString().c_str());
    std::printf("results: %zu\n", dsms.Results(id.value()).size());
    return 0;
  }
  // With --stats-json, stdout carries only the JSON document (pipeable);
  // the demo narrative moves to stderr.
  FILE* out = stats_json ? stderr : stdout;
  // 1. Register the input streams' schemas.
  cql::Catalog catalog;
  catalog.Register("Orders", Schema::OfInts({"item"}));
  catalog.Register("Shipments", Schema::OfInts({"item"}));

  // 2. Pose a continuous query: which items currently have both an open
  // order and an open shipment (10-second sliding windows)?
  auto parsed = cql::ParseQuery(
      "SELECT DISTINCT Orders.item "
      "FROM Orders [RANGE 10000], Shipments [RANGE 10000] "
      "WHERE Orders.item = Shipments.item",
      catalog);
  if (!parsed.ok()) {
    std::fprintf(out, "parse error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const LogicalPtr plan = parsed.value();
  std::fprintf(out, "logical plan:\n%s\n", plan->ToString().c_str());

  // Crash-recovery mode (--checkpoint-dir DIR): run the same query with
  // durable state (src/ckpt). The first invocation checkpoints periodically,
  // takes one explicit cut at t=12s, and exits mid-stream — the "crash". A
  // second invocation with --restore loads the newest intact checkpoint,
  // resumes from that cut, and finishes the stream; the stitched output is
  // checked snapshot-equivalent against a from-scratch oracle run.
  if (ckpt_dir != nullptr) {
    const auto feed = [](Dsms* dsms) {
      dsms->RegisterRawStream("Orders", Schema::OfInts({"item"}),
                              GenerateKeyedStream(3000, 10, 50, 1));
      dsms->RegisterRawStream("Shipments", Schema::OfInts({"item"}),
                              GenerateKeyedStream(3000, 10, 50, 2));
    };
    Dsms::Options options;
    options.checkpoint_dir = ckpt_dir;
    options.checkpoint_period = ckpt_period;
    Dsms dsms(options);
    feed(&dsms);
    Result<Dsms::QueryId> id = dsms.InstallPlan(plan);
    if (!id.ok()) {
      std::fprintf(out, "install failed: %s\n",
                   id.status().ToString().c_str());
      return 1;
    }
    if (restore) {
      const Status s = dsms.Restore();
      if (!s.ok()) {
        std::fprintf(stderr, "restore failed: %s\n", s.ToString().c_str());
        return 1;
      }
      const ckpt::Store::StatsSnapshot cs = dsms.CheckpointStats();
      std::fprintf(out, "restored checkpoint seq %llu from %s\n",
                   static_cast<unsigned long long>(cs.seq), ckpt_dir);
      dsms.RunToCompletion();
      std::fprintf(out, "resumed to completion: %zu total results\n",
                   dsms.Results(id.value()).size());
      // Snapshot equivalence, demonstrated: a fresh uninterrupted run over
      // the same inputs must produce the identical result stream.
      Dsms oracle;
      feed(&oracle);
      Result<Dsms::QueryId> oid = oracle.InstallPlan(plan);
      if (!oid.ok()) {
        std::fprintf(out, "oracle install failed: %s\n",
                     oid.status().ToString().c_str());
        return 1;
      }
      oracle.RunToCompletion();
      // Equality is up to the snapshot normal form: at a given instant the
      // restored run may re-emit coincident results in a different order
      // than the uninterrupted one, but every snapshot must agree.
      const bool equivalent =
          ref::SnapshotNormalForm(dsms.Results(id.value())) ==
          ref::SnapshotNormalForm(oracle.Results(oid.value()));
      std::fprintf(out, "crash+restore output vs from-scratch oracle: %s\n",
                   equivalent ? "snapshot-equivalent" : "MISMATCH");
      return equivalent ? 0 : 1;
    }
    dsms.RunUntil(Timestamp(12000));
    const Status s = dsms.Checkpoint();
    if (!s.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
      return 1;
    }
    const ckpt::Store::StatsSnapshot cs = dsms.CheckpointStats();
    std::fprintf(out,
                 "checkpoint seq %llu committed to %s (%llu live bytes, "
                 "%llu written this commit, %zu results so far)\n",
                 static_cast<unsigned long long>(cs.seq), ckpt_dir,
                 static_cast<unsigned long long>(cs.bytes),
                 static_cast<unsigned long long>(cs.written_bytes),
                 dsms.Results(id.value()).size());
    std::fprintf(out, "exiting mid-stream ('crash') — rerun with "
                 "--checkpoint-dir %s --restore to resume\n", ckpt_dir);
    return 0;
  }

  // Parallel mode (--shards N): hash-partition both streams by the join key
  // across N independent plan replicas, each on its own thread, and
  // recombine through the deterministic temporal merge. The same GenMig
  // rewrite is broadcast to every shard at one coordinated T_split.
  if (shards > 1) {
    obs::MetricsRegistry registry;
    obs::EventJournal journal;
    obs::MigrationTracer tracer(&journal);
    par::Coordinator::Options options;
    options.shards = shards;
    options.registry = &registry;
    options.tracer = &tracer;
    CollectorSink sink("sink");
    sink.AttachMetrics(&registry);  // The merged stream's e2e latency.
    par::Coordinator coordinator(plan, &sink, options);
    if (!coordinator.spec().ok) {
      std::fprintf(out, "plan is not shard-partitionable: %s\n",
                   coordinator.spec().reason.c_str());
      return 1;
    }
    std::fprintf(out, "%s across %d shards\n",
                 coordinator.spec().ToString().c_str(), shards);

    if (auto pushed = rules::PushDownDedup(plan)) {
      std::fprintf(out, "optimizer rewrite (dedup pushdown), scheduled for "
                   "t=12s:\n%s\n", (*pushed)->ToString().c_str());
      const Status scheduled =
          coordinator.ScheduleGenMig(*pushed, Timestamp(12000));
      if (!scheduled.ok()) {
        std::fprintf(out, "cannot schedule migration: %s\n",
                     scheduled.ToString().c_str());
        return 1;
      }
    }

    par::InputMap inputs;
    inputs["Orders"] = ToPhysicalStream(GenerateKeyedStream(3000, 10, 50, 1));
    inputs["Shipments"] =
        ToPhysicalStream(GenerateKeyedStream(3000, 10, 50, 2));
    const Status ran = coordinator.Run(inputs);
    if (!ran.ok()) {
      std::fprintf(out, "run failed: %s\n", ran.ToString().c_str());
      return 1;
    }
    const MaterializedStream& merged = sink.collected();
    std::fprintf(out, "finished: %d migration(s) completed on every shard, "
                 "coordinated T_split=%s, %zu total results\n",
                 coordinator.migrations_completed(),
                 coordinator.t_split().ToString().c_str(),
                 merged.size());
    std::fprintf(out, "first results: ");
    for (size_t i = 0; i < 3 && i < merged.size(); ++i) {
      std::fprintf(out, "%s ", merged[i].ToString().c_str());
    }
    std::fprintf(out, "\n");

    if (stats_json) {
      std::printf("%s\n", obs::ToJson(registry, &journal).c_str());
    } else if (stats) {
      PrintStats(registry, tracer);
    }
    if (trace_out != nullptr) {
      const std::string trace = obs::ToChromeTrace(registry, &journal);
      if (!obs::WriteFile(trace_out, trace)) {
        std::fprintf(stderr, "failed to write %s\n", trace_out);
        return 1;
      }
      std::fprintf(out, "chrome trace written to %s (load at "
                   "ui.perfetto.dev)\n", trace_out);
    }
    return 0;
  }

  // 3. Compile. The window operators stay outside the migration boundary
  // (source -> window -> controller -> plan box).
  const LogicalPtr box_plan = logical::StripWindows(plan);
  MigrationController controller("ctrl", CompilePlan(*box_plan));
  CollectorSink sink("sink");
  controller.ConnectTo(0, &sink, 0);

  // Observability: one registry + journal for the whole pipeline; the
  // tracer writes migration phases into the journal. The controller
  // re-attaches migration machinery and new boxes on its own.
  obs::MetricsRegistry registry;
  obs::EventJournal journal;
  obs::MigrationTracer tracer(&journal);
  controller.AttachMetricsRecursive(&registry);
  controller.SetTracer(&tracer);
  sink.AttachMetrics(&registry);

  Executor exec;
  StatelessChain w_orders("w_orders", StatelessChain::Window(10000));
  StatelessChain w_shipments("w_shipments", StatelessChain::Window(10000));
  const int orders_feed =
      exec.AddRawFeed("Orders", GenerateKeyedStream(3000, 10, 50, 1));
  const int shipments_feed =
      exec.AddRawFeed("Shipments", GenerateKeyedStream(3000, 10, 50, 2));
  exec.ConnectFeed(orders_feed, &w_orders, 0);
  exec.ConnectFeed(shipments_feed, &w_shipments, 0);
  // Attached sources stamp a sampled ingress wall-clock, feeding the sink's
  // end-to-end latency histogram shown by --stats.
  exec.source(orders_feed)->AttachMetrics(&registry);
  exec.source(shipments_feed)->AttachMetrics(&registry);
  w_orders.ConnectTo(0, &controller, 0);
  w_shipments.ConnectTo(0, &controller, 1);
  w_orders.AttachMetrics(&registry);
  w_shipments.AttachMetrics(&registry);

  // Timeline: one metric sample per second of application time, feeding the
  // counter tracks of the --trace-out export.
  obs::TimelineSampler sampler(&registry, &journal);
  bool sampled_once = false;
  Timestamp last_sample = Timestamp::MinInstant();
  exec.after_step = [&]() {
    const Timestamp now = exec.current_time();
    if (!sampled_once || now.t - last_sample.t >= 1000) {
      sampled_once = true;
      last_sample = now;
      sampler.Sample(now, controller.migration_in_progress());
    }
  };

  // 4. Run for 12 seconds of application time.
  exec.RunUntil(Timestamp(12000));
  std::fprintf(out, "after 12s: %zu results, state bytes %zu\n", sink.count(),
               controller.StateBytes());

  // 5. Live re-optimization: replace the hash join with a dedup-pushdown
  // variant (snapshot-equivalent) using GenMig. The query keeps producing
  // results throughout.
  // Apply the Figure 2 rewrite: push the duplicate elimination below the
  // join (dramatically smaller join state for duplicate-heavy streams).
  LogicalPtr new_plan = logical::StripWindows(plan);
  if (auto pushed = rules::PushDownDedup(plan)) {
    std::fprintf(out, "optimizer rewrite (dedup pushdown):\n%s\n",
                 (*pushed)->ToString().c_str());
    new_plan = logical::StripWindows(*pushed);
  }
  Box new_box = CompilePlan(*new_plan);
  new_box.ReorderInputs(logical::CollectSourceNames(*box_plan));
  MigrationController::GenMigOptions opts;
  opts.window = 10000;
  controller.StartGenMig(std::move(new_box), opts);
  std::fprintf(out, "migration started at t=12s, T_split=%s\n",
              controller.t_split().ToString().c_str());

  exec.RunToCompletion();
  std::fprintf(out, "finished: %d migration(s) completed, %zu total results\n",
               controller.migrations_completed(), sink.count());
  std::fprintf(out, "first results: ");
  for (size_t i = 0; i < 3 && i < sink.collected().size(); ++i) {
    std::fprintf(out, "%s ", sink.collected()[i].ToString().c_str());
  }
  std::fprintf(out, "\n");

  sampler.Sample(exec.current_time(), controller.migration_in_progress());

  if (stats_json) {
    std::printf("%s\n", obs::ToJson(registry, &journal).c_str());
  } else if (stats) {
    PrintStats(registry, tracer);
  }
  if (trace_out != nullptr) {
    const std::string trace = obs::ToChromeTrace(registry, &journal);
    if (!obs::WriteFile(trace_out, trace)) {
      std::fprintf(stderr, "failed to write %s\n", trace_out);
      return 1;
    }
    std::fprintf(out, "chrome trace written to %s (load at ui.perfetto.dev)\n",
                 trace_out);
  }
  return 0;
}
