// Observability subsystem tests.
//
// 1. MetricsRegistry: registration semantics, hot-path recording across
//    threads, histogram bucketing, JSON export shape.
// 2. TraceRecorder: event kinds, ring-buffer overwrite accounting, thread
//    naming, Chrome trace-event export, TraceSpan null fast path.
// 3. RunLogger: JSONL record shape, key order and counts, and the
//    measured mobility (movers, measured_p) a simulation's step records
//    carry.
// 4. History CSV round-trip, including algorithm names containing commas
//    and quotes (util::csv_split_row undoing util::csv_escape).
// 5. The step records (dropouts, blends, cloud syncs, link deltas) under
//    lossy + latency link policies — their sums must reconcile exactly
//    with the simulation's own counters, its comm_stats() ledger and the
//    transport's wire reports.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.hpp"
#include "mobility/mobility_model.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/run_logger.hpp"
#include "obs/trace_recorder.hpp"
#include "sim_fixture.hpp"
#include "util/csv.hpp"

namespace {

using middlefl::core::Algorithm;
using middlefl::core::RunHistory;
using middlefl::obs::MetricsRegistry;
using middlefl::obs::RunLogger;
using middlefl::obs::StepRecord;
using middlefl::obs::TraceRecorder;
using middlefl::obs::TraceSpan;
using middlefl::testing::link_delta;
using middlefl::testing::run_step_records;
using middlefl::testing::SimBundle;
using middlefl::testing::sum_link;
using middlefl::transport::LinkKind;
using middlefl::transport::LinkStats;

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistry, RegistrationIsIdempotentPerFamily) {
  MetricsRegistry registry;
  const auto a = registry.counter("events");
  EXPECT_EQ(registry.counter("events"), a);
  const auto g = registry.gauge("depth");
  EXPECT_EQ(registry.gauge("depth"), g);
  // Same name in a different family is a configuration bug.
  EXPECT_THROW(registry.gauge("events"), std::invalid_argument);
  EXPECT_THROW(registry.counter("depth"), std::invalid_argument);
  // Histograms must re-register with identical bounds.
  const auto h = registry.histogram("lat", {1.0, 2.0});
  EXPECT_EQ(registry.histogram("lat", {1.0, 2.0}), h);
  EXPECT_THROW(registry.histogram("lat", {1.0, 3.0}), std::invalid_argument);
}

TEST(MetricsRegistry, CountersAndGaugesAggregate) {
  MetricsRegistry registry;
  const auto hits = registry.counter("hits");
  const auto depth = registry.gauge("depth");
  registry.add(hits);
  registry.add(hits, 4.0);
  registry.set(depth, 7.0);
  registry.set(depth, 3.0);  // last writer wins

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "hits");
  EXPECT_DOUBLE_EQ(snap.counters[0].second, 5.0);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 3.0);
}

TEST(MetricsRegistry, CountersSumAcrossThreads) {
  MetricsRegistry registry;
  const auto hits = registry.counter("hits");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&registry, hits] {
      for (int j = 0; j < kPerThread; ++j) registry.add(hits);
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.counters[0].second, kThreads * kPerThread);
  EXPECT_GE(registry.num_threads_seen(), static_cast<std::size_t>(kThreads));
}

TEST(MetricsRegistry, HistogramBucketsValues) {
  MetricsRegistry registry;
  // Buckets: (-inf,1], (1,5], (5,+inf)
  const auto lat = registry.histogram("lat", {1.0, 5.0});
  registry.observe(lat, 0.5);
  registry.observe(lat, 1.0);  // boundary lands in its own bucket
  registry.observe(lat, 3.0);
  registry.observe(lat, 100.0);  // overflow bucket

  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  const auto& h = snap.histograms[0];
  ASSERT_EQ(h.counts.size(), 3u);
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 1u);
  EXPECT_EQ(h.count, 4u);
  EXPECT_DOUBLE_EQ(h.sum, 104.5);
}

TEST(MetricsRegistry, QuantileInterpolatesWithinBucket) {
  MetricsRegistry registry;
  // Buckets: (0,10], (10,20], (20,+inf); 10 observations in the first
  // bucket, 10 in the second -> exact uniform ranks.
  const auto lat = registry.histogram("lat", {10.0, 20.0});
  for (int i = 0; i < 10; ++i) registry.observe(lat, 5.0);
  for (int i = 0; i < 10; ++i) registry.observe(lat, 15.0);

  const auto h = registry.snapshot().histograms[0];
  // rank 10 of 20 = top of the first bucket; rank 5 = its midpoint.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 5.0);
  // rank 15 = midpoint of the second bucket (10, 20].
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 15.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  // q clamps to [0, 1] and q=0 sits on the first populated bucket's floor.
  EXPECT_DOUBLE_EQ(h.quantile(-3.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(7.0), h.quantile(1.0));
}

TEST(MetricsRegistry, QuantileHandlesOverflowAndEmpty) {
  MetricsRegistry registry;
  const auto lat = registry.histogram("lat", {1.0, 5.0});
  const auto empty = registry.snapshot().histograms[0];
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  // Everything lands past the last bound: the estimate saturates at the
  // largest value the buckets can still resolve.
  registry.observe(lat, 100.0);
  registry.observe(lat, 200.0);
  const auto h = registry.snapshot().histograms[0];
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 5.0);
}

TEST(MetricsRegistry, QuantileMatchesExactPercentileOnDenseBuckets) {
  MetricsRegistry registry;
  // One-unit-wide buckets over [0, 100]: bucket interpolation reproduces
  // exact percentiles of uniformly spread integer samples to within one
  // bucket width — the cross-check bench/serving_load runs against its
  // client-side sorted-sample percentiles.
  std::vector<double> bounds;
  for (int b = 1; b <= 100; ++b) bounds.push_back(b);
  const auto lat = registry.histogram("lat", bounds);
  for (int v = 1; v <= 100; ++v) registry.observe(lat, v - 0.5);

  const auto h = registry.snapshot().histograms[0];
  EXPECT_NEAR(h.quantile(0.50), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.0);
}

TEST(MetricsRegistry, JsonExportHasStableShape) {
  MetricsRegistry registry;
  registry.add(registry.counter("a.count"), 2.0);
  registry.set(registry.gauge("b.depth"), 1.5);
  registry.observe(registry.histogram("c.lat", {1.0}), 0.5);
  std::ostringstream out;
  registry.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"b.depth\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"bounds\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// TraceRecorder

TEST(TraceRecorder, RecordsAllEventKinds) {
  TraceRecorder trace;
  trace.name_this_thread("main");
  const auto begin = TraceRecorder::Clock::now();
  trace.complete("span", "test", begin, TraceRecorder::Clock::now(), 7, "n");
  trace.instant("marker", "test", 3, "count");
  trace.counter("queue", "test", 2.0);
  EXPECT_EQ(trace.event_count(), 3u);
  EXPECT_EQ(trace.dropped_events(), 0u);
  EXPECT_EQ(trace.num_threads_seen(), 1u);

  std::ostringstream out;
  trace.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"main\""), std::string::npos);
  EXPECT_NE(json.find("\"n\": 7"), std::string::npos);
}

TEST(TraceRecorder, RingBufferKeepsTailAndCountsDrops) {
  TraceRecorder trace(/*events_per_thread=*/4);
  for (int i = 0; i < 10; ++i) {
    // append(), not "e" + ...: gcc 12 raises a false -Wrestrict on the
    // inlined operator+ here.
    trace.instant(std::string("e").append(std::to_string(i)), "t");
  }
  EXPECT_EQ(trace.event_count(), 4u);
  EXPECT_EQ(trace.dropped_events(), 6u);
  std::ostringstream out;
  trace.write_chrome_trace(out);
  // The tail of the run survives, the head is gone.
  EXPECT_NE(out.str().find("\"e9\""), std::string::npos);
  EXPECT_EQ(out.str().find("\"e0\""), std::string::npos);
}

TEST(TraceRecorder, SpanIsNoOpOnNullRecorder) {
  // Must not crash, allocate buffers, or read clocks.
  TraceSpan span(nullptr, "never", "test");
  TraceRecorder trace;
  { TraceSpan live(&trace, "scoped", "test", 1, "k"); }
  EXPECT_EQ(trace.event_count(), 1u);
}

TEST(TraceRecorder, MergesPerThreadTimelines) {
  TraceRecorder trace;
  std::thread a([&trace] {
    trace.name_this_thread("a");
    trace.instant("from-a", "t");
  });
  std::thread b([&trace] {
    trace.name_this_thread("b");
    trace.instant("from-b", "t");
  });
  a.join();
  b.join();
  EXPECT_EQ(trace.event_count(), 2u);
  EXPECT_EQ(trace.num_threads_seen(), 2u);
  std::ostringstream out;
  trace.write_chrome_trace(out);
  EXPECT_NE(out.str().find("from-a"), std::string::npos);
  EXPECT_NE(out.str().find("from-b"), std::string::npos);
}

// ---------------------------------------------------------------------------
// RunLogger

TEST(RunLogger, WritesOneJsonObjectPerRecord) {
  std::ostringstream out;
  RunLogger logger(out);

  StepRecord step;
  step.step = 3;
  step.synced = true;
  step.movers = 3;
  step.measured_p = 0.25;
  step.selected = 6;
  step.lost_downloads = 1;
  step.blends = 2;
  step.blend_weight_sum = 0.75;
  step.contributing_edges = 3;
  step.step_wall_us = 120.5;
  step.phase_us.select = 10.0;
  step.phase_us.local_train = 90.0;
  step.links[1] = {"wireless_up", 6, 1, 4096, 2};
  logger.log_step(step);
  logger.log_eval({3, 0.5, 1.25, 900.0});
  logger.flush();
  EXPECT_EQ(logger.records_written(), 2u);

  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> records;
  while (std::getline(lines, line)) records.push_back(line);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_NE(records[0].find("\"kind\": \"step\""), std::string::npos);
  EXPECT_NE(records[0].find("\"step\": 3"), std::string::npos);
  EXPECT_NE(records[0].find("\"synced\": true"), std::string::npos);
  EXPECT_NE(records[0].find("\"movers\": 3, \"measured_p\": 0.25"),
            std::string::npos);
  EXPECT_NE(records[0].find("\"wireless_up\": {\"transfers\": 6, \"dropped\": "
                            "1, \"bytes\": 4096, \"in_flight\": 2}"),
            std::string::npos);
  EXPECT_NE(records[0].find("\"select\": 10, \"distribute\": 0, "
                            "\"local_train\": 90"),
            std::string::npos);
  EXPECT_NE(records[1].find("\"kind\": \"eval\""), std::string::npos);
  EXPECT_NE(records[1].find("\"accuracy\": 0.5"), std::string::npos);
}

/// The keys of one JSONL line in order of appearance (nested objects
/// flattened in place).
std::vector<std::string> keys_in_order(const std::string& line) {
  std::vector<std::string> keys;
  for (std::size_t at = line.find('"'); at != std::string::npos;
       at = line.find('"', at)) {
    const std::size_t close = line.find('"', at + 1);
    if (line.compare(close + 1, 1, ":") == 0) {
      keys.push_back(line.substr(at + 1, close - at - 1));
    }
    at = close + 1;
  }
  return keys;
}

TEST(RunLogger, StepLinesKeepTheirKeyOrder) {
  // The simulator's step lines carry exactly these keys, in this order;
  // contributing_edges appears on synced steps only.
  SimBundle bundle;
  bundle.cfg.cloud_interval = 2;
  auto sim = bundle.make(Algorithm::kMiddle);
  std::ostringstream jsonl;
  RunLogger logger(jsonl);
  sim->set_observability({nullptr, nullptr, &logger});
  sim->step();
  sim->step();

  std::vector<std::string> expected = {
      "kind", "step", "synced", "movers", "measured_p", "selected",
      "lost_downloads", "blends", "blend_weight_sum", "materializations",
      "resident_peak", "step_wall_us", "phase_us", "mobility", "membership",
      "select", "distribute", "local_train", "upload", "edge_aggregate",
      "cloud_sync", "links"};
  for (const char* link : {"wireless_down", "wireless_up", "wan_up",
                           "wan_down", "broadcast", "carry"}) {
    expected.insert(expected.end(),
                    {link, "transfers", "dropped", "bytes", "in_flight"});
  }
  std::istringstream lines(jsonl.str());
  std::string unsynced, synced;
  std::getline(lines, unsynced);
  std::getline(lines, synced);
  EXPECT_EQ(keys_in_order(unsynced), expected);
  expected.insert(expected.begin() + 9, "contributing_edges");
  EXPECT_EQ(keys_in_order(synced), expected);
}

TEST(RunLogger, StepRecordsCarryTheMeasuredMobility) {
  // Each step line's movers equal the devices whose edge changed in that
  // step, measured_p is movers / n, and sim.movers sums them.
  SimBundle bundle(4, 40, 4);
  auto sim = bundle.make(Algorithm::kMiddle);
  std::ostringstream jsonl;
  RunLogger logger(jsonl);
  MetricsRegistry metrics;
  sim->set_observability({nullptr, &metrics, &logger});
  std::vector<std::size_t> expected;
  for (std::size_t t = 0; t < bundle.cfg.total_steps; ++t) {
    const std::vector<std::size_t> before = sim->assignment();
    sim->step();
    expected.push_back(
        middlefl::mobility::moved_devices(before, sim->assignment()).size());
  }
  // The text after `"key": ` in a JSONL line.
  const auto value_of = [](const std::string& line, const std::string& key) {
    const std::string quoted = "\"" + key + "\": ";
    const std::size_t at = line.find(quoted);
    EXPECT_NE(at, std::string::npos) << key;
    return at == std::string::npos ? std::string("0")
                                   : line.substr(at + quoted.size());
  };
  std::istringstream lines(jsonl.str());
  std::string line;
  std::size_t step = 0;
  std::size_t total = 0;
  while (std::getline(lines, line)) {
    if (line.find("\"kind\": \"step\"") == std::string::npos) continue;
    ASSERT_LT(step, expected.size());
    const std::size_t movers = std::stoul(value_of(line, "movers"));
    const double measured_p = std::stod(value_of(line, "measured_p"));
    EXPECT_EQ(movers, expected[step]) << "step " << step;
    EXPECT_DOUBLE_EQ(measured_p, static_cast<double>(expected[step]) / 40.0)
        << "step " << step;
    total += movers;
    ++step;
  }
  EXPECT_EQ(step, expected.size());
  EXPECT_GT(total, 0u);
  double counted = -1.0;
  for (const auto& [name, value] : metrics.snapshot().counters) {
    if (name == "sim.movers") counted = value;
  }
  EXPECT_DOUBLE_EQ(counted, static_cast<double>(total));
}

// ---------------------------------------------------------------------------
// History CSV round-trip (names with commas/quotes)

TEST(HistoryCsv, RoundTripsAlgorithmNameWithCommasAndQuotes) {
  RunHistory history;
  history.algorithm = "MIDDLE, \"tuned\", v2";
  history.points.push_back({5, 0.25, 1.5, {}});
  history.points.push_back({10, 0.5, 0.75, {}});

  const std::string path =
      ::testing::TempDir() + "obs_test_history_roundtrip.csv";
  middlefl::core::save_history_csv(history, path);
  const RunHistory loaded = middlefl::core::load_history_csv(path);
  std::remove(path.c_str());

  EXPECT_EQ(loaded.algorithm, history.algorithm);
  ASSERT_EQ(loaded.points.size(), 2u);
  EXPECT_EQ(loaded.points[0].step, 5u);
  EXPECT_DOUBLE_EQ(loaded.points[0].accuracy, 0.25);
  EXPECT_DOUBLE_EQ(loaded.points[1].loss, 0.75);
}

TEST(CsvSplitRow, UndoesEscaping) {
  using middlefl::util::csv_split_row;
  EXPECT_EQ(csv_split_row("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(csv_split_row("\"a,b\",c"),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(csv_split_row("\"say \"\"hi\"\"\",x"),
            (std::vector<std::string>{"say \"hi\"", "x"}));
  EXPECT_EQ(csv_split_row("a,,c"),
            (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(csv_split_row("a,"), (std::vector<std::string>{"a", ""}));
  EXPECT_EQ(csv_split_row(""), (std::vector<std::string>{""}));
  EXPECT_THROW(csv_split_row("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(csv_split_row("\"x\"y,z"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Step records under lossy + latency link policies

TEST(EventStream, ReconcilesWithCountersUnderLossyLatencyLinks) {
  SimBundle bundle;
  // Lossy wireless in both directions and one step of uplink latency:
  // every dropout path fires.
  bundle.cfg.transport.wireless_up.loss_prob = 0.3;
  bundle.cfg.transport.wireless_up.latency_steps = 1;
  bundle.cfg.transport.wireless_down.loss_prob = 0.25;
  auto sim = bundle.make(Algorithm::kMiddle);
  const std::vector<StepRecord> records = run_step_records(*sim);

  // Record dropouts must sum exactly to the simulation's counters, and a
  // lossy downlink must actually produce some.
  std::size_t lost = 0, blends = 0, syncs = 0;
  for (const StepRecord& r : records) {
    lost += r.lost_downloads;
    // Blends reconcile with the on-device aggregation counter.
    blends += r.blends;
    EXPECT_EQ(r.blends > 0, r.blend_weight_sum > 0.0) << "step " << r.step;
    // Cloud syncs land every cloud_interval steps, never with more edges
    // than exist.
    if (r.synced) {
      ++syncs;
      EXPECT_EQ(r.step % bundle.cfg.cloud_interval, 0u);
      EXPECT_LE(r.contributing_edges, sim->num_edges());
    }
  }
  // MIDDLE makes no previous-edge download, so every downlink drop is a
  // selected device's one download and the record counts each once.
  EXPECT_EQ(lost, sim->lost_downloads());
  EXPECT_GT(lost, 0u);
  EXPECT_EQ(blends, sim->on_device_aggregations());
  EXPECT_EQ(syncs, bundle.cfg.total_steps / bundle.cfg.cloud_interval);

  // Link deltas reconcile with the transport's own wire report, drops
  // included (lossy uplink must have dropped something).
  const LinkStats up_sum = sum_link(records, LinkKind::kWirelessUp);
  const LinkStats down_sum = sum_link(records, LinkKind::kWirelessDown);
  const auto& up = sim->transport().link(LinkKind::kWirelessUp).stats();
  const auto& down = sim->transport().link(LinkKind::kWirelessDown).stats();
  EXPECT_EQ(up_sum.transfers, up.transfers);
  EXPECT_EQ(up_sum.dropped, up.dropped);
  EXPECT_EQ(up_sum.bytes, up.bytes);
  EXPECT_EQ(down_sum.transfers, down.transfers);
  EXPECT_EQ(down_sum.dropped, down.dropped);
  EXPECT_GT(up.dropped, 0u);
  EXPECT_GT(down.dropped, 0u);

  // comm_stats() reads the same link counters, so the record sums and the
  // legacy report agree too.
  const auto comm = sim->comm_stats();
  EXPECT_EQ(up_sum.transfers, comm.device_uploads);
  EXPECT_EQ(down_sum.transfers, comm.device_downloads);
}

TEST(EventStream, WanLatencyDefersCloudContributions) {
  SimBundle bundle;
  bundle.cfg.transport.wan_up.latency_steps = 1;
  auto sim = bundle.make(Algorithm::kMiddle);
  std::vector<StepRecord> syncs;
  for (const StepRecord& r : run_step_records(*sim)) {
    if (r.synced) syncs.push_back(r);
  }

  // With one step of WAN latency every sync's uploads are still in flight
  // when the cloud aggregates, so the first sync has no contributions and
  // later syncs see only the previous sync's (stale) uploads.
  ASSERT_FALSE(syncs.empty());
  EXPECT_EQ(syncs.front().contributing_edges, 0u);
  for (std::size_t i = 1; i < syncs.size(); ++i) {
    EXPECT_LE(syncs[i].contributing_edges, sim->num_edges());
  }
  // The stale uploads do eventually land: the final in-flight count equals
  // exactly one sync's worth of WAN uploads.
  EXPECT_EQ(sim->transport().total_in_flight(), 0u + sim->num_edges());
  EXPECT_EQ(link_delta(syncs.back(), LinkKind::kWanUp).in_flight,
            sim->num_edges());
}

TEST(EventStream, TraceCapturesDropoutAndBlendInstants) {
  SimBundle bundle;
  bundle.cfg.transport.wireless_down.loss_prob = 0.3;
  auto sim = bundle.make(Algorithm::kMiddle);

  TraceRecorder trace;
  sim->set_observability({&trace, nullptr, nullptr});
  sim->run();

  std::ostringstream out;
  trace.write_chrome_trace(out);
  const std::string json = out.str();
  // The serial replay point emits instant markers for the lossy downlink's
  // dropouts and the mobility-driven blends, and every phase span shows up.
  EXPECT_NE(json.find("\"dropouts\""), std::string::npos);
  EXPECT_NE(json.find("\"blends\""), std::string::npos);
  for (const char* phase : {"\"select\"", "\"distribute\"", "\"local_train\"",
                            "\"upload\"", "\"edge_aggregate\"",
                            "\"cloud_sync\"", "\"step\"", "\"evaluate\""}) {
    EXPECT_NE(json.find(phase), std::string::npos) << phase;
  }
}

}  // namespace
