// Trace-plane property suite (ctest label `trace`, run under the
// sanitizer CI job).
//
// Two contracts under test. First, recording is digest-neutral: a run
// served with trace::start is byte-identical in its deterministic
// telemetry — per-epoch FNV digest, final flow, query totals — to the
// same run untraced, single-server and multi-tenant alike. Wall-clock
// spans are telemetry ABOUT the run, never input TO it. Second, the
// trace file inherits the WAL's crash posture: a trace torn at any byte
// (kill mid-flush, flipped bit, rotated-away tail) decodes up to the
// last verified record and never throws for tail corruption — only for
// files that are not traces at all.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/exec.h"
#include "net/flow.h"
#include "net/generators.h"
#include "service/service.h"
#include "sweep/spec.h"
#include "trace/trace.h"
#include "util/binio.h"
#include "util/framed_log.h"

namespace staleflow {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "staleflow_trace_" + name;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string header_payload(std::uint32_t version = trace::kTraceVersion,
                           const std::string& producer = "trace_test") {
  binio::Writer w;
  w.u32(version);
  w.str(producer);
  return std::string(w.data());
}

std::string event_batch_payload(std::uint32_t worker,
                                const std::vector<trace::TraceEvent>& events) {
  binio::Writer w;
  w.u32(worker);
  w.u64(events.size());
  for (const trace::TraceEvent& event : events) trace::encode_event(w, event);
  return std::string(w.data());
}

trace::TraceEvent sample_event(std::uint64_t epoch) {
  trace::TraceEvent event;
  event.kind = trace::EventKind::kSubBatchSpan;
  event.tenant = 3;
  event.epoch = epoch;
  event.arg = (std::uint64_t{5} << 32) | 7;
  event.begin_ns = 1000 * epoch;
  event.end_ns = 1000 * epoch + 250;
  event.value = 4096;
  return event;
}

void append(std::ostream& out, trace::TraceRecordType type,
            const std::string& payload) {
  framed_log::append_frame(out, static_cast<std::uint32_t>(type), payload);
}

/// A minimal well-formed trace: header + one two-event batch.
std::string small_trace() {
  std::ostringstream out(std::ios::binary);
  out.write(trace::kTraceMagic, sizeof(trace::kTraceMagic));
  append(out, trace::TraceRecordType::kTraceHeader, header_payload());
  append(out, trace::TraceRecordType::kEventBatch,
         event_batch_payload(0, {sample_event(1), sample_event(2)}));
  return out.str();
}

// ----------------------------------------------------------- event codec

TEST(TraceCodec, EventRoundTripIsExact) {
  const trace::TraceEvent original = sample_event(42);
  binio::Writer w;
  trace::encode_event(w, original);
  EXPECT_EQ(w.data().size(), trace::kEventBytes);

  binio::Reader r(w.data());
  const trace::TraceEvent decoded = trace::decode_event(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded.kind, original.kind);
  EXPECT_EQ(decoded.tenant, original.tenant);
  EXPECT_EQ(decoded.epoch, original.epoch);
  EXPECT_EQ(decoded.arg, original.arg);
  EXPECT_EQ(decoded.begin_ns, original.begin_ns);
  EXPECT_EQ(decoded.end_ns, original.end_ns);
  EXPECT_EQ(decoded.value, original.value);
}

TEST(TraceCodec, EveryKindHasAStableName) {
  const std::vector<trace::EventKind> kinds = {
      trace::EventKind::kEpochSpan,      trace::EventKind::kSubBatchSpan,
      trace::EventKind::kSnapshotPublish, trace::EventKind::kSchedulerRound,
      trace::EventKind::kGraphSpan,      trace::EventKind::kWalAppend,
      trace::EventKind::kFaultSpan};
  std::set<std::string> names;
  for (const trace::EventKind kind : kinds) {
    names.insert(std::string(trace::event_kind_name(kind)));
  }
  EXPECT_EQ(names.size(), kinds.size());  // distinct
  EXPECT_TRUE(names.count("epoch"));
  EXPECT_TRUE(names.count("sub_batch"));
  EXPECT_TRUE(names.count("fault"));
}

// ------------------------------------------- torn-tail / corruption load
//
// Frame-level truncation and bit flips are the shared scanner's, covered
// for both file kinds by the FramedLog suite in recovery_test.cpp; these
// cases pin what load_trace makes of the surviving records.

TEST(TraceRecovery, TornTraceLoadsItsPrefixAtEveryByte) {
  const std::string bytes = small_trace();
  const std::string path = temp_path("torn");
  const std::size_t header_end =
      sizeof(trace::kTraceMagic) + framed_log::kFrameBytes +
      header_payload().size();

  for (std::size_t cut = sizeof(trace::kTraceMagic); cut < bytes.size();
       ++cut) {
    write_file(path, bytes.substr(0, cut));
    // Losing the header record itself also counts as truncation ("empty
    // trace"); only the cut exactly after the header yields a
    // complete-but-eventless trace.
    const trace::LoadedTrace loaded = trace::load_trace(path);
    EXPECT_EQ(loaded.truncated, cut != header_end) << "cut at " << cut;
    EXPECT_LE(loaded.valid_bytes, cut) << "cut at " << cut;
    EXPECT_FALSE(loaded.clean_shutdown) << "cut at " << cut;
    EXPECT_TRUE(loaded.events.empty()) << "cut at " << cut;
  }
  write_file(path, bytes);
  const trace::LoadedTrace whole = trace::load_trace(path);
  EXPECT_FALSE(whole.truncated);
  EXPECT_EQ(whole.events.size(), 2u);
}

TEST(TraceRecovery, MagicOnlyLoadsAsTruncatedAndEmpty) {
  // What a rotation leaves behind the instant after it truncates the
  // file: loads as truncated (no header record) with zero events.
  const std::string path = temp_path("rotated");
  write_file(path, std::string(trace::kTraceMagic,
                               sizeof(trace::kTraceMagic)));
  const trace::LoadedTrace loaded = trace::load_trace(path);
  EXPECT_TRUE(loaded.truncated);
  EXPECT_TRUE(loaded.events.empty());
  EXPECT_FALSE(loaded.clean_shutdown);
}

TEST(TraceRecovery, CorruptPayloadInsideValidFrameTruncates) {
  // A checksum-valid frame whose payload doesn't decode (header claiming
  // a future version) must truncate, not throw.
  const std::string path = temp_path("future");
  std::ostringstream out(std::ios::binary);
  out.write(trace::kTraceMagic, sizeof(trace::kTraceMagic));
  append(out, trace::TraceRecordType::kTraceHeader,
         header_payload(trace::kTraceVersion + 1));
  write_file(path, out.str());

  const trace::LoadedTrace loaded = trace::load_trace(path);
  EXPECT_TRUE(loaded.truncated);
  EXPECT_EQ(loaded.valid_bytes, sizeof(trace::kTraceMagic));
  EXPECT_TRUE(loaded.events.empty());
}

// ------------------------------------------------------ metrics registry

TEST(MetricsRegistry, SameNameSameCounterDenseIds) {
  trace::MetricsRegistry registry;
  trace::Counter& a = registry.counter("a.first");
  trace::Counter& b = registry.counter("b.second");
  EXPECT_EQ(&registry.counter("a.first"), &a);  // stable address
  a.add(5);
  a.inc();
  b.add(2);

  const std::vector<trace::CounterSample> samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].id, 0u);
  EXPECT_EQ(samples[0].name, "a.first");
  EXPECT_EQ(samples[0].value, 6u);
  EXPECT_EQ(samples[1].id, 1u);
  EXPECT_EQ(samples[1].value, 2u);
}

TEST(TraceRing, DropsOnOverflowNeverBlocks) {
  trace::TraceRing ring(/*capacity_pow2=*/8);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ring.try_push(sample_event(i));
  }
  EXPECT_EQ(ring.dropped(), 20u - 8u);

  std::vector<trace::TraceEvent> drained;
  ring.drain(drained);
  ASSERT_EQ(drained.size(), 8u);
  // FIFO: the oldest accepted events survive, in order.
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].epoch, i);
  }
}

TEST(TraceRing, RoundsCapacityUpToAPowerOfTwo) {
  // The index mask only works for power-of-two capacities; a request
  // like 5 used to corrupt the ring silently (mask 4 aliased slots).
  // Now it rounds up and the full rounded capacity is usable.
  EXPECT_EQ(trace::TraceRing(5).capacity(), 8u);
  EXPECT_EQ(trace::TraceRing(8).capacity(), 8u);
  EXPECT_EQ(trace::TraceRing(9).capacity(), 16u);
  EXPECT_EQ(trace::TraceRing(1).capacity(), 1u);
  EXPECT_EQ(trace::TraceRing(0).capacity(), 1u);  // never a zero mask

  trace::TraceRing ring(5);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.try_push(sample_event(i))) << i;
  }
  EXPECT_FALSE(ring.try_push(sample_event(8)));
  EXPECT_EQ(ring.dropped(), 1u);

  std::vector<trace::TraceEvent> drained;
  ring.drain(drained);
  ASSERT_EQ(drained.size(), 8u);
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].epoch, i);  // FIFO survives the rounding
  }
}

// ------------------------------------------------- recorder round trip

TEST(Recorder, MultiThreadedSessionRoundTrips) {
  const std::string path = temp_path("session");
  trace::start(path, "trace_test multithread");
  trace::MetricsRegistry::global().counter("test.ticks").add(123);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        trace::Span span(trace::EventKind::kGraphSpan,
                         static_cast<std::uint32_t>(t),
                         static_cast<std::uint64_t>(i));
        span.value(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  trace::stop();
  EXPECT_FALSE(trace::active());

  const trace::LoadedTrace loaded = trace::load_trace(path);
  EXPECT_FALSE(loaded.truncated);
  EXPECT_TRUE(loaded.clean_shutdown);
  EXPECT_EQ(loaded.producer, "trace_test multithread");
  EXPECT_EQ(loaded.version, trace::kTraceVersion);

  // Every event either landed in the file or was counted dropped —
  // nothing vanishes silently.
  EXPECT_EQ(loaded.events.size() + loaded.trailer_dropped,
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(loaded.trailer_events, loaded.events.size());

  // Per-thread ring order is preserved through the drain.
  std::map<std::uint32_t, std::uint64_t> last_epoch;
  std::set<std::uint32_t> tenants;
  for (const trace::LoadedEvent& event : loaded.events) {
    tenants.insert(event.event.tenant);
    EXPECT_LE(event.event.begin_ns, event.event.end_ns);
    auto it = last_epoch.find(event.event.tenant);
    if (it != last_epoch.end()) {
      EXPECT_LT(it->second, event.event.epoch);
    }
    last_epoch[event.event.tenant] = event.event.epoch;
  }
  EXPECT_EQ(tenants.size(), static_cast<std::size_t>(kThreads));

  // The registry counter was defined and sampled at least once (final
  // flush samples unconditionally).
  ASSERT_FALSE(loaded.counter_names.empty());
  bool saw_ticks = false;
  for (std::size_t id = 0; id < loaded.counter_names.size(); ++id) {
    if (loaded.counter_names[id] != "test.ticks") continue;
    saw_ticks = true;
    ASSERT_FALSE(loaded.counter_batches.empty());
    for (const auto& [cid, value] : loaded.counter_batches.back().values) {
      if (cid == id) EXPECT_GE(value, 123u);
    }
  }
  EXPECT_TRUE(saw_ticks);
}

TEST(Recorder, StartTwiceThrowsAndStopIsIdempotent) {
  const std::string path = temp_path("twice");
  trace::stop();  // no-op when idle
  trace::start(path, "one");
  EXPECT_THROW(trace::start(temp_path("other"), "two"), std::runtime_error);
  trace::stop();
  trace::stop();  // idempotent
  EXPECT_FALSE(trace::active());
}

// ------------------------------------------- digest neutrality (pinned)

RouteServerOptions serving_options(std::size_t epochs, std::uint64_t seed) {
  RouteServerOptions options;
  options.update_period = 0.1;
  options.epochs = epochs;
  options.num_clients = 800;
  options.shards = 4;
  options.seed = seed;
  options.sub_batch_queries = 16384;
  options.threads = 2;
  return options;
}

TEST(DigestNeutrality, SingleServerTracedEqualsUntraced) {
  const Instance instance = braess(true);
  const Policy policy = named_policy("replicator").make(instance, 0.1);
  const WorkloadPtr workload = make_workload("closed-loop:2000");

  const RouteServerOptions options = serving_options(10, 17);
  RouteServer untraced(instance, policy, *workload);
  const RouteServerResult baseline =
      untraced.run(FlowVector::uniform(instance), options);

  const std::string path = temp_path("digest_single");
  trace::start(path, "trace_test digest");
  RouteServer traced(instance, policy, *workload);
  const RouteServerResult recorded =
      traced.run(FlowVector::uniform(instance), options);
  trace::stop();

  EXPECT_EQ(telemetry_digest(recorded.epochs),
            telemetry_digest(baseline.epochs));
  EXPECT_EQ(recorded.total_queries, baseline.total_queries);
  for (std::size_t p = 0; p < baseline.final_flow.values().size(); ++p) {
    EXPECT_EQ(recorded.final_flow.values()[p],
              baseline.final_flow.values()[p]);
  }
  EXPECT_TRUE(recorded.route_latency == baseline.route_latency);

  // And the trace actually observed the run: one epoch span per served
  // epoch, one snapshot publish per epoch, sub-batch spans present.
  const trace::LoadedTrace loaded = trace::load_trace(path);
  EXPECT_TRUE(loaded.clean_shutdown);
  std::size_t epoch_spans = 0, publishes = 0, sub_batches = 0;
  for (const trace::LoadedEvent& event : loaded.events) {
    switch (event.event.kind) {
      case trace::EventKind::kEpochSpan: ++epoch_spans; break;
      case trace::EventKind::kSnapshotPublish: ++publishes; break;
      case trace::EventKind::kSubBatchSpan: ++sub_batches; break;
      default: break;
    }
  }
  EXPECT_EQ(epoch_spans, options.epochs);
  EXPECT_EQ(publishes, options.epochs);
  EXPECT_GT(sub_batches, 0u);
}

TEST(DigestNeutrality, MultiTenantTracedEqualsUntraced) {
  const Instance braess_net = braess(true);
  const Instance links = uniform_parallel_links(8, 0.5, 1.0);
  const Policy p0 = named_policy("replicator").make(braess_net, 0.1);
  const Policy p1 = named_policy("alpha:0.5").make(links, 0.1);
  const WorkloadPtr w0 = make_workload("closed-loop:1500");
  const WorkloadPtr w1 = make_workload("poisson:15000");

  const auto run_fleet = [&] {
    TenantRegistry registry;
    TenantOptions t0;
    t0.server = serving_options(8, 5);
    TenantOptions t1;
    t1.server = serving_options(12, 9);
    t1.weight = 2;
    registry.add("alpha", braess_net, p0, *w0, t0);
    registry.add("beta", links, p1, *w1, t1);
    Executor executor(3);
    return registry.run(executor);
  };

  const MultiTenantResult baseline = run_fleet();

  const std::string path = temp_path("digest_tenants");
  trace::start(path, "trace_test tenants");
  const MultiTenantResult recorded = run_fleet();
  trace::stop();

  ASSERT_EQ(recorded.tenants.size(), baseline.tenants.size());
  for (std::size_t i = 0; i < baseline.tenants.size(); ++i) {
    EXPECT_EQ(telemetry_digest(recorded.tenants[i].server.epochs),
              telemetry_digest(baseline.tenants[i].server.epochs))
        << baseline.tenants[i].name;
  }

  // Scheduler rounds were spanned and epoch spans carry tenant indices.
  // Each tenant published its own board once per served epoch, the last
  // one at its own final epoch (8 vs 12 epochs served).
  const trace::LoadedTrace loaded = trace::load_trace(path);
  std::set<std::uint32_t> epoch_tenants;
  std::size_t rounds = 0, epoch_spans = 0;
  std::size_t publishes[2] = {0, 0};
  std::uint64_t last_published[2] = {0, 0};
  for (const trace::LoadedEvent& event : loaded.events) {
    if (event.event.kind == trace::EventKind::kSchedulerRound) ++rounds;
    if (event.event.kind == trace::EventKind::kEpochSpan) {
      ++epoch_spans;
      epoch_tenants.insert(event.event.tenant);
    }
    if (event.event.kind == trace::EventKind::kSnapshotPublish) {
      ASSERT_LT(event.event.tenant, 2u);
      ++publishes[event.event.tenant];
      last_published[event.event.tenant] =
          std::max(last_published[event.event.tenant], event.event.epoch);
    }
  }
  EXPECT_GT(rounds, 0u);
  EXPECT_EQ(epoch_spans, 8u + 12u);  // every tenant epoch recorded
  EXPECT_EQ(epoch_tenants, (std::set<std::uint32_t>{0, 1}));
  EXPECT_EQ(publishes[0], 8u);
  EXPECT_EQ(publishes[1], 12u);
  EXPECT_EQ(last_published[0], 8u);
  EXPECT_EQ(last_published[1], 12u);
}

// --------------------------------------------- crafted payloads (no MAC)

TEST(TraceRecovery, CraftedPayloadsTruncateOrLoadCleanNeverThrow) {
  // The frame checksum is FNV-1a, no MAC: anyone can re-frame a damaged
  // payload so that it verifies. Flip every byte of every record payload
  // of a small real trace, one at a time, re-frame it with a valid
  // checksum, and load: the decoder must either stop trusting the file
  // at that record or load it clean — never throw, crash or hang.
  const std::string path = temp_path("crafted_source");
  {
    const Instance instance = braess(true);
    const Policy policy = named_policy("replicator").make(instance, 0.1);
    const WorkloadPtr workload = make_workload("closed-loop:200");
    RouteServerOptions options = serving_options(2, 3);
    options.num_clients = 100;
    options.shards = 2;
    options.threads = 1;
    trace::start(path, "trace_test crafted");
    RouteServer server(instance, policy, *workload);
    server.run(FlowVector::uniform(instance), options);
    trace::stop();
  }
  const framed_log::Scan clean = framed_log::scan_frames(
      path, "trace", trace::kTraceMagic,
      static_cast<std::uint32_t>(trace::TraceRecordType::kTraceTrailer));
  ASSERT_FALSE(clean.truncated) << clean.note;
  ASSERT_GE(clean.records.size(), 3u);  // header, events, ..., trailer

  const std::string crafted_path = temp_path("crafted");
  std::size_t flips = 0;
  for (std::size_t i = 0; i < clean.records.size(); ++i) {
    for (std::size_t at = 0; at < clean.records[i].payload.size(); ++at) {
      std::ostringstream out(std::ios::binary);
      out.write(trace::kTraceMagic, sizeof(trace::kTraceMagic));
      for (std::size_t k = 0; k < clean.records.size(); ++k) {
        std::string payload = clean.records[k].payload;
        if (k == i) payload[at] = static_cast<char>(~payload[at]);
        framed_log::append_frame(out, clean.records[k].type, payload);
      }
      write_file(crafted_path, out.str());
      trace::LoadedTrace loaded;
      ASSERT_NO_THROW(loaded = trace::load_trace(crafted_path))
          << "record " << i << " byte " << at;
      EXPECT_TRUE(loaded.truncated || loaded.clean_shutdown)
          << "record " << i << " byte " << at;
      EXPECT_LE(loaded.valid_bytes, out.str().size());
      ++flips;
    }
  }
  EXPECT_GT(flips, 0u);
}

}  // namespace
}  // namespace staleflow
