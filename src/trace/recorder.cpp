#include "trace/recorder.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "trace/metrics.h"
#include "trace/trace_ring.h"
#include "util/binio.h"
#include "util/framed_log.h"

namespace staleflow::trace {

namespace {

struct Recorder {
  std::string path;
  std::ofstream out;

  // Ring registry: producers append under rings_mu, the drainer copies
  // the list under it. The rings themselves are lock-free.
  std::mutex rings_mu;
  std::vector<std::shared_ptr<TraceRing>> rings;

  // Serializes flush passes (periodic drainer vs. the final drain in
  // stop) and guards the file + bookkeeping below.
  std::mutex flush_mu;
  std::uint64_t events_written = 0;
  std::uint32_t counters_defined = 0;

  std::thread drainer;
  std::mutex stop_mu;
  std::condition_variable stop_cv;
  bool stopping = false;
};

std::atomic<Recorder*> g_recorder{nullptr};
// Bumped on every start/stop; thread-local slots cache it so a slot from
// a previous recording session is never reused against a new recorder.
std::atomic<std::uint64_t> g_generation{0};
std::mutex g_lifecycle_mu;

struct ThreadSlot {
  std::shared_ptr<TraceRing> ring;
  std::uint64_t generation = 0;
};

/// Frames one record into the recorder's file. The stream state is the
/// callers' business: start() checks it and throws, while the drainer
/// batches, flushes and never throws.
void append(std::ostream& out, TraceRecordType type,
            std::string_view payload) {
  framed_log::append_frame(out, static_cast<std::uint32_t>(type), payload);
}

ThreadSlot& tls_slot() noexcept {
  thread_local ThreadSlot slot;
  return slot;
}

void flush_once(Recorder& rec) {
  std::lock_guard<std::mutex> flush_lock(rec.flush_mu);

  std::vector<std::shared_ptr<TraceRing>> rings;
  {
    std::lock_guard<std::mutex> rings_lock(rec.rings_mu);
    rings = rec.rings;
  }

  std::vector<TraceEvent> scratch;
  for (std::size_t worker = 0; worker < rings.size(); ++worker) {
    scratch.clear();
    rings[worker]->drain(scratch);
    if (scratch.empty()) continue;
    binio::Writer payload;
    payload.u32(static_cast<std::uint32_t>(worker));
    payload.u64(scratch.size());
    for (const TraceEvent& event : scratch) {
      encode_event(payload, event);
    }
    append(rec.out, TraceRecordType::kEventBatch, payload.data());
    rec.events_written += scratch.size();
  }

  const std::vector<CounterSample> samples =
      MetricsRegistry::global().snapshot();
  if (samples.size() > rec.counters_defined) {
    binio::Writer defs;
    defs.u64(samples.size() - rec.counters_defined);
    for (std::size_t i = rec.counters_defined; i < samples.size(); ++i) {
      defs.u32(samples[i].id);
      defs.str(samples[i].name);
    }
    append(rec.out, TraceRecordType::kCounterDefs, defs.data());
    rec.counters_defined = static_cast<std::uint32_t>(samples.size());
  }
  if (!samples.empty()) {
    binio::Writer batch;
    batch.u64(now_ns());
    batch.u64(samples.size());
    for (const CounterSample& sample : samples) {
      batch.u32(sample.id);
      batch.u64(sample.value);
    }
    append(rec.out, TraceRecordType::kCounterBatch, batch.data());
  }

  rec.out.flush();
}

void drainer_loop(Recorder& rec) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(rec.stop_mu);
      rec.stop_cv.wait_for(lock, std::chrono::milliseconds(kFlushPeriodMs),
                           [&] { return rec.stopping; });
      if (rec.stopping) return;  // stop() runs the final drain itself
    }
    flush_once(rec);
  }
}

/// Slow path of emit: give this thread a ring under the current
/// recorder. Returns false when recording ended in the meantime.
bool register_thread(ThreadSlot& slot, std::uint64_t generation) noexcept {
  try {
    std::lock_guard<std::mutex> lock(g_lifecycle_mu);
    Recorder* rec = g_recorder.load(std::memory_order_acquire);
    if (rec == nullptr ||
        g_generation.load(std::memory_order_acquire) != generation) {
      return false;
    }
    auto ring = std::make_shared<TraceRing>();
    {
      std::lock_guard<std::mutex> rings_lock(rec->rings_mu);
      rec->rings.push_back(ring);
    }
    slot.ring = std::move(ring);
    slot.generation = generation;
    return true;
  } catch (...) {
    return false;  // telemetry must never take down a serving thread
  }
}

}  // namespace

std::uint64_t now_ns() noexcept {
  static const std::chrono::steady_clock::time_point base =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - base)
          .count());
}

bool active() noexcept {
  return g_recorder.load(std::memory_order_relaxed) != nullptr;
}

void start(const std::string& path, std::string_view producer) {
  std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  if (g_recorder.load(std::memory_order_acquire) != nullptr) {
    throw std::runtime_error("trace: recorder already running");
  }
  now_ns();  // pin the clock base before any worker races the init

  auto rec = std::make_unique<Recorder>();
  rec->path = path;
  rec->out.open(path, std::ios::binary | std::ios::trunc);
  if (!rec->out) {
    throw std::runtime_error("trace: cannot open '" + path +
                             "' for writing");
  }
  rec->out.write(kTraceMagic, sizeof(kTraceMagic));

  binio::Writer header;
  header.u32(kTraceVersion);
  header.str(producer);
  append(rec->out, TraceRecordType::kTraceHeader, header.data());
  rec->out.flush();
  if (!rec->out) {
    throw std::runtime_error("trace: write failed on '" + path + "'");
  }

  Recorder* raw = rec.release();
  raw->drainer = std::thread([raw] { drainer_loop(*raw); });
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  g_recorder.store(raw, std::memory_order_release);
}

void stop() {
  std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  Recorder* rec = g_recorder.exchange(nullptr, std::memory_order_acq_rel);
  if (rec == nullptr) return;
  // Invalidate cached thread slots before tearing anything down; a
  // thread mid-emit at worst pushes into its own still-owned ring.
  g_generation.fetch_add(1, std::memory_order_acq_rel);

  {
    std::lock_guard<std::mutex> stop_lock(rec->stop_mu);
    rec->stopping = true;
  }
  rec->stop_cv.notify_all();
  rec->drainer.join();

  flush_once(*rec);

  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> rings_lock(rec->rings_mu);
    for (const auto& ring : rec->rings) {
      dropped += ring->dropped();
    }
  }
  binio::Writer trailer;
  trailer.u64(rec->events_written);
  trailer.u64(dropped);
  append(rec->out, TraceRecordType::kTraceTrailer, trailer.data());
  rec->out.flush();
  delete rec;
}

void emit(const TraceEvent& event) noexcept {
  if (g_recorder.load(std::memory_order_acquire) == nullptr) return;
  ThreadSlot& slot = tls_slot();
  const std::uint64_t generation =
      g_generation.load(std::memory_order_acquire);
  if (slot.generation != generation || !slot.ring) {
    if (!register_thread(slot, generation)) return;
  }
  slot.ring->try_push(event);
}

void instant(EventKind kind, std::uint32_t tenant, std::uint64_t epoch,
             std::uint64_t arg, std::uint64_t value) noexcept {
  if (!active()) return;
  TraceEvent event;
  event.kind = kind;
  event.tenant = tenant;
  event.epoch = epoch;
  event.arg = arg;
  event.begin_ns = now_ns();
  event.end_ns = event.begin_ns;
  event.value = value;
  emit(event);
}

}  // namespace staleflow::trace
