#include "recovery/run_log.h"

#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "service/telemetry.h"
#include "trace/metrics.h"
#include "trace/recorder.h"
#include "util/binio.h"
#include "util/fnv.h"

namespace staleflow::recovery {

// --------------------------------------------------------------------------
// Payload codecs
// --------------------------------------------------------------------------

std::string encode_run_header(const RunManifest& manifest) {
  binio::Writer w;
  w.u32(kWalVersion);
  w.u8(manifest.multi_tenant ? 1 : 0);
  w.u8(0);  // v3's pipeline byte: 1 only in files of the retired
            // pipelined schedule
  w.str(manifest.faults);
  w.u32(static_cast<std::uint32_t>(manifest.tenants.size()));
  for (const TenantManifest& tenant : manifest.tenants) {
    w.str(tenant.name);
    w.str(tenant.scenario);
    w.str(tenant.policy);
    w.str(tenant.workload);
    const RouteServerOptions& o = tenant.options;
    w.f64(o.update_period);
    w.u64(o.epochs);
    w.u64(o.num_clients);
    w.u64(o.shards);
    w.u64(o.sub_batch_queries);
    w.u8(o.sub_batch_auto ? 1 : 0);
    w.u64(o.seed);
    w.u8(o.record_latency ? 1 : 0);
    w.u64(32);  // the retired latency sample stride; the slot stays
    w.u64(tenant.weight);
  }
  return w.take();
}

RunManifest decode_run_header(std::string_view payload) {
  binio::Reader r(payload);
  const std::uint32_t version = r.u32();
  // A v4 reader still accepts v2 and v3 files: v3 added the pipeline
  // byte (absent in v2), v4 only a record type. Anything else is a
  // future format this build cannot decode — which is also how an older
  // reader treats a newer header.
  if (version < 2 || version > kWalVersion) {
    throw std::runtime_error("WAL header: unknown payload version " +
                             std::to_string(version) +
                             " (this build reads 2.." +
                             std::to_string(kWalVersion) + ")");
  }
  RunManifest manifest;
  manifest.multi_tenant = r.u8() != 0;
  if (version >= 3) manifest.pipeline = r.u8() != 0;
  manifest.faults = r.str();
  // A tenant takes at least 98 bytes: four length prefixes, eight 8-byte
  // fields and two flag bytes.
  const std::size_t count = r.count<std::uint32_t>(4 * 8 + 8 * 8 + 2);
  if (count == 0 || (!manifest.multi_tenant && count != 1)) {
    throw std::runtime_error("WAL header: bad tenant count");
  }
  manifest.tenants.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    TenantManifest tenant;
    tenant.name = r.str();
    tenant.scenario = r.str();
    tenant.policy = r.str();
    tenant.workload = r.str();
    RouteServerOptions& o = tenant.options;
    o.update_period = r.f64();
    o.epochs = r.u64();
    o.num_clients = r.u64();
    o.shards = r.u64();
    o.sub_batch_queries = r.u64();
    o.sub_batch_auto = r.u8() != 0;
    o.seed = r.u64();
    o.record_latency = r.u8() != 0;
    r.u64();  // the retired latency sample stride, ignored
    tenant.weight = r.u64();
    manifest.tenants.push_back(std::move(tenant));
  }
  if (!r.done()) {
    throw std::runtime_error("WAL header: trailing bytes in payload");
  }
  return manifest;
}

namespace {

// A cut record is head, client section, tail: the keyframe and the delta
// differ only in the client section.

void write_cut_head(binio::Writer& w, std::uint32_t tenant,
                    const EngineCheckpoint& cut) {
  w.u32(tenant);
  const EpochSummary& s = cut.summary;
  w.u64(s.epoch);
  w.f64(s.start_time);
  w.f64(s.end_time);
  w.u64(s.queries);
  w.u64(s.migrations);
  w.f64(s.migration_rate);
  w.f64(s.wardrop_gap);
  w.f64(s.board_latency);
  w.f64(s.route_p50);
  w.f64(s.route_p99);
  w.f64(s.route_p999);
  // Three retired slots (the wall-clock p50/p99/p999 us): written as 0.
  for (int retired = 0; retired < 3; ++retired) w.f64(0.0);
  w.f64(s.queries_per_second);
  for (const std::uint64_t word : cut.rng_state) w.u64(word);
  w.u64(cut.flow.size());
  for (const double f : cut.flow) w.f64(f);
}

void write_cut_tail(binio::Writer& w, const EngineCheckpoint& cut,
                    std::uint64_t digest_so_far) {
  const LogHistogram& h = cut.route_hist;
  w.f64(LogHistogram::kMinValue);
  w.f64(LogHistogram::kMaxValue);
  w.u32(LogHistogram::kSubBucketBits);
  std::uint64_t nonzero = 0;
  for (std::size_t b = 0; b < h.bucket_count(); ++b) {
    if (h.bucket_value(b) != 0) ++nonzero;
  }
  w.u64(nonzero);
  for (std::size_t b = 0; b < h.bucket_count(); ++b) {
    const std::uint64_t n = h.bucket_value(b);
    if (n == 0) continue;
    w.u64(b);
    w.u64(n);
  }
  if (h.empty()) {
    w.f64(0.0);
    w.f64(0.0);
    w.f64(0.0);
  } else {
    w.f64(h.min());
    w.f64(h.max());
    w.f64(h.sum());
  }
  w.u64(digest_so_far);
}

void read_cut_head(binio::Reader& r, CutRecord& record) {
  record.tenant = r.u32();
  EpochSummary& s = record.cut.summary;
  s.epoch = r.u64();
  s.start_time = r.f64();
  s.end_time = r.f64();
  s.queries = r.u64();
  s.migrations = r.u64();
  s.migration_rate = r.f64();
  s.wardrop_gap = r.f64();
  s.board_latency = r.f64();
  s.route_p50 = r.f64();
  s.route_p99 = r.f64();
  s.route_p999 = r.f64();
  for (int retired = 0; retired < 3; ++retired) r.f64();  // read, discarded
  s.queries_per_second = r.f64();
  for (std::uint64_t& word : record.cut.rng_state) word = r.u64();
  const std::size_t paths = r.count<std::uint64_t>(8);
  record.cut.flow.reserve(paths);
  for (std::size_t i = 0; i < paths; ++i) record.cut.flow.push_back(r.f64());
}

void read_cut_tail(binio::Reader& r, CutRecord& record) {
  const double hist_min_value = r.f64();
  const double hist_max_value = r.f64();
  const std::uint32_t hist_bits = r.u32();
  // Every LogHistogram has the one geometry the writer records here; a
  // payload naming any other has bucket indices this build would read
  // against the wrong bounds.
  if (hist_min_value != LogHistogram::kMinValue ||
      hist_max_value != LogHistogram::kMaxValue ||
      hist_bits != LogHistogram::kSubBucketBits) {
    throw std::runtime_error(
        "WAL cut: histogram geometry is not the route histogram's");
  }
  const std::size_t nonzero = r.count<std::uint64_t>(16);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
  buckets.reserve(nonzero);
  for (std::size_t i = 0; i < nonzero; ++i) {
    const std::uint64_t bucket = r.u64();
    const std::uint64_t count = r.u64();
    buckets.emplace_back(bucket, count);
  }
  const double hist_min = r.f64();
  const double hist_max = r.f64();
  const double hist_sum = r.f64();
  try {
    record.cut.route_hist =
        LogHistogram::from_state(buckets, hist_min, hist_max, hist_sum);
  } catch (const std::invalid_argument& bad) {
    throw std::runtime_error(std::string("WAL cut: bad histogram state: ") +
                             bad.what());
  }
  record.digest_so_far = r.u64();
  if (!r.done()) {
    throw std::runtime_error("WAL cut: trailing bytes in payload");
  }
}

}  // namespace

std::string encode_epoch_cut(std::uint32_t tenant, const EngineCheckpoint& cut,
                             std::uint64_t digest_so_far) {
  binio::Writer w;
  write_cut_head(w, tenant, cut);
  w.u64(cut.client_paths.size());
  for (const std::uint32_t p : cut.client_paths) w.u32(p);
  write_cut_tail(w, cut, digest_so_far);
  return w.take();
}

CutRecord decode_epoch_cut(std::string_view payload) {
  binio::Reader r(payload);
  CutRecord record;
  read_cut_head(r, record);
  const std::size_t clients = r.count<std::uint64_t>(4);
  record.cut.client_paths.reserve(clients);
  for (std::size_t i = 0; i < clients; ++i) {
    record.cut.client_paths.push_back(r.u32());
  }
  read_cut_tail(r, record);
  return record;
}

std::string encode_epoch_delta(std::uint32_t tenant,
                               const EngineCheckpoint& cut,
                               std::uint64_t digest_so_far,
                               std::span<const PathChange> changes) {
  binio::Writer w;
  write_cut_head(w, tenant, cut);
  w.u64(changes.size());
  for (const PathChange& change : changes) {
    w.u32(change.client);
    w.u32(change.path);
  }
  write_cut_tail(w, cut, digest_so_far);
  return w.take();
}

DeltaRecord decode_epoch_delta(std::string_view payload) {
  binio::Reader r(payload);
  DeltaRecord delta;
  read_cut_head(r, delta.record);
  const std::size_t changes = r.count<std::uint64_t>(8);
  delta.changes.reserve(changes);
  for (std::size_t i = 0; i < changes; ++i) {
    PathChange change;
    change.client = r.u32();
    change.path = r.u32();
    if (i > 0 && change.client <= delta.changes.back().client) {
      throw std::runtime_error(
          "WAL delta: clients not in strictly ascending order");
    }
    delta.changes.push_back(change);
  }
  read_cut_tail(r, delta.record);
  return delta;
}

std::string encode_round_mark(const RoundMark& mark) {
  binio::Writer w;
  w.u64(mark.rounds);
  w.u32(static_cast<std::uint32_t>(mark.credits.size()));
  for (const std::uint64_t credit : mark.credits) w.u64(credit);
  return w.take();
}

RoundMark decode_round_mark(std::string_view payload) {
  binio::Reader r(payload);
  RoundMark mark;
  mark.rounds = r.u64();
  const std::size_t count = r.count<std::uint32_t>(8);
  mark.credits.reserve(count);
  for (std::size_t i = 0; i < count; ++i) mark.credits.push_back(r.u64());
  if (!r.done()) {
    throw std::runtime_error("WAL round mark: trailing bytes in payload");
  }
  return mark;
}

std::string encode_trailer(std::span<const std::uint64_t> digests) {
  binio::Writer w;
  w.u32(static_cast<std::uint32_t>(digests.size()));
  for (const std::uint64_t digest : digests) w.u64(digest);
  return w.take();
}

std::vector<std::uint64_t> decode_trailer(std::string_view payload) {
  binio::Reader r(payload);
  const std::size_t count = r.count<std::uint32_t>(8);
  std::vector<std::uint64_t> digests;
  digests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) digests.push_back(r.u64());
  if (!r.done()) {
    throw std::runtime_error("WAL trailer: trailing bytes in payload");
  }
  return digests;
}

// --------------------------------------------------------------------------
// recover_wal
// --------------------------------------------------------------------------

RecoveredRun recover_wal(const std::string& path,
                         std::optional<CutRef> paths_at) {
  const framed_log::Scan scan =
      framed_log::scan_frames(path, "WAL", kWalMagic, kMaxRecordType);
  if (scan.records.empty() ||
      scan.records.front().type !=
          static_cast<std::uint32_t>(RecordType::kRunHeader)) {
    throw std::runtime_error("recover_wal: '" + path +
                             "' has no run header — not a resumable WAL");
  }

  RecoveredRun run;
  const std::string& header = scan.records.front().payload;
  run.manifest = decode_run_header(header);
  run.version = binio::Reader(header).u32();
  const std::size_t tenants = run.manifest.tenants.size();
  run.cuts.resize(tenants);
  run.cut_offsets.resize(tenants);
  run.digests.assign(tenants, fnv::kOffsetBasis);
  run.credits.assign(tenants, 0);
  run.truncated = scan.truncated;
  run.note = scan.note;
  run.valid_bytes = scan.records.front().end_offset;

  // Cuts stage between round marks; only a round mark commits them. The
  // scan stops at the first record that is structurally valid but
  // semantically impossible (bad tenant index, epoch gap, digest
  // mismatch, a delta without a base, records after the trailer): like a
  // checksum failure, nothing after it can be trusted.
  struct StagedCut {
    CutRecord record;  // a keyframe carries its client paths here
    bool delta = false;
    std::vector<PathChange> changes;  // a delta's
    std::uint64_t offset = 0;  // where the cut's frame starts in the file
  };
  std::vector<StagedCut> staged;
  // Per tenant: whether a keyframe, staged or committed, precedes the
  // next record — the base a delta folds onto.
  std::vector<bool> has_base(tenants, false);
  // Per tenant: the client paths of its last committed cut.
  std::vector<std::vector<std::uint32_t>> paths(tenants);
  const auto stop = [&run, &staged](const std::string& why) {
    run.truncated = true;
    run.note = why;
    staged.clear();
  };

  for (std::size_t index = 1; index < scan.records.size(); ++index) {
    const framed_log::Frame& record = scan.records[index];
    if (run.clean_shutdown) {
      stop("corrupt WAL: record after the clean-shutdown trailer");
      break;
    }
    try {
      switch (static_cast<RecordType>(record.type)) {
        case RecordType::kRunHeader:
          stop("corrupt WAL: duplicate run header");
          break;
        case RecordType::kEpochCut:
        case RecordType::kEpochDelta: {
          StagedCut pending;
          pending.delta = record.type == static_cast<std::uint32_t>(
                                             RecordType::kEpochDelta);
          if (!pending.delta) {
            pending.record = decode_epoch_cut(record.payload);
          } else if (run.version < 4) {
            stop("corrupt WAL: delta cut in a v" +
                 std::to_string(run.version) + " file");
            break;
          } else {
            DeltaRecord delta = decode_epoch_delta(record.payload);
            pending.record = std::move(delta.record);
            pending.changes = std::move(delta.changes);
          }
          const std::uint32_t tenant = pending.record.tenant;
          if (tenant >= tenants) {
            stop("corrupt WAL: cut for unknown tenant");
            break;
          }
          std::size_t expected = run.cuts[tenant].size();
          std::uint64_t digest = run.digests[tenant];
          for (const StagedCut& earlier : staged) {
            if (earlier.record.tenant == tenant) {
              ++expected;
              digest = earlier.record.digest_so_far;
            }
          }
          if (pending.record.cut.summary.epoch != expected) {
            stop("corrupt WAL: cut epochs not contiguous");
            break;
          }
          if (telemetry_digest_accumulate(digest,
                                          pending.record.cut.summary) !=
              pending.record.digest_so_far) {
            stop("corrupt WAL: cut digest cross-check failed");
            break;
          }
          const std::size_t clients =
              run.manifest.tenants[tenant].options.num_clients;
          if (!pending.delta) {
            if (pending.record.cut.client_paths.size() != clients) {
              stop("corrupt WAL: keyframe client count differs from the "
                   "run header's");
              break;
            }
            has_base[tenant] = true;
          } else if (!has_base[tenant]) {
            stop("corrupt WAL: delta cut without a keyframe base");
            break;
          } else if (!pending.changes.empty() &&
                     pending.changes.back().client >= clients) {
            stop("corrupt WAL: delta cut names a client past the tenant's " +
                 std::to_string(clients));
            break;
          }
          // Frame start = end offset minus the frame overhead and the
          // payload itself.
          pending.offset = record.end_offset - framed_log::kFrameBytes -
                           record.payload.size();
          staged.push_back(std::move(pending));
          break;
        }
        case RecordType::kRoundMark: {
          const RoundMark mark = decode_round_mark(record.payload);
          if (mark.credits.size() != tenants) {
            stop("corrupt WAL: round mark credit count mismatch");
            break;
          }
          if (mark.rounds != run.rounds + 1) {
            stop("corrupt WAL: round marks not contiguous");
            break;
          }
          for (StagedCut& pending : staged) {
            const std::uint32_t tenant = pending.record.tenant;
            EngineCheckpoint& cut = pending.record.cut;
            if (pending.delta) {
              for (const PathChange& change : pending.changes) {
                paths[tenant][change.client] = change.path;
              }
            } else {
              paths[tenant] = std::move(cut.client_paths);
              cut.client_paths.clear();
            }
            if (paths_at && paths_at->tenant == tenant &&
                paths_at->epoch == cut.summary.epoch) {
              cut.client_paths = paths[tenant];
            }
            run.digests[tenant] = pending.record.digest_so_far;
            run.cuts[tenant].push_back(std::move(cut));
            run.cut_offsets[tenant].push_back(pending.offset);
          }
          staged.clear();
          run.rounds = mark.rounds;
          for (std::size_t i = 0; i < tenants; ++i) {
            run.credits[i] = static_cast<std::size_t>(mark.credits[i]);
          }
          run.valid_bytes = record.end_offset;
          break;
        }
        case RecordType::kTrailer: {
          if (!staged.empty()) {
            stop("corrupt WAL: trailer with uncommitted cuts");
            break;
          }
          const std::vector<std::uint64_t> digests =
              decode_trailer(record.payload);
          if (digests != run.digests) {
            stop("corrupt WAL: trailer digests do not match the run");
            break;
          }
          run.clean_shutdown = true;
          run.valid_bytes = record.end_offset;
          break;
        }
      }
    } catch (const std::runtime_error& bad) {
      stop(std::string("corrupt WAL: ") + bad.what());
      break;
    }
    if (run.truncated && run.note.rfind("corrupt WAL:", 0) == 0) break;
  }

  // Cuts whose round mark never made it to disk are the torn tail of a
  // mid-round crash: discarded, resume replays that round.
  if (!staged.empty()) {
    run.truncated = true;
    if (run.note.empty()) run.note = "uncommitted cuts without a round mark";
  }
  // The folded paths belong to each tenant's last committed cut: the one
  // EpochEngine::restore reads them from.
  for (std::size_t tenant = 0; tenant < tenants; ++tenant) {
    if (!run.cuts[tenant].empty()) {
      run.cuts[tenant].back().client_paths = std::move(paths[tenant]);
    }
  }
  return run;
}

RegistryResume registry_resume(const RecoveredRun& run) {
  RegistryResume resume;
  resume.rounds = run.rounds;
  resume.credits = run.credits;
  resume.cuts.reserve(run.cuts.size());
  for (const std::vector<EngineCheckpoint>& cuts : run.cuts) {
    resume.cuts.emplace_back(cuts);
  }
  return resume;
}

// --------------------------------------------------------------------------
// WalLog
// --------------------------------------------------------------------------

WalLog::WalLog(const std::string& path, const RunManifest& manifest)
    : path_(path),
      digests_(manifest.tenants.size(), fnv::kOffsetBasis),
      logged_paths_(manifest.tenants.size()) {
  if (manifest.tenants.empty()) {
    throw std::invalid_argument("WalLog: manifest has no tenants");
  }
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_) {
    throw std::runtime_error("WalLog: cannot open '" + path +
                             "' for writing");
  }
  out_.write(kWalMagic, sizeof(kWalMagic));
  append(RecordType::kRunHeader, encode_run_header(manifest));
}

WalLog::WalLog(const std::string& path, const RecoveredRun& recovered)
    : path_(path),
      digests_(recovered.digests),
      rounds_(recovered.rounds),
      deltas_(recovered.version >= 4),
      logged_paths_(recovered.digests.size()) {
  if (recovered.clean_shutdown) {
    throw std::invalid_argument(
        "WalLog: run already completed cleanly — nothing to append");
  }
  std::error_code ec;
  std::filesystem::resize_file(path, recovered.valid_bytes, ec);
  if (ec) {
    throw std::runtime_error("WalLog: cannot truncate '" + path +
                             "' to its valid prefix: " + ec.message());
  }
  out_.open(path, std::ios::binary | std::ios::app);
  if (!out_) {
    throw std::runtime_error("WalLog: cannot open '" + path +
                             "' for appending");
  }
}

void WalLog::append(RecordType type, std::string_view payload) {
  const std::uint64_t frame_bytes = framed_log::kFrameBytes + payload.size();
  static trace::Counter& records_counter =
      trace::MetricsRegistry::global().counter("wal.records");
  static trace::Counter& bytes_counter =
      trace::MetricsRegistry::global().counter("wal.bytes");
  records_counter.inc();
  bytes_counter.add(frame_bytes);
  trace::Span span(trace::EventKind::kWalAppend, /*tenant=*/0, /*epoch=*/0,
                   /*arg=*/static_cast<std::uint64_t>(type));
  span.value(frame_bytes);
  framed_log::append_frame(out_, static_cast<std::uint32_t>(type), payload);
  out_.flush();
  if (!out_) {
    throw std::runtime_error("WalLog: write failed on '" + path_ + "'");
  }
}

void WalLog::log_round(const RoundCheckpoint& round) {
  for (const auto& [tenant, cut] : round.cuts) {
    const std::uint64_t digest =
        telemetry_digest_accumulate(digests_.at(tenant), cut.summary);
    const auto index = static_cast<std::uint32_t>(tenant);
    std::vector<std::uint32_t>& logged = logged_paths_[tenant];
    if (deltas_ && !logged.empty() &&
        logged.size() == cut.client_paths.size()) {
      std::vector<PathChange> changes;
      for (std::size_t c = 0; c < logged.size(); ++c) {
        if (cut.client_paths[c] == logged[c]) continue;
        logged[c] = cut.client_paths[c];
        changes.push_back({static_cast<std::uint32_t>(c), logged[c]});
      }
      append(RecordType::kEpochDelta,
             encode_epoch_delta(index, cut, digest, changes));
    } else {
      append(RecordType::kEpochCut, encode_epoch_cut(index, cut, digest));
      if (deltas_) logged = cut.client_paths;
    }
    digests_[tenant] = digest;
  }
  RoundMark mark;
  mark.rounds = round.rounds;
  mark.credits.assign(round.credits.begin(), round.credits.end());
  append(RecordType::kRoundMark, encode_round_mark(mark));
  rounds_ = round.rounds;
}

void WalLog::finish() {
  append(RecordType::kTrailer, encode_trailer(digests_));
}

CutObserver WalLog::single_observer() {
  return [this](const EngineCheckpoint& cut) {
    log_round(RoundCheckpoint{rounds_ + 1, {0}, {{0, cut}}});
  };
}

RoundCutObserver WalLog::round_observer() {
  return [this](const RoundCheckpoint& round) { log_round(round); };
}

}  // namespace staleflow::recovery
