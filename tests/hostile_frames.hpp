// Hostile distributed-protocol payloads for the decoder regression tests.
// Each site is a valid encoding plus the offset of one u32 element count
// in it, so a test can overwrite exactly that count (or cut the payload
// short) and expect only the targeted check to reject it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dist/protocol.hpp"
#include "runtime/serialize.hpp"

namespace idxl::hostile {

inline uint32_t read_u32(const std::vector<std::byte>& bytes, std::size_t at) {
  uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i)
    v |= static_cast<uint32_t>(bytes[at + i]) << (8 * i);
  return v;
}

inline std::vector<std::byte> with_u32(std::vector<std::byte> bytes, std::size_t at,
                                       uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) bytes[at + i] = static_cast<std::byte>(v >> (8 * i));
  return bytes;
}

/// One u32 element count inside a valid encoding.
struct CountSite {
  std::string what;
  std::vector<std::byte> bytes;
  std::size_t offset = 0;
  uint32_t count = 0;  ///< the value the valid encoding holds there
  std::function<void(const std::vector<std::byte>&)> decode;
};

// Wire sizes of the fixed prefixes the offsets below skip.
inline constexpr std::size_t kHeader = 5;       // magic + version
inline constexpr std::size_t kTraceCtx = 8 + 8 + 4;

inline dist::Route two_rect_route() {
  dist::Route r;
  r.src = 1;
  r.dest = 2;
  r.producer = RegionId{3};
  r.field = 0;
  r.rects = {Rect(Point::p2(0, 0), Point::p2(1, 7)), Rect(Point::p2(6, 0), Point::p2(7, 7))};
  r.launch = 42;
  return r;
}

inline std::vector<CountSite> route_sites() {
  const auto decode = [](const std::vector<std::byte>& b) { (void)dist::decode_routes(b); };
  const std::vector<std::byte> bytes = dist::encode_routes({two_rect_route()});
  return {
      {"route list", bytes, kHeader, 1, decode},
      // src, dest, producer, field precede the rect count.
      {"route rect list", bytes, kHeader + 4 + 16, 2, decode},
  };
}

inline std::vector<CountSite> region_data_sites() {
  dist::RegionData rd;
  rd.seq = 7;
  rd.dest = 2;
  RegionPatch patch;
  patch.rect = Rect(Point::p1(0), Point::p1(1));
  patch.bytes.resize(16);
  rd.patches.push_back(patch);
  const auto decode = [](const std::vector<std::byte>& b) { (void)dist::decode_region_data(b); };
  // seq, dest, sent_ns and the trace context precede the patch count.
  return {{"region-data patches", dist::encode_region_data(rd), kHeader + 8 + 4 + 8 + kTraceCtx,
           1, decode}};
}

inline std::vector<CountSite> setup_sites() {
  SetupOp op;
  op.kind = SetupOp::Kind::kIndexSpace;
  op.domain = Domain(Rect::box2(4, 4));
  op.color_space = Rect::box2(1, 1);
  op.color = Point::p2(0, 0);
  dist::Setup journal_only;
  journal_only.journal = {op};
  dist::Setup with_tasks = journal_only;
  with_tasks.tasks = {"idxl_dist_fill"};
  dist::Setup full = with_tasks;
  dist::Setup::Storage st;
  st.bytes.resize(8);
  full.storage = {st};
  const std::vector<std::byte> bytes = dist::encode_setup(full);
  // Offsets from the tail of shorter encodings: the task and storage counts
  // follow the journal, and an op ends with its subspace list, a
  // disjointness byte and a 2-D color point.
  const std::size_t journal_end = dist::encode_setup(journal_only).size() - 8;
  const std::size_t tasks_end = dist::encode_setup(with_tasks).size() - 4;
  const auto decode = [](const std::vector<std::byte>& b) { (void)dist::decode_setup(b); };
  return {
      {"setup journal", bytes, kHeader, 1, decode},
      {"setup subspaces", bytes, journal_end - 1 - (1 + 2 * 8) - 4, 0, decode},
      {"setup tasks", bytes, journal_end, 1, decode},
      {"setup storage", bytes, tasks_end, 1, decode},
  };
}

inline obs::MetricsSnapshot one_bucket_snapshot() {
  obs::SeriesSnapshot series;
  series.labels = {{"k", "v"}};
  series.buckets = {{100, 3}};
  obs::FamilySnapshot family;
  family.name = "f";
  family.help = "h";
  family.kind = obs::MetricKind::kHistogram;
  family.series = {series};
  obs::MetricsSnapshot m;
  m.families = {family};
  return m;
}

inline std::vector<CountSite> metrics_sites() {
  const std::vector<std::byte> bytes = dist::serialize_metrics_snapshot(one_bucket_snapshot());
  const auto decode = [](const std::vector<std::byte>& b) {
    (void)dist::deserialize_metrics_snapshot(b);
  };
  // taken_ns, then the family count; a family is name "f", help "h" and a
  // kind byte before its series count; the one bucket closes the payload.
  const std::size_t series_at = 8 + 4 + (4 + 1) + (4 + 1) + 1;
  return {
      {"metric families", bytes, 8, 1, decode},
      {"metric series", bytes, series_at, 1, decode},
      {"metric labels", bytes, series_at + 4, 1, decode},
      {"histogram buckets", bytes, bytes.size() - 16 - 4, 1, decode},
  };
}

inline std::vector<CountSite> telemetry_sites() {
  dist::Telemetry t;
  t.rank = 1;
  TaskSample sample;
  sample.seq = 1;
  sample.deps = {0};
  t.samples = {sample};
  obs::BlockedTask blocked;
  blocked.seq = 3;
  t.blocked = {blocked};
  t.pending_externals = {9};
  const std::vector<std::byte> bytes = dist::encode_telemetry(t);
  const auto decode = [](const std::vector<std::byte>& b) { (void)dist::decode_telemetry(b); };
  // rank, flavor and epoch precede the (empty) name and span lists; the
  // payload ends with one blocked task (no waits-for, empty label) and one
  // pending external.
  const std::size_t names_at = kHeader + 4 + 1 + 8;
  const std::size_t samples_at = names_at + 4 + 4;
  const std::size_t externals_at = bytes.size() - 8 - 4;
  const std::size_t waits_at = externals_at - 4;
  return {
      {"telemetry names", bytes, names_at, 0, decode},
      {"telemetry spans", bytes, names_at + 4, 0, decode},
      {"telemetry samples", bytes, samples_at, 1, decode},
      {"telemetry sample deps", bytes, samples_at + 4 + 8 + 8, 1, decode},
      {"telemetry events", bytes, samples_at + 4 + 8 + 8 + 4 + 8, 0, decode},
      {"telemetry blocked", bytes, waits_at - 4 - 8 - 8 - 4, 1, decode},
      {"telemetry waits-for", bytes, waits_at, 0, decode},
      {"telemetry externals", bytes, externals_at, 1, decode},
  };
}

/// Every count site of every hardened dist decoder.
inline std::vector<CountSite> dist_count_sites() {
  std::vector<CountSite> all;
  for (auto make : {route_sites, region_data_sites, setup_sites, metrics_sites, telemetry_sites})
    for (CountSite& s : make()) all.push_back(std::move(s));
  return all;
}

}  // namespace idxl::hostile
