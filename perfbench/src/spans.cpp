#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

thread_local uint64_t t_current = 0;  // innermost open span on this thread

uint32_t thread_lane() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t lane = next.fetch_add(1);
  return lane;
}

/// Nanoseconds of [start, end) covered by the union of `kids`.
uint64_t covered(uint64_t start, uint64_t end,
                 std::vector<std::pair<uint64_t, uint64_t>>& kids) {
  std::sort(kids.begin(), kids.end());
  uint64_t total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (auto [s, e] : kids) {
    s = std::max(s, start);
    e = std::min(e, end);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_s;
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_s;
  return total;
}

std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> children(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> kids;
  for (const Span& s : spans)
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
  return kids;
}

}  // namespace

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SpanRecorder::add(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

uint64_t SpanRecorder::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string SpanRecorder::chrome_json() const {
  std::vector<Span> spans = this->spans();
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.tid != b.tid ? a.tid < b.tid : a.start_ns < b.start_ns;
  });
  uint64_t epoch = UINT64_MAX;
  for (const Span& s : spans) epoch = std::min(epoch, s.start_ns);
  std::string out = "{\"traceEvents\":[";
  char buf[320];
  bool first = true;
  for (const Span& s : spans) {
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%u,\"args\":{\"id\":%llu,"
                  "\"parent\":%llu,\"round\":%llu}}",
                  first ? "" : ",", s.name, s.layer,
                  static_cast<double>(s.start_ns - epoch) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.tid,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.round));
    out += buf;
    first = false;
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

bool SpanRecorder::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << chrome_json();
  return static_cast<bool>(f);
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, const char* layer, const char* name,
                       uint64_t round)
    : rec_(rec) {
  if (rec_ == nullptr) return;
  span_.id = rec_->next_id();
  span_.parent = t_current;
  span_.layer = layer;
  span_.name = name;
  span_.round = round;
  span_.tid = thread_lane();
  saved_parent_ = t_current;
  t_current = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (rec_ == nullptr) return;
  span_.end_ns = now_ns();
  t_current = saved_parent_;
  rec_->add(span_);
}

std::vector<SpanRow> span_rows(const std::vector<Span>& spans) {
  auto kids = children(spans);
  std::map<std::pair<std::string, std::string>, SpanRow> rows;
  for (const Span& s : spans) {
    SpanRow& r = rows[{s.layer, s.name}];
    r.layer = s.layer;
    r.name = s.name;
    const uint64_t dur = s.end_ns - s.start_ns;
    uint64_t cov = 0;
    if (auto it = kids.find(s.id); it != kids.end())
      cov = covered(s.start_ns, s.end_ns, it->second);
    ++r.count;
    r.busy_s += static_cast<double>(dur) / 1e9;
    r.self_s += static_cast<double>(dur - cov) / 1e9;
    r.durations_us.push_back(static_cast<double>(dur) / 1e3);
  }
  std::vector<SpanRow> out;
  out.reserve(rows.size());
  for (auto& [key, row] : rows) out.push_back(std::move(row));
  return out;
}

std::string span_table(const std::vector<SpanRow>& rows, double wall_s) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%-10s %-22s %9s %11s %11s %8s %8s\n", "layer",
                "span", "count", "busy_ms", "self_ms", "busy%", "self%");
  out += buf;
  for (const SpanRow& r : rows) {
    const double share = wall_s > 0 ? 100.0 * r.busy_s / wall_s : 0.0;
    const double self_share = wall_s > 0 ? 100.0 * r.self_s / wall_s : 0.0;
    std::snprintf(buf, sizeof(buf), "%-10s %-22s %9llu %11.3f %11.3f %7.2f%% %7.2f%%\n",
                  r.layer.c_str(), r.name.c_str(),
                  static_cast<unsigned long long>(r.count), r.busy_s * 1e3,
                  r.self_s * 1e3, share, self_share);
    out += buf;
  }
  return out;
}

}  // namespace perfbench
