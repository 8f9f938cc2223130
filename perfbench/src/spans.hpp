#pragma once

// The benchmark's own span recorder. Spans are recorded around the
// benchmark's calls into each layer (never inside the program), kept in
// memory, and written out at exit as a Chrome trace. A thread-local stack
// links each span to the span that caused it.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

uint64_t now_ns();  ///< steady clock

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  const char* layer = "";  ///< the repo module the call enters (static string)
  const char* name = "";   ///< static string
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t round = 0;    ///< closed-loop round (step) the span belongs to
  uint32_t tid = 0;      ///< small per-thread id
};

class SpanRecorder {
 public:
  void add(const Span& s);
  uint64_t next_id();
  std::vector<Span> spans() const;
  /// Chrome trace JSON ("traceEvents", complete events, ts/dur in µs),
  /// sorted by lane then start so ts is monotone per tid.
  std::string chrome_json() const;
  /// chrome_json() into `path`; false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mu_;  // guards spans_ and next_id_
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// RAII span. A null recorder makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* layer, const char* name,
             uint64_t round = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  Span span_;
  uint64_t saved_parent_ = 0;
};

/// One row of the per-layer table: all spans of one (layer, name).
struct SpanRow {
  std::string layer;
  std::string name;
  uint64_t count = 0;
  double busy_s = 0.0;  ///< sum of span durations
  double self_s = 0.0;  ///< busy minus the part child spans cover
  std::vector<double> durations_us;
};

/// Self time of each span: its duration minus the union of its children's
/// intervals clipped to it. Rows are sorted by layer, then name.
std::vector<SpanRow> span_rows(const std::vector<Span>& spans);

/// The table: count, busy, self and share of `wall_s` per row.
std::string span_table(const std::vector<SpanRow>& rows, double wall_s);

}  // namespace perfbench
