// Helpers shared by the benchmark harness and its self-test: percentile
// selection, an order-independent row hash, a minimal JSON reader for the
// endpoint's responses, the live-store epoch model that oracles
// live-mixed reads, and in-memory spans with per-layer self time.
//
// Everything here is plain data manipulation — no engine calls — so the
// self-test (selftest.cpp) can pin its behaviour on hand-made inputs.
#pragma once

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles.
// ---------------------------------------------------------------------------

/// Nearest-rank index of quantile `q` in a sorted sample of size `n`
/// (ceil(q * n) - 1, clamped to [0, n - 1]).
inline size_t NearestRankIndex(size_t n, double q) {
  if (n == 0) return 0;
  double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(idx, n - 1);
}

/// The tail quantile a sample of `n` supports: 0.99, or lower so that at
/// least ten samples lie beyond the selected rank. Below eleven samples no
/// quantile qualifies and the maximum (q = 1) is used.
inline double TailQuantile(size_t n) {
  if (n < 11) return 1.0;
  return std::min(0.99, static_cast<double>(n - 10) / static_cast<double>(n));
}

struct Percentiles {
  size_t n = 0;
  double p50 = 0;
  double tail = 0;      ///< value at tail_q
  double tail_q = 0;    ///< the quantile `tail` was taken at (0.99 when n allows)
  double mean = 0;
};

inline Percentiles Summarize(std::vector<double> v) {
  Percentiles p;
  p.n = v.size();
  if (v.empty()) return p;
  std::sort(v.begin(), v.end());
  p.p50 = v[NearestRankIndex(v.size(), 0.5)];
  p.tail_q = TailQuantile(v.size());
  p.tail = v[NearestRankIndex(v.size(), p.tail_q)];
  double sum = 0;
  for (double x : v) sum += x;
  p.mean = sum / static_cast<double>(v.size());
  return p;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[NearestRankIndex(v.size(), 0.5)];
}

/// One request latency of a timed window, with its completion time.
struct TimedSample {
  int64_t end_ns = 0;
  double ms = 0;
};

/// The VM's CPU counters (/proc/stat over all vCPUs, in clock ticks) at
/// `at_ns`: `busy` is time spent running anything, `steal` time a vCPU was
/// runnable while the host ran another tenant instead.
struct CpuMark {
  int64_t at_ns = 0;
  uint64_t busy = 0;
  uint64_t steal = 0;
};

/// A timed window's read figures, taken over its quiet intervals: those
/// between consecutive marks in which the host stole at most `max_steal` of
/// the time the vCPUs were runnable (busy + steal). On a shared VM, steal
/// comes in bursts of seconds to minutes and multiplies a run's tail while
/// it lasts; a slower program is slower in every interval. When under a
/// third of the window is quiet, every interval counts.
struct QuietSummary {
  Percentiles lat;
  double qps = 0;
  double seconds = 0;        ///< the whole window
  double quiet_seconds = 0;  ///< the part the figures cover
};

inline QuietSummary SummarizeQuiet(const std::vector<TimedSample>& samples,
                                   const std::vector<CpuMark>& marks, double max_steal) {
  QuietSummary q;
  const size_t n = marks.size() < 2 ? 0 : marks.size() - 1;
  std::vector<bool> quiet(std::max<size_t>(n, 1), true);
  double total_ns = 0, quiet_ns = 0;
  for (size_t k = 0; k < n; ++k) {
    const double busy = static_cast<double>(marks[k + 1].busy - marks[k].busy);
    const double steal = static_cast<double>(marks[k + 1].steal - marks[k].steal);
    const double ns = static_cast<double>(marks[k + 1].at_ns - marks[k].at_ns);
    quiet[k] = busy + steal == 0 || steal <= max_steal * (busy + steal);
    total_ns += ns;
    if (quiet[k]) quiet_ns += ns;
  }
  if (quiet_ns < total_ns / 3) {
    quiet.assign(quiet.size(), true);
    quiet_ns = total_ns;
  }
  std::vector<double> kept;
  for (const TimedSample& s : samples) {
    // The interval the request completed in; the edges take the stragglers.
    size_t k = 0;
    while (k + 1 < n && marks[k + 1].at_ns <= s.end_ns) ++k;
    if (quiet[k]) kept.push_back(s.ms);
  }
  q.lat = Summarize(std::move(kept));
  q.seconds = total_ns / 1e9;
  q.quiet_seconds = quiet_ns / 1e9;
  q.qps = quiet_ns > 0 ? static_cast<double>(q.lat.n) / q.quiet_seconds : 0;
  return q;
}

// ---------------------------------------------------------------------------
// Row hashing: a multiset hash over rows of canonical (N-Triples) cells.
// ---------------------------------------------------------------------------

inline uint64_t Fnv1a(std::string_view s, uint64_t h = 1469598103934665603ULL) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Hash of one row: cells in column order, each terminated by a separator
/// byte no N-Triples term contains unescaped.
inline uint64_t RowHash(const std::vector<std::string>& cells) {
  uint64_t h = 1469598103934665603ULL;
  for (const std::string& c : cells) {
    h = Fnv1a(c, h);
    h = Fnv1a("\x1f", h);
  }
  return Mix64(h);
}

/// Order-independent digest of a row multiset: the count and the wrapping
/// sum of row hashes (a sum, not an xor, so duplicated rows still count).
struct RowDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  void Add(uint64_t row_hash) {
    ++rows;
    sum += row_hash;
  }
  bool operator==(const RowDigest& o) const { return rows == o.rows && sum == o.sum; }
};

// ---------------------------------------------------------------------------
// Minimal JSON reader (objects, arrays, strings, numbers, literals) for the
// endpoint's SPARQL-results and /update bodies.
// ---------------------------------------------------------------------------

struct Json {
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  const Json* Get(std::string_view key) const {
    for (const auto& [k, v] : members)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : s_(text) {}

  /// Parses one value spanning the whole input (trailing whitespace allowed).
  bool Parse(Json* out) {
    if (!Value(out, 0)) return false;
    Ws();
    return i_ == s_.size();
  }

 private:
  void Ws() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\r' ||
                              s_[i_] == '\t'))
      ++i_;
  }
  bool Lit(std::string_view w) {
    if (s_.substr(i_, w.size()) != w) return false;
    i_ += w.size();
    return true;
  }
  static void PutUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }
  bool String(std::string* out) {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size()) {
      char c = s_[i_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (i_ >= s_.size()) return false;
      char e = s_[i_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (i_ + 4 > s_.size()) return false;
          uint32_t cp = 0;
          for (int k = 0; k < 4; ++k) {
            char h = s_[i_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<uint32_t>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<uint32_t>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<uint32_t>(h - 'A' + 10);
            else return false;
          }
          PutUtf8(cp, out);
          break;
        }
        default: return false;
      }
    }
    return false;
  }
  bool Value(Json* out, int depth) {
    if (depth > 64) return false;
    Ws();
    if (i_ >= s_.size()) return false;
    char c = s_[i_];
    if (c == '{') {
      ++i_;
      out->kind = Json::Kind::kObject;
      Ws();
      if (i_ < s_.size() && s_[i_] == '}') return ++i_, true;
      for (;;) {
        Ws();
        std::string key;
        if (!String(&key)) return false;
        Ws();
        if (i_ >= s_.size() || s_[i_++] != ':') return false;
        out->members.emplace_back(std::move(key), Json{});
        if (!Value(&out->members.back().second, depth + 1)) return false;
        Ws();
        if (i_ >= s_.size()) return false;
        if (s_[i_] == ',') { ++i_; continue; }
        if (s_[i_] == '}') return ++i_, true;
        return false;
      }
    }
    if (c == '[') {
      ++i_;
      out->kind = Json::Kind::kArray;
      Ws();
      if (i_ < s_.size() && s_[i_] == ']') return ++i_, true;
      for (;;) {
        out->items.emplace_back();
        if (!Value(&out->items.back(), depth + 1)) return false;
        Ws();
        if (i_ >= s_.size()) return false;
        if (s_[i_] == ',') { ++i_; continue; }
        if (s_[i_] == ']') return ++i_, true;
        return false;
      }
    }
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return String(&out->str);
    }
    if (Lit("true")) { out->kind = Json::Kind::kBool; out->b = true; return true; }
    if (Lit("false")) { out->kind = Json::Kind::kBool; return true; }
    if (Lit("null")) return true;
    size_t start = i_;
    while (i_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                              s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.' ||
                              s_[i_] == 'e' || s_[i_] == 'E'))
      ++i_;
    if (i_ == start) return false;
    out->kind = Json::Kind::kNumber;
    out->num = std::strtod(std::string(s_.substr(start, i_ - start)).c_str(), nullptr);
    return true;
  }

  std::string_view s_;
  size_t i_ = 0;
};

// ---------------------------------------------------------------------------
// Epoch model for live-mixed: the benchmark's own account of what a live
// store holds at each epoch, following LiveStore's documented contract
// (set semantics; within a request DELETE DATA applies before INSERT DATA;
// inference is not incremental, so the model tracks only the explicit
// takesCourse edges and GraduateStudent types the reads ask about).
// ---------------------------------------------------------------------------

class EpochModel {
 public:
  void AddBaseTakes(const std::string& student, const std::string& course) {
    base_courses_[student].insert(course);
    base_takers_[course].insert(student);
  }
  void AddBaseGrad(const std::string& student) { base_grads_.insert(student); }

  /// One update batch, applied at `epoch` (epochs must arrive increasing).
  struct Batch {
    std::vector<std::pair<std::string, std::string>> delete_takes;
    std::vector<std::pair<std::string, std::string>> insert_takes;
    std::vector<std::string> insert_grads;
  };
  bool Record(uint64_t epoch, const Batch& b) {
    if (any_ && epoch <= last_epoch_) return false;
    any_ = true;
    last_epoch_ = epoch;
    for (const auto& [s, c] : b.delete_takes) {
      by_student_[s].push_back({epoch, false, c});
      by_course_[c].push_back({epoch, false, s});
    }
    for (const auto& [s, c] : b.insert_takes) {
      by_student_[s].push_back({epoch, true, c});
      by_course_[c].push_back({epoch, true, s});
    }
    for (const std::string& s : b.insert_grads)
      grad_events_[s].push_back({epoch, true, {}});
    return true;
  }

  /// Courses `student` takes at `epoch`.
  std::set<std::string> CoursesOf(const std::string& student, uint64_t epoch) const {
    std::set<std::string> out;
    if (auto it = base_courses_.find(student); it != base_courses_.end())
      out = it->second;
    if (auto it = by_student_.find(student); it != by_student_.end())
      Apply(it->second, epoch, &out);
    return out;
  }

  /// GraduateStudents taking `course` at `epoch`.
  std::set<std::string> GradsTaking(const std::string& course, uint64_t epoch) const {
    std::set<std::string> takers;
    if (auto it = base_takers_.find(course); it != base_takers_.end())
      takers = it->second;
    if (auto it = by_course_.find(course); it != by_course_.end())
      Apply(it->second, epoch, &takers);
    std::set<std::string> out;
    for (const std::string& s : takers)
      if (IsGrad(s, epoch)) out.insert(s);
    return out;
  }

  bool IsGrad(const std::string& s, uint64_t epoch) const {
    bool grad = base_grads_.count(s) > 0;
    if (auto it = grad_events_.find(s); it != grad_events_.end())
      for (const Event& e : it->second)
        if (e.epoch <= epoch) grad = e.insert;
    return grad;
  }

  const std::map<std::string, std::set<std::string>>& base_courses() const {
    return base_courses_;
  }

 private:
  struct Event {
    uint64_t epoch;
    bool insert;
    std::string other;
  };
  static void Apply(const std::vector<Event>& events, uint64_t epoch,
                    std::set<std::string>* set) {
    for (const Event& e : events) {
      if (e.epoch > epoch) break;  // recorded in epoch order
      if (e.insert) set->insert(e.other);
      else set->erase(e.other);
    }
  }

  std::map<std::string, std::set<std::string>> base_courses_;
  std::map<std::string, std::set<std::string>> base_takers_;
  std::set<std::string> base_grads_;
  std::unordered_map<std::string, std::vector<Event>> by_student_;
  std::unordered_map<std::string, std::vector<Event>> by_course_;
  std::unordered_map<std::string, std::vector<Event>> grad_events_;
  uint64_t last_epoch_ = 0;
  bool any_ = false;
};

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent span, request id. Kept in memory and
// written when the run ends; a layer's self time is its spans' durations
// minus the part of each interval its child spans cover.
// ---------------------------------------------------------------------------

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint32_t name = 0;     ///< index into Tracer::names()
  uint32_t parent = 0;   ///< span index + 1; 0 = root
  uint64_t request = 0;  ///< request id shared by one request's spans
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  uint32_t NameId(const std::string& name) {
    auto [it, fresh] = ids_.emplace(name, static_cast<uint32_t>(names_.size()));
    if (fresh) names_.push_back(name);
    return it->second;
  }
  /// Opens a span; returns its handle (index + 1, usable as a parent).
  uint32_t Begin(uint32_t name, uint32_t parent, uint64_t request) {
    spans_.push_back({name, parent, request, NowNs(), 0});
    return static_cast<uint32_t>(spans_.size());
  }
  void End(uint32_t handle) { spans_[handle - 1].end_ns = NowNs(); }
  /// Records a span whose interval was measured elsewhere.
  uint32_t Add(uint32_t name, uint32_t parent, uint64_t request, int64_t start_ns,
               int64_t end_ns) {
    spans_.push_back({name, parent, request, start_ns, end_ns});
    return static_cast<uint32_t>(spans_.size());
  }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

 private:
  std::unordered_map<std::string, uint32_t> ids_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to its own interval.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent > 0 && s.parent <= spans.size())
      kids[s.parent - 1].emplace_back(s.start_ns, s.end_ns);
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0, cur_b = 0, cur_e = 0;
    bool open = false;
    for (auto [b, e] : iv) {
      b = std::max(b, p.start_ns);
      e = std::min(e, p.end_ns);
      if (e <= b) continue;
      if (open && b <= cur_e) {
        cur_e = std::max(cur_e, e);
      } else {
        if (open) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
        open = true;
      }
    }
    if (open) covered += cur_e - cur_b;
    self[i] = (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

/// A span name's layer: the text before its first '.' ("sparql.open" →
/// "sparql"); a name without a dot is its own layer.
inline std::string LayerOf(const std::string& name) {
  size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

struct LayerSelfTime {
  double ms = 0;          ///< total self time of the layer's spans
  size_t requests = 0;    ///< distinct request ids with spans in the layer
};

/// Self time per layer, with the number of requests it was spent on.
inline std::map<std::string, LayerSelfTime> SelfTimeByLayer(const Tracer& t) {
  std::vector<int64_t> self = SelfTimes(t.spans());
  std::map<std::string, std::set<uint64_t>> ids;
  std::map<std::string, LayerSelfTime> out;
  for (size_t i = 0; i < self.size(); ++i) {
    std::string layer = LayerOf(t.names()[t.spans()[i].name]);
    out[layer].ms += static_cast<double>(self[i]) / 1e6;
    ids[layer].insert(t.spans()[i].request);
  }
  for (auto& [layer, v] : out) v.requests = ids[layer].size();
  return out;
}

}  // namespace perfbench
