// Clocks, statistics, the result report and the span recorder.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <numeric>

#include "bench.h"

namespace pb {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

// --- report ---------------------------------------------------------------

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_[name] = {value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_[name] = {value, unit};
}

void Report::op(const std::string& what, const std::string& error) {
  ++attempted_;
  if (error.empty()) return;
  ++failed_;
  if (failed_ <= 10) {
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", what.c_str(),
                 error.c_str());
  }
}

namespace {

std::string metrics_json(const std::map<std::string, std::pair<double, std::string>>& m) {
  std::string out = "{";
  char buf[64];
  bool first = true;
  for (const auto& [name, vu] : m) {
    std::snprintf(buf, sizeof buf, "%.9g", vu.first);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  return out + "}";
}

}  // namespace

void Report::print(bool trace) const {
  const auto flat = [](const std::map<std::string, Value>& src) {
    std::map<std::string, std::pair<double, std::string>> m;
    for (const auto& [k, v] : src) m[k] = {v.value, v.unit};
    return m;
  };
  if (trace) {
    // Same run's end-to-end figures, for the traced-minus-untraced
    // overhead; not the result line.
    std::printf("# traced-e2e %s\n", metrics_json(flat(e2e_)).c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed_ == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              metrics_json(flat(trace ? layer_ : e2e_)).c_str());
  std::fflush(stdout);
}

// --- recorder -------------------------------------------------------------

namespace {

std::mutex g_mu;
thread_local std::vector<int> t_stack;
thread_local int t_tid = -1;
int g_next_tid = 0;

}  // namespace

Recorder& Recorder::get() {
  static Recorder r;
  return r;
}

int Recorder::begin(const char* name, std::uint64_t query_id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lk(g_mu);
  if (t_tid < 0) t_tid = g_next_tid++;
  const int parent = t_stack.empty() ? -1 : t_stack.back();
  spans_.push_back({name, t, t, parent, t_tid, query_id});
  const int id = static_cast<int>(spans_.size() - 1);
  t_stack.push_back(id);
  return id;
}

void Recorder::end(int id) {
  const double t = now_s();
  std::lock_guard<std::mutex> lk(g_mu);
  spans_[static_cast<std::size_t>(id)].end = t;
  if (!t_stack.empty() && t_stack.back() == id) t_stack.pop_back();
}

double Recorder::self_seconds(const std::string& name,
                              std::size_t* count) const {
  std::lock_guard<std::mutex> lk(g_mu);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  double total = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    total += (spans_[i].end - spans_[i].start) - child[i];
    ++n;
  }
  if (count != nullptr) *count = n;
  return total;
}

double Recorder::mean_self_ms(const std::string& name) const {
  std::size_t n = 0;
  const double s = self_seconds(name, &n);
  return n == 0 ? 0.0 : s * 1e3 / static_cast<double>(n);
}

void Recorder::write_chrome_trace(const std::string& path,
                                  const std::string& stamp_json) const {
  std::lock_guard<std::mutex> lk(g_mu);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
    return;
  }
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  out << "{\"otherData\": " << stamp_json << ",\n\"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"span\": %zu, \"parent\": %d, \"query\": %llu}}",
                  i == 0 ? "" : ",\n", s.name, s.tid, (s.start - t0) * 1e6,
                  (s.end - s.start) * 1e6, i, s.parent,
                  static_cast<unsigned long long>(s.query_id));
    out << buf;
  }
  out << "\n]}\n";
}

}  // namespace pb
