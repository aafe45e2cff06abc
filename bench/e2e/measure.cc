#include "measure.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string_view>

namespace turboflux {
namespace e2e {

namespace {
constexpr size_t kChromeSpansPerName = 20000;
}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  const size_t k = std::min(
      v.size() - 1, static_cast<size_t>(p * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

std::string ProcStatusField(int pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  const size_t len = std::strlen(field);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return line.substr(len + 1);
    }
  }
  return "";
}

double PeakRssMb(int pid) {
  return std::atof(ProcStatusField(pid, "VmHWM").c_str()) / 1024.0;  // kB
}

bool RestartPeakRss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // resets VmHWM (proc(5), clear_refs)
  return static_cast<bool>(clear.flush());
}

void Tracer::Begin(const char* name, uint64_t request) {
  const int64_t parent =
      stack_.empty() ? -1 : static_cast<int64_t>(stack_.back());
  spans_.push_back(Span{name, NowNs(), 0, parent, request});
  stack_.push_back(spans_.size() - 1);
}

void Tracer::End() {
  spans_[stack_.back()].end_ns = NowNs();
  stack_.pop_back();
}

std::vector<int64_t> Tracer::SelfNs() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  return self;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  std::map<std::string_view, size_t> written;
  bool first = true;
  for (const Span& s : spans_) {
    if (++written[s.name] > kChromeSpansPerName) continue;
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                  "\"parent\":%lld}}",
                  first ? "" : ",", s.name,
                  static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.request),
                  static_cast<long long>(s.parent));
    out << buf;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

double SpanCostNs() {
  constexpr int kSpans = 100000;
  Tracer tracer;
  const int64_t t0 = NowNs();
  for (int i = 0; i < kSpans; ++i) ScopedSpan s(tracer, "calibrate", 0);
  return static_cast<double>(NowNs() - t0) / kSpans;
}

}  // namespace e2e
}  // namespace turboflux
