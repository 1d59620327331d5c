#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

std::vector<double> Tracer::SelfMicros() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = spans_[i].start_ns;
    for (const auto& [start, end] : kids) {
      const int64_t from = std::max(start, reach);
      const int64_t to = std::min(end, spans_[i].end_ns);
      if (to > from) covered += to - from;
      reach = std::max(reach, end);
    }
    self[i] = static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                                  covered) / 1e3;
  }
  return self;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.micros());
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = SelfMicros();
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\": %zu, \"name\": \"%s\", \"request\": %d, "
                 "\"parent\": %d, \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"self_us\": %.3f}\n",
                 i, s.name, s.request, s.parent,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - origin) / 1e3, self[i]);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
