#include "spans.hpp"

#include <cstdio>

#include "support/json.hpp"

namespace perfbench {

std::size_t SpanRecorder::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.workload = workload_;
  s.request = request_;
  s.parent = stack_.empty() ? -1 : static_cast<std::ptrdiff_t>(stack_.back());
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.size() - 1);
  // Stamp last, so the recorder's own bookkeeping stays outside the span.
  spans_.back().start = Clock::now();
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  spans_[index].end = Clock::now();
  stack_.pop_back();
}

std::vector<double> SpanRecorder::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.ms();
  }
  return self;
}

std::string SpanRecorder::chrome_json(const std::string& other) const {
  std::map<std::string, int> tids;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto [it, fresh] =
        tids.emplace(s.workload, static_cast<int>(tids.size()) + 1);
    if (fresh) {
      out += (i == 0 ? "" : ",");
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":%d,\"args\":{\"name\":",
                    it->second);
      out += buf;
      out += '"';
      out += hls::json_escape(s.workload);
      out += "\"}},";
    } else {
      out += ",";
    }
    std::snprintf(buf, sizeof buf,
                  "\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span_id\":%zu,"
                  "\"parent\":%td,\"request\":%llu",
                  s.layer().c_str(), it->second,
                  ms_between(origin, s.start) * 1000.0, s.ms() * 1000.0, i,
                  s.parent, static_cast<unsigned long long>(s.request));
    out += "{\"name\":\"";
    out += hls::json_escape(s.name);
    out += buf;
    if (s.hit >= 0) out += s.hit ? ",\"hit\":true" : ",\"hit\":false";
    out += "}}";
  }
  return out + "],\"otherData\":" + other + "}";
}

} // namespace perfbench
