#include "trace.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "common/json.hpp"

namespace colbench {

namespace {

double seconds(Tracer::Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

int Tracer::begin(std::string name, int parent, std::int64_t request) {
  const auto now = Clock::now();
  return add(std::move(name), now, now, parent, request);
}

void Tracer::end(int id) {
  const auto now = Clock::now();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

int Tracer::add(std::string name, Clock::time_point start,
                Clock::time_point end, int parent, std::int64_t request) {
  std::lock_guard lock(mu_);
  spans_.push_back(Span{std::move(name), start, end, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Tracer::Summary> Tracer::summarize() const {
  std::lock_guard lock(mu_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, Summary> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (std::size_t c : children[i]) {
      cover.emplace_back(std::max(spans_[c].start, s.start),
                         std::min(spans_[c].end, s.end));
    }
    std::sort(cover.begin(), cover.end());
    Clock::duration covered{0};
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : cover) {
      const auto from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    Summary& sum = by_name[s.name];
    sum.name = s.name;
    ++sum.count;
    sum.total_s += seconds(s.end - s.start);
    sum.self_s += seconds(s.end - s.start - covered);
  }
  std::vector<Summary> out;
  for (auto& [name, sum] : by_name) out.push_back(sum);
  return out;
}

std::string Tracer::to_json() const {
  namespace json = columbia::common::json;
  const auto summary = summarize();
  std::ostringstream os;
  os << "{\"summary\": [";
  for (std::size_t i = 0; i < summary.size(); ++i) {
    const auto& s = summary[i];
    os << (i ? ",\n  " : "\n  ") << "{\"name\": " << json::quote(s.name)
       << ", \"count\": " << s.count
       << ", \"total_s\": " << json::number_to_string(s.total_s)
       << ", \"self_s\": " << json::number_to_string(s.self_s) << "}";
  }
  os << "],\n\"spans\": [";
  std::lock_guard lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n  " : "\n  ") << "{\"id\": " << i
       << ", \"name\": " << json::quote(s.name)
       << ", \"start\": " << json::number_to_string(seconds(s.start - origin_))
       << ", \"end\": " << json::number_to_string(seconds(s.end - origin_))
       << ", \"parent\": " << s.parent << ", \"request\": " << s.request
       << "}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace colbench
