#include "perfbench/spans.h"

#include <algorithm>
#include <utility>

#include "util/string_util.h"

namespace pgm::perfbench {
namespace {

// Self time of `span` given its children.
double SelfOf(const std::vector<Span>& spans, const Span& span,
              const std::vector<int>& children) {
  double program = 0.0;
  std::vector<std::pair<double, double>> intervals;
  for (int child : children) {
    const Span& c = spans[static_cast<std::size_t>(child)];
    if (c.program) {
      program += c.seconds;
    } else {
      intervals.emplace_back(c.start_s, c.end_s);
    }
  }
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double open = 0.0;
  double close = -1.0;
  for (const auto& [start, end] : intervals) {
    if (start > close) {
      if (close > open) covered += close - open;
      open = start;
    }
    close = std::max(close, end);
  }
  if (close > open) covered += close - open;
  return span.seconds - std::min(span.seconds, covered + program);
}

std::string Number(double value) { return StrFormat("%.9g", value); }

}  // namespace

int SpanRecorder::Begin(const std::string& name, int parent, int run) {
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.run = run;
  span.name = name;
  span.start_s = clock_.ElapsedSeconds();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_s = clock_.ElapsedSeconds();
  span.seconds = span.end_s - span.start_s;
}

int SpanRecorder::AddProgram(const std::string& name, int parent, int run,
                             double seconds) {
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = parent;
  span.run = run;
  span.name = name;
  span.seconds = seconds;
  span.program = true;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::string SpanRecorder::ToJson() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].push_back(span.id);
    }
  }
  std::string json = "{\"spans\": [\n";
  for (const Span& span : spans_) {
    const std::size_t i = static_cast<std::size_t>(span.id);
    json += StrFormat(
        "{\"id\": %d, \"parent\": %d, \"run\": %d, \"name\": \"%s\", "
        "\"source\": \"%s\", ",
        span.id, span.parent, span.run, span.name.c_str(),
        span.program ? "program" : "bench");
    if (!span.program) {
      json += "\"start_s\": " + Number(span.start_s) +
              ", \"end_s\": " + Number(span.end_s) + ", ";
    }
    json += "\"seconds\": " + Number(span.seconds) + ", \"self_s\": " +
            Number(SelfOf(spans_, span, children[i])) + "}";
    json += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  json += "]}\n";
  return json;
}

}  // namespace pgm::perfbench
