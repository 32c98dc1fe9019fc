// Reader for the Chrome trace files util/trace_writer.hpp writes, shared
// by the tests that check span nesting.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace scanc::test {

struct ParsedEvent {
  std::string name;
  std::uint64_t ts = 0;
  std::uint64_t dur = 0;
  unsigned tid = 0;
};

/// Parses the one-event-per-line complete events out of a trace file.
inline std::vector<ParsedEvent> parse_spans(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<ParsedEvent> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t name_at = line.find("\"name\":\"");
    if (name_at == std::string::npos ||
        line.find("\"ph\":\"X\"") == std::string::npos) {
      continue;
    }
    ParsedEvent e;
    const std::size_t name_start = name_at + 8;
    e.name = line.substr(name_start, line.find('"', name_start) - name_start);
    unsigned long long ts = 0;
    unsigned long long dur = 0;
    EXPECT_EQ(std::sscanf(line.c_str() + line.find("\"tid\":"),
                          "\"tid\":%u,\"ts\":%llu,\"dur\":%llu", &e.tid, &ts,
                          &dur),
              3)
        << line;
    e.ts = ts;
    e.dur = dur;
    out.push_back(std::move(e));
  }
  return out;
}

/// Expects any two spans of one thread to be disjoint or nested, which
/// is what keeps Perfetto's per-tid stacks well-formed.
inline void expect_well_nested(const std::vector<ParsedEvent>& spans) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      if (spans[i].tid != spans[j].tid) continue;
      const ParsedEvent& a = spans[i];
      const ParsedEvent& b = spans[j];
      const bool disjoint = a.ts + a.dur <= b.ts || b.ts + b.dur <= a.ts;
      const bool nested =
          (a.ts >= b.ts && a.ts + a.dur <= b.ts + b.dur) ||
          (b.ts >= a.ts && b.ts + b.dur <= a.ts + a.dur);
      EXPECT_TRUE(disjoint || nested)
          << a.name << "[" << a.ts << "," << a.ts + a.dur << ") vs "
          << b.name << "[" << b.ts << "," << b.ts + b.dur << ")";
    }
  }
}

}  // namespace scanc::test
