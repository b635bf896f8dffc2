#include "harness/report.h"

#include <cinttypes>
#include <cstdio>

#include "common/env.h"

namespace bohm {

Report::Report(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Report::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

std::string Report::FormatTput(double txns_per_sec) {
  char buf[32];
  if (txns_per_sec >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fM", txns_per_sec / 1e6);
  } else if (txns_per_sec >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.1fK", txns_per_sec / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f", txns_per_sec);
  }
  return buf;
}

std::string Report::FormatDouble(double v, int precision) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

void Report::Print() const {
  std::vector<size_t> widths(columns_.size(), 0);
  for (size_t c = 0; c < columns_.size(); ++c) widths[c] = columns_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      if (row[c].size() > widths[c]) widths[c] = row[c].size();
    }
  }

  std::printf("\n== %s ==\n", title_.c_str());
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%-*s  ", static_cast<int>(widths[c]), columns_[c].c_str());
  }
  std::printf("\n");
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%s  ", std::string(widths[c], '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

namespace {

/// Minimal JSON string escaping for the label/parameter strings the
/// benches emit (quotes, backslashes, control characters).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

JsonReport::JsonReport(std::string figure)
    : figure_(std::move(figure)), path_(EnvStr("BOHM_BENCH_JSON", "")) {}

void JsonReport::AddPoint(Params params, const std::string& system,
                          const BenchResult& r) {
  if (!enabled()) return;
  points_.push_back(Point{std::move(params), system, r});
}

void JsonReport::Write() const {
  if (!enabled()) return;
  FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "JsonReport: cannot open %s for writing\n",
                 path_.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"figure\": \"%s\",\n  \"points\": [\n",
               JsonEscape(figure_).c_str());
  for (size_t i = 0; i < points_.size(); ++i) {
    const Point& p = points_[i];
    const BenchResult& r = p.result;
    // One point per line, keys in a fixed order, so line-oriented tools
    // (the bench_smoke checker) can assert on fields without a parser.
    std::fprintf(f, "    {\"system\": \"%s\"", JsonEscape(p.system).c_str());
    for (const auto& [k, v] : p.params) {
      std::fprintf(f, ", \"%s\": \"%s\"", JsonEscape(k).c_str(),
                   JsonEscape(v).c_str());
    }
    std::fprintf(f,
                 ", \"seconds\": %.6f, \"tput_txns_per_sec\": %.1f"
                 ", \"abort_rate\": %.6f, \"lat_count\": %" PRIu64
                 ", \"lat_mean_us\": %.3f, \"p50_us\": %" PRIu64
                 ", \"p99_us\": %" PRIu64 ", \"p999_us\": %" PRIu64
                 ", \"max_us\": %" PRIu64,
                 r.seconds, r.Throughput(), r.AbortRate(),
                 r.latency_us.count(), r.latency_us.Mean(), r.P50Us(),
                 r.P99Us(), r.P999Us(), r.latency_us.max());
    for (const StatField& field : kStatFields) {
      std::fprintf(f, ", \"%s\": %s", field.key, field.Format(r).c_str());
    }
    std::fprintf(f, "}%s\n", i + 1 < points_.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("JSON written to %s (%zu points)\n", path_.c_str(),
              points_.size());
}

}  // namespace bohm
