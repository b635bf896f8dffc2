#include "harness/report.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

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

std::string FormatFixed(const char* fmt, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

Params PointFields(const BenchResult& r) {
  Params out = {
      {"seconds", FormatFixed("%.6f", r.seconds)},
      {"tput_txns_per_sec", FormatFixed("%.1f", r.Throughput())},
      {"abort_rate", FormatFixed("%.6f", r.AbortRate())},
      {"lat_count", std::to_string(r.latency_us.count())},
      {"lat_mean_us", FormatFixed("%.3f", r.latency_us.Mean())},
      {"p50_us", std::to_string(r.P50Us())},
      {"p99_us", std::to_string(r.P99Us())},
      {"p999_us", std::to_string(r.P999Us())},
      {"max_us", std::to_string(r.latency_us.max())}};
  for (const StatField& field : kStatFields) {
    out.emplace_back(field.key, field.Format(r));
  }
  return out;
}

bool JsonReport::Write(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp);
  out << "{\n  \"figure\": \"" << JsonEscape(figure)
      << "\",\n  \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    // One point per line, keys in a fixed order, so line-oriented tools
    // can assert on fields without a parser.
    out << "    {\"system\": \"" << JsonEscape(points[i].system) << '"';
    for (const auto& [k, v] : points[i].params) {
      out << ", \"" << JsonEscape(k) << "\": \"" << JsonEscape(v) << '"';
    }
    for (const auto& [k, v] : PointFields(points[i].result)) {
      out << ", \"" << k << "\": " << v;
    }
    out << '}' << (i + 1 < points.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
  out.close();  // a failed open, write or flush leaves `out` failed
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "JsonReport: cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    std::remove(tmp.c_str());
    return false;
  }
  std::printf("JSON written to %s (%zu points)\n", path.c_str(),
              points.size());
  return true;
}

}  // namespace bohm
