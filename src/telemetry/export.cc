#include "src/telemetry/export.h"

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <map>
#include <vector>

#include "src/util/units.h"

namespace cxl::telemetry {

namespace {

// One buffered writer for every exporter: tokens append to a single string
// that reaches the stream in ~64 KiB os.write chunks, not one operator<< per
// fragment. Strings append verbatim, integers in decimal and doubles as JSON
// numbers (AppendJsonNumber); Quoted appends a JSON string literal. The
// destructor writes the tail; a failed write sets the stream's state, which
// callers check as they did with operator<<.
class BufferedWriter {
 public:
  struct Quoted {
    std::string_view s;
  };

  explicit BufferedWriter(std::ostream& os) : os_(os) { buf_.reserve(2 * kChunkBytes); }
  BufferedWriter(const BufferedWriter&) = delete;
  BufferedWriter& operator=(const BufferedWriter&) = delete;
  ~BufferedWriter() { Flush(); }

  BufferedWriter& operator<<(std::string_view s) {
    buf_.append(s);
    return Chunk();
  }
  BufferedWriter& operator<<(char c) {
    buf_.push_back(c);
    return Chunk();
  }
  BufferedWriter& operator<<(double v) {
    AppendJsonNumber(buf_, v);
    return Chunk();
  }
  template <std::integral T>
  BufferedWriter& operator<<(T v) {
    char digits[24];
    buf_.append(digits, std::to_chars(digits, digits + sizeof(digits), v).ptr);
    return Chunk();
  }
  BufferedWriter& operator<<(Quoted q) {
    buf_.push_back('"');
    AppendJsonEscaped(buf_, q.s);
    buf_.push_back('"');
    return Chunk();
  }

 private:
  static constexpr size_t kChunkBytes = 64 * kKiB;

  BufferedWriter& Chunk() {
    if (buf_.size() >= kChunkBytes) {
      Flush();
    }
    return *this;
  }
  void Flush() {
    os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
  }

  std::ostream& os_;
  std::string buf_;
};

using Quoted = BufferedWriter::Quoted;

void WriteHistogramJson(BufferedWriter& out, const Histogram& h) {
  out << "{\"count\":" << h.count() << ",\"mean\":" << h.mean() << ",\"min\":" << h.min()
      << ",\"max\":" << h.max() << ",\"p50\":" << h.p50() << ",\"p90\":" << h.p90()
      << ",\"p95\":" << h.p95() << ",\"p99\":" << h.p99() << ",\"p999\":" << h.p999() << '}';
}

}  // namespace

void AppendJsonNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out.push_back('0');
    return;
  }
  // %.12g needs at most 19 characters: sign, 12 digits, point, "e-308".
  char buf[32];
  // Whole numbers below 1e12 print as plain integers under %.12g, and
  // integer to_chars is cheaper than the precision-12 path. They are 85% of
  // the values perfbench pool-fleet exports (docs/performance.md,
  // "Telemetry export"). -0 takes the general path to keep its sign.
  if (v > -1e12 && v < 1e12) {
    const auto whole = static_cast<int64_t>(v);
    if (static_cast<double>(whole) == v && (whole != 0 || !std::signbit(v))) {
      out.append(buf, std::to_chars(buf, buf + sizeof(buf), whole).ptr);
      return;
    }
  }
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 12).ptr);
}

void AppendJsonEscaped(std::string& out, std::string_view s) {
  constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(out, s);
  return out;
}

void WriteMetricsJson(std::ostream& os, const MetricRegistry& registry) {
  BufferedWriter out(os);
  out << "{\n  \"schema\": \"cxl-telemetry-v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : registry.counters()) {
    out << (first ? "" : ",") << "\n    " << Quoted{name} << ": " << counter->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : registry.gauges()) {
    if (!gauge->set()) {
      continue;
    }
    out << (first ? "" : ",") << "\n    " << Quoted{name} << ": " << gauge->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : registry.histograms()) {
    out << (first ? "" : ",") << "\n    " << Quoted{name} << ": ";
    WriteHistogramJson(out, hist);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"series\": {";
  first = true;
  for (const auto& [name, series] : registry.timeline().series()) {
    out << (first ? "" : ",") << "\n    " << Quoted{name} << ": [";
    bool first_point = true;
    for (const TimePoint& p : series.points()) {
      out << (first_point ? "[" : ",[") << p.t_ms << ',' << p.value << ']';
      first_point = false;
    }
    out << ']';
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

void WriteMetricsCsv(std::ostream& os, const MetricRegistry& registry) {
  BufferedWriter out(os);
  out << "kind,name,t_ms,value\n";
  for (const auto& [name, counter] : registry.counters()) {
    out << "counter," << name << ",," << counter->value() << '\n';
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    if (gauge->set()) {
      out << "gauge," << name << ",," << gauge->value() << '\n';
    }
  }
  for (const auto& [name, hist] : registry.histograms()) {
    out << "histogram," << name << ".count,," << hist.count() << '\n';
    out << "histogram," << name << ".mean,," << hist.mean() << '\n';
    out << "histogram," << name << ".p50,," << hist.p50() << '\n';
    out << "histogram," << name << ".p99,," << hist.p99() << '\n';
    out << "histogram," << name << ".p999,," << hist.p999() << '\n';
    out << "histogram," << name << ".max,," << hist.max() << '\n';
  }
  for (const auto& [name, series] : registry.timeline().series()) {
    for (const TimePoint& p : series.points()) {
      out << "series," << name << ',' << p.t_ms << ',' << p.value << '\n';
    }
  }
}

void WriteChromeTrace(std::ostream& os, const MetricRegistry& registry) {
  BufferedWriter out(os);
  // tid 0 is reserved for counter tracks; spans/instants start at tid 1.
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    out << (first ? "\n" : ",\n");
    first = false;
  };
  sep();
  out << R"({"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"cxl-explorer"}})";
  const TraceBuffer& trace = registry.trace();
  for (size_t i = 0; i < trace.tracks().size(); ++i) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << i + 1
        << ",\"name\":\"thread_name\",\"args\":{\"name\":" << Quoted{trace.tracks()[i]} << "}}";
  }
  for (const TraceBuffer::Event& e : trace.events()) {
    sep();
    out << "{\"ph\":\"" << e.phase << "\",\"pid\":1,\"tid\":" << e.track + 1
        << ",\"name\":" << Quoted{e.name} << ",\"ts\":" << MsToUs(e.ts_ms);
    if (e.phase == 'X') {
      out << ",\"dur\":" << MsToUs(e.dur_ms);
    }
    if (e.phase == 'i') {
      out << ",\"s\":\"t\"";
    }
    if (!e.args.empty()) {
      out << ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : e.args) {
        out << (first_arg ? "" : ",") << Quoted{key} << ':' << value;
        first_arg = false;
      }
      out << '}';
    }
    out << '}';
  }
  // Timeline series render as Perfetto counter tracks.
  for (const auto& [name, series] : registry.timeline().series()) {
    const std::string escaped_name = JsonEscape(name);
    for (const TimePoint& p : series.points()) {
      sep();
      out << "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"" << escaped_name
          << "\",\"ts\":" << MsToUs(p.t_ms) << ",\"args\":{\"value\":" << p.value << "}}";
    }
  }
  // Structured events: one instants track per emitting cell (tids after the
  // span tracks, in first-appearance order over the merged stream), plus flow
  // bindings so a fault window visually chains to its attributed responses.
  const EventLog& events = registry.events();
  if (!events.empty()) {
    std::map<int32_t, size_t> cell_tid;
    std::vector<int32_t> cell_order;
    events.ForEach([&](const Event& ev) {
      if (cell_tid.emplace(ev.cell, trace.tracks().size() + 1 + cell_order.size()).second) {
        cell_order.push_back(ev.cell);
      }
    });
    for (const int32_t cell : cell_order) {
      std::string label = "events";
      if (cell >= 0 && cell < static_cast<int32_t>(events.cells().size()) &&
          !events.cells()[cell].empty()) {
        label = events.cells()[cell] + "/events";
      }
      sep();
      out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << cell_tid[cell]
          << ",\"name\":\"thread_name\",\"args\":{\"name\":" << Quoted{label} << "}}";
    }
    events.ForEach([&](const Event& ev) {
      const size_t tid = cell_tid[ev.cell];
      const EventKindInfo& info = KindInfo(ev.kind);
      sep();
      out << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << tid << ",\"name\":\"" << info.name
          << "\",\"ts\":" << MsToUs(ev.t_ms) << ",\"s\":\"t\",\"args\":{";
      bool first_arg = true;
      auto arg = [&](const char* key, double value) {
        out << (first_arg ? "\"" : ",\"") << key << "\":" << value;
        first_arg = false;
      };
      if (ev.window != kNoWindow) {
        arg("window", ev.window);
      }
      if (info.reasons != nullptr) {
        arg("reason", ev.reason);
      }
      if (info.field_a != nullptr) {
        arg(info.field_a, ev.a);
      }
      if (info.field_b != nullptr) {
        arg(info.field_b, ev.b);
      }
      out << "}}";
      // Flow chain: window open starts, each attributed response is a step,
      // window close ends. Ids are unique per (cell, window).
      const char* flow = nullptr;
      if (ev.kind == EventKind::kFaultWindowOpen) {
        flow = "s";
      } else if (ev.kind == EventKind::kFaultWindowClose) {
        flow = "f";
      } else if (IsDegradationResponse(ev.kind)) {
        flow = "t";
      }
      if (flow != nullptr && ev.window != kNoWindow) {
        const long long id = (static_cast<long long>(ev.cell) + 2) * 100000 + ev.window;
        sep();
        out << "{\"ph\":\"" << flow << "\",\"pid\":1,\"tid\":" << tid
            << ",\"cat\":\"fault\",\"name\":\"fault_window\",\"id\":" << id
            << ",\"ts\":" << MsToUs(ev.t_ms);
        if (flow[0] == 'f') {
          out << ",\"bp\":\"e\"";
        }
        out << '}';
      }
    });
  }
  out << "\n]}\n";
}

void WriteEventsJsonl(std::ostream& os, const MetricRegistry& registry) {
  BufferedWriter out(os);
  const EventLog& log = registry.events();
  out << "{\"schema\":\"cxl-events-v1\",\"events\":" << log.size()
      << ",\"dropped\":" << log.dropped() << ",\"cells\":[";
  // Each label's `,"cell":"..."` field, escaped once for the whole log.
  std::vector<std::string> cell_fields;
  cell_fields.reserve(log.cells().size());
  for (const std::string& c : log.cells()) {
    out << (cell_fields.empty() ? "" : ",") << Quoted{c};
    cell_fields.push_back(",\"cell\":\"" + JsonEscape(c) + "\"");
  }
  out << "]}\n";
  log.ForEach([&](const Event& e) {
    const EventKindInfo& info = KindInfo(e.kind);
    out << "{\"t_ms\":" << e.t_ms << ",\"kind\":\"" << info.name << '"';
    if (e.cell >= 0 && e.cell < static_cast<int32_t>(cell_fields.size())) {
      out << cell_fields[static_cast<size_t>(e.cell)];
    }
    if (e.window != kNoWindow) {
      out << ",\"window\":" << e.window;
    }
    if (info.reasons != nullptr) {
      out << ",\"reason\":\"" << EventReasonName(e.kind, e.reason) << '"';
    }
    if (info.field_a != nullptr) {
      out << ",\"" << info.field_a << "\":" << e.a;
    }
    if (info.field_b != nullptr) {
      out << ",\"" << info.field_b << "\":" << e.b;
    }
    out << "}\n";
  });
}

}  // namespace cxl::telemetry
