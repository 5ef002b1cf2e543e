#include "src/telemetry/export.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/util/histogram.h"

namespace cxl::telemetry {
namespace {

MetricRegistry FilledRegistry() {
  MetricRegistry reg;
  reg.GetCounter("tiering.ticks").Add(22);
  reg.GetGauge("pcm.skt0.dram_gbps").Set(41.25);
  Histogram h;
  h.Record(100.0);
  h.Record(200.0);
  reg.RecordHistogram("kv.read_latency_us", h);
  reg.timeline().Sample("tiering.promote_mbps", 250.0, 3000.0);
  reg.timeline().Sample("tiering.promote_mbps", 500.0, 1500.0);
  const auto kv = reg.trace().Track("kv-server");
  reg.trace().Span(kv, "epoch 0", 0.0, 250.0, {{"kops", 880.0}});
  reg.trace().Instant(kv, "converged", 250.0);
  return reg;
}

TEST(ExportTest, MetricsJsonContainsEveryKind) {
  std::ostringstream os;
  WriteMetricsJson(os, FilledRegistry());
  const std::string out = os.str();
  EXPECT_NE(out.find("\"schema\": \"cxl-telemetry-v1\""), std::string::npos);
  EXPECT_NE(out.find("\"tiering.ticks\": 22"), std::string::npos);
  EXPECT_NE(out.find("\"pcm.skt0.dram_gbps\": 41.25"), std::string::npos);
  EXPECT_NE(out.find("\"kv.read_latency_us\""), std::string::npos);
  EXPECT_NE(out.find("\"count\":2"), std::string::npos);
  // Series render as [t, value] pairs in append order.
  EXPECT_NE(out.find("[250,3000]"), std::string::npos);
  EXPECT_NE(out.find("[500,1500]"), std::string::npos);
}

TEST(ExportTest, MetricsJsonIsDeterministic) {
  std::ostringstream a, b;
  WriteMetricsJson(a, FilledRegistry());
  WriteMetricsJson(b, FilledRegistry());
  EXPECT_EQ(a.str(), b.str());
}

TEST(ExportTest, MetricsCsvLongFormat) {
  std::ostringstream os;
  WriteMetricsCsv(os, FilledRegistry());
  const std::string out = os.str();
  EXPECT_NE(out.find("kind,name,t_ms,value"), std::string::npos);
  EXPECT_NE(out.find("counter,tiering.ticks,,22"), std::string::npos);
  EXPECT_NE(out.find("gauge,pcm.skt0.dram_gbps,,41.25"), std::string::npos);
  EXPECT_NE(out.find("series,tiering.promote_mbps,250,3000"), std::string::npos);
}

TEST(ExportTest, ChromeTraceShape) {
  std::ostringstream os;
  WriteChromeTrace(os, FilledRegistry());
  const std::string out = os.str();
  EXPECT_NE(out.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  // Track metadata names the kv-server row.
  EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("\"kv-server\""), std::string::npos);
  // The span: ph X at ts 0 with dur 250 ms = 250000 us.
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"dur\":250000"), std::string::npos);
  // The instant and the series-as-counter events.
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
}

TEST(ExportTest, EmptyRegistryStillWritesValidSkeletons) {
  MetricRegistry reg;
  std::ostringstream json, trace;
  WriteMetricsJson(json, reg);
  WriteChromeTrace(trace, reg);
  EXPECT_NE(json.str().find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(trace.str().find("\"traceEvents\":["), std::string::npos);
}

TEST(ExportTest, JsonEscapeControlAndQuotes) {
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape(std::string("\x01\x1f\r\t", 4)), "\\u0001\\u001f\\r\\t");
  std::string out = "\"";
  AppendJsonEscaped(out, "caf\xc3\xa9\"");
  EXPECT_EQ(out, "\"caf\xc3\xa9\\\"");  // UTF-8 bytes pass through.
}

// Counts the writes that reach the stream.
class CountingBuf : public std::stringbuf {
 public:
  int writes = 0;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    ++writes;
    return std::stringbuf::xsputn(s, n);
  }
};

TEST(ExportTest, LargeExportsStreamInChunks) {
  // Several 64 KiB chunks of JSONL: the joined output must equal the
  // per-event export line for line, and the stream sees one write per chunk.
  // A chunk boundary may fall inside a line.
  MetricRegistry reg;
  for (int i = 0; i < 5000; ++i) {
    reg.events().Record(Event(EventKind::kPagePromote, i * 0.37)
                            .WithReason(i % 4)
                            .WithA(i)
                            .WithB(1.0 / (i + 1)));
  }
  CountingBuf buf;
  std::ostream os(&buf);
  WriteEventsJsonl(os, reg);
  const std::string out = buf.str();
  const auto chunks = static_cast<int>(out.size() / (64 * 1024));
  EXPECT_GE(chunks, 4);
  EXPECT_GE(buf.writes, chunks);
  EXPECT_LE(buf.writes, chunks + 1);

  std::istringstream lines(out);
  std::string line;
  std::getline(lines, line);  // Meta line.
  int i = 0;
  reg.events().ForEach([&](const Event& e) {
    MetricRegistry single;
    single.events().Record(e);
    std::ostringstream alone;
    WriteEventsJsonl(alone, single);
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line + "\n", alone.str().substr(alone.str().find('\n') + 1)) << "event " << i;
    ++i;
  });
  EXPECT_FALSE(std::getline(lines, line));
}

}  // namespace
}  // namespace cxl::telemetry
