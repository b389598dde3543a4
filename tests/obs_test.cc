// Direct unit tests of the observability library: Tracer span bookkeeping
// (nesting, defensive End, id reset), ScopedSpan's disabled mode,
// MetricsRegistry semantics and renderings, JsonQuote escaping, and the
// RenderSpanTree/Explain options. The integration surface (instrumented
// evaluators, facades) is covered by trace_golden_test / trace_parallel_test.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/explain.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace deddb::obs {
namespace {

// ---- Tracer ----------------------------------------------------------------

TEST(TracerTest, SequentialIdsAndStackParenting) {
  Tracer tracer;
  SpanId outer = tracer.Begin("outer");
  SpanId inner = tracer.Begin("inner");
  EXPECT_EQ(outer, 1u);
  EXPECT_EQ(inner, 2u);
  tracer.End(inner);
  SpanId sibling = tracer.Begin("sibling");
  tracer.End(sibling);
  tracer.End(outer);
  SpanId root2 = tracer.Begin("root2");
  tracer.End(root2);

  auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, kNoSpan);
  EXPECT_EQ(spans[1].parent, outer);
  EXPECT_EQ(spans[2].parent, outer);  // after inner ended, outer is innermost
  EXPECT_EQ(spans[3].parent, kNoSpan);
  EXPECT_EQ(tracer.size(), 4u);
}

TEST(TracerTest, EndingParentClosesOpenChildren) {
  Tracer tracer;
  SpanId outer = tracer.Begin("outer");
  SpanId inner = tracer.Begin("inner");
  tracer.End(outer);  // defensively closes `inner` too
  auto spans = tracer.Snapshot();
  EXPECT_GT(spans[inner - 1].end_ns, 0);
  // Both already ended: a second End is a no-op, as is an unknown id.
  tracer.End(inner);
  tracer.End(kNoSpan);
  tracer.End(999);
  EXPECT_EQ(tracer.size(), 2u);
}

TEST(TracerTest, AttrsIgnoreInvalidIds) {
  Tracer tracer;
  SpanId span = tracer.Begin("s");
  tracer.AttrInt(span, "n", 7);
  tracer.AttrStr(span, "txn", "{ins Q(A)}");
  tracer.AttrInt(kNoSpan, "ignored", 1);
  tracer.AttrStr(kNoSpan, "ignored", "x");
  tracer.AttrInt(999, "ignored", 1);
  tracer.AttrStr(999, "ignored", "x");
  tracer.End(span);

  auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_EQ(spans[0].attrs.size(), 2u);
  EXPECT_TRUE(spans[0].attrs[0].is_int);
  EXPECT_EQ(spans[0].attrs[0].int_value, 7);
  EXPECT_FALSE(spans[0].attrs[1].is_int);
  EXPECT_EQ(spans[0].attrs[1].str_value, "{ins Q(A)}");
}

TEST(TracerTest, ClearResetsIdCounter) {
  Tracer tracer;
  tracer.End(tracer.Begin("a"));
  tracer.End(tracer.Begin("b"));
  tracer.Clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.Begin("fresh"), 1u);
}

TEST(TracerTest, ToJsonSerializesSpansAndAttrs) {
  Tracer tracer;
  SpanId span = tracer.Begin("eval");
  tracer.AttrInt(span, "rounds", 3);
  tracer.AttrStr(span, "goal", "P(\"x\")");
  tracer.End(span);
  std::string json = tracer.ToJson();
  EXPECT_NE(json.find("\"name\":\"eval\""), std::string::npos);
  EXPECT_NE(json.find("\"rounds\":3"), std::string::npos);
  EXPECT_NE(json.find("\"goal\":\"P(\\\"x\\\")\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":0"), std::string::npos);
}

TEST(ScopedSpanTest, DisabledModeIsInert) {
  ScopedSpan span(nullptr, "never");
  EXPECT_FALSE(span.enabled());
  span.AttrInt("n", 1);     // all no-ops
  span.AttrStr("s", "x");
}

TEST(ScopedSpanTest, EnabledModeRecords) {
  Tracer tracer;
  {
    ScopedSpan span(&tracer, "work");
    EXPECT_TRUE(span.enabled());
    span.AttrInt("n", 1);
  }
  auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_GT(spans[0].end_ns, 0);
}

// ---- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  MetricsRegistry metrics;
  EXPECT_EQ(metrics.counter("missing"), 0u);
  EXPECT_EQ(metrics.gauge("missing"), 0);
  EXPECT_EQ(metrics.histogram("missing").count, 0u);

  metrics.Add("eval.rounds");
  metrics.Add("eval.rounds", 4);
  EXPECT_EQ(metrics.counter("eval.rounds"), 5u);

  metrics.Set("facts", 10);
  metrics.Set("facts", -3);  // gauges overwrite
  EXPECT_EQ(metrics.gauge("facts"), -3);

  metrics.Observe("sizes", 4);
  metrics.Observe("sizes", -1);
  metrics.Observe("sizes", 2);
  auto h = metrics.histogram("sizes");
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 5);
  EXPECT_EQ(h.min, -1);
  EXPECT_EQ(h.max, 4);
}

TEST(MetricsRegistryTest, RenderTextIsSortedAndExact) {
  MetricsRegistry metrics;
  metrics.Add("b.count", 2);
  metrics.Add("a.count", 1);
  metrics.Set("g", 7);
  metrics.Observe("h", 3);
  EXPECT_EQ(metrics.RenderText(),
            "counter a.count 1\n"
            "counter b.count 2\n"
            "gauge g 7\n"
            "histogram h count=1 sum=3 min=3 max=3\n");
}

TEST(MetricsRegistryTest, ToJsonIsExact) {
  MetricsRegistry metrics;
  metrics.Add("c", 2);
  metrics.Set("g", -1);
  metrics.Observe("h", 5);
  EXPECT_EQ(metrics.ToJson(),
            "{\"counters\":{\"c\":2},\"gauges\":{\"g\":-1},"
            "\"histograms\":{\"h\":{\"count\":1,\"sum\":5,\"min\":5,"
            "\"max\":5}}}");
  const MetricsRegistry empty;
  EXPECT_EQ(empty.ToJson(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
  EXPECT_EQ(empty.RenderText(), "");
}

TEST(MetricsRegistryTest, HandlesShareCellsAcrossThreads) {
  MetricsRegistry metrics;
  Counter* counter = metrics.GetCounter("c");
  Gauge* gauge = metrics.GetGauge("g");
  // A handle and the named methods reach one cell, and getting a handle
  // twice returns the same one.
  EXPECT_EQ(metrics.GetCounter("c"), counter);
  EXPECT_EQ(metrics.ToJson(),
            "{\"counters\":{\"c\":0},\"gauges\":{\"g\":0},"
            "\"histograms\":{}}");
  counter->Add(2);
  metrics.Add("c", 3);
  EXPECT_EQ(counter->value(), 5u);
  EXPECT_EQ(metrics.counter("c"), 5u);
  metrics.Set("g", 9);
  EXPECT_EQ(gauge->value(), 9);
  gauge->Set(-4);
  EXPECT_EQ(metrics.gauge("g"), -4);

  // Four writers bump handles (and register new names, moving the maps
  // under the handles) while a fifth thread renders.
  constexpr int kWriters = 4;
  constexpr uint64_t kBumps = 20000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      EXPECT_FALSE(metrics.ToJson().empty());
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Counter* own = metrics.GetCounter("w" + std::to_string(w));
      for (uint64_t i = 0; i < kBumps; ++i) {
        counter->Add();
        own->Add();
        if (i % 1000 == 0) {
          metrics.Add("n" + std::to_string(w) + "." + std::to_string(i));
          gauge->Set(static_cast<int64_t>(i));
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(metrics.counter("c"), 5 + kWriters * kBumps);
  for (int w = 0; w < kWriters; ++w) {
    EXPECT_EQ(metrics.counter("w" + std::to_string(w)), kBumps);
    EXPECT_EQ(metrics.counter("n" + std::to_string(w) + ".19000"), 1u);
  }
  EXPECT_EQ(gauge->value() % 1000, 0);
}

TEST(MetricsRegistryTest, NullablePointerHelpers) {
  MetricsRegistry::Add(nullptr, "x");
  MetricsRegistry::Set(nullptr, "x", 1);
  MetricsRegistry::Observe(nullptr, "x", 1);

  MetricsRegistry metrics;
  MetricsRegistry::Add(&metrics, "x", 3);
  MetricsRegistry::Set(&metrics, "y", 4);
  MetricsRegistry::Observe(&metrics, "z", 5);
  EXPECT_EQ(metrics.counter("x"), 3u);
  EXPECT_EQ(metrics.gauge("y"), 4);
  EXPECT_EQ(metrics.histogram("z").sum, 5);
}

// ---- JsonQuote -------------------------------------------------------------

TEST(JsonQuoteTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonQuote(""), "\"\"");
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonQuote("a\nb\rc\td"), "\"a\\nb\\rc\\td\"");
  EXPECT_EQ(JsonQuote(std::string_view("\x01", 1)), "\"\\u0001\"");
  // Bytes >= 0x20 pass through untouched (UTF-8 stays valid).
  EXPECT_EQ(JsonQuote("δP(x)"), "\"δP(x)\"");
}

// ---- Render options --------------------------------------------------------

TEST(RenderSpanTreeTest, OptionsAddIdsAndTimings) {
  Tracer tracer;
  SpanId outer = tracer.Begin("outer");
  SpanId inner = tracer.Begin("inner");
  tracer.AttrInt(inner, "n", 2);
  tracer.AttrStr(inner, "who", "P(A)");
  tracer.End(inner);
  tracer.End(outer);

  EXPECT_EQ(RenderSpanTree(tracer),
            "outer\n"
            "  inner n=2 who=\"P(A)\"\n");

  RenderOptions options;
  options.include_ids = true;
  options.include_timings = true;
  std::string rendered = RenderSpanTree(tracer.Snapshot(), options);
  EXPECT_NE(rendered.find("#1 outer"), std::string::npos);
  EXPECT_NE(rendered.find("#2 inner"), std::string::npos);
  EXPECT_NE(rendered.find("dur_us="), std::string::npos);
}

TEST(ExplainTest, UnknownSpanNamesFallBackToRawRendering) {
  Tracer tracer;
  SpanId span = tracer.Begin("custom.phase");
  tracer.AttrInt(span, "items", 3);
  tracer.End(span);
  std::string out = Explain(tracer);
  EXPECT_NE(out.find("custom.phase"), std::string::npos);
  EXPECT_NE(out.find("items=3"), std::string::npos);
}

}  // namespace
}  // namespace deddb::obs
