#include "obs/metrics.h"

#include "obs/json.h"
#include "util/strings.h"

namespace deddb::obs {

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.try_emplace(std::string(name)).first;
  }
  return &it->second;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.try_emplace(std::string(name)).first;
  }
  return &it->second;
}

void MetricsRegistry::Add(std::string_view name, uint64_t delta) {
  GetCounter(name)->Add(delta);
}

void MetricsRegistry::Set(std::string_view name, int64_t value) {
  GetGauge(name)->Set(value);
}

void MetricsRegistry::Observe(std::string_view name, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  Histogram& h = it->second;
  if (h.count == 0) {
    h.min = value;
    h.max = value;
  } else {
    if (value < h.min) h.min = value;
    if (value > h.max) h.max = value;
  }
  ++h.count;
  h.sum += value;
}

uint64_t MetricsRegistry::counter(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

int64_t MetricsRegistry::gauge(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0 : it->second.value();
}

MetricsRegistry::HistogramSnapshot MetricsRegistry::histogram(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) return HistogramSnapshot{};
  return HistogramSnapshot{it->second.count, it->second.sum, it->second.min,
                           it->second.max};
}

std::string MetricsRegistry::RenderText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, cell] : counters_) {
    out += StrCat("counter ", name, " ", cell.value(), "\n");
  }
  for (const auto& [name, cell] : gauges_) {
    out += StrCat("gauge ", name, " ", cell.value(), "\n");
  }
  for (const auto& [name, h] : histograms_) {
    out += StrCat("histogram ", name, " count=", h.count, " sum=", h.sum,
                  " min=", h.min, " max=", h.max, "\n");
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, cell] : counters_) {
    if (!first) out += ",";
    first = false;
    out += StrCat(JsonQuote(name), ":", cell.value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, cell] : gauges_) {
    if (!first) out += ",";
    first = false;
    out += StrCat(JsonQuote(name), ":", cell.value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += StrCat(JsonQuote(name), ":{\"count\":", h.count, ",\"sum\":", h.sum,
                  ",\"min\":", h.min, ",\"max\":", h.max, "}");
  }
  out += "}}";
  return out;
}

}  // namespace deddb::obs
