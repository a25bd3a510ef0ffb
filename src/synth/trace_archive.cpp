#include "synth/trace_archive.h"

#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "common/kv_config.h"

namespace pmiot::synth {
namespace {

std::string column_path(const std::string& dir, const std::string& stem) {
  return dir + "/" + stem + ".pmiotbt";
}

}  // namespace

void save_home_trace(const std::string& dir, const HomeTrace& trace) {
  PMIOT_CHECK(!trace.aggregate.empty(), "home trace has no aggregate samples");
  PMIOT_CHECK(trace.appliance_names.size() == trace.per_appliance.size(),
              "appliance roster does not match the submeter columns");
  PMIOT_CHECK(trace.occupancy.size() == trace.aggregate.size(),
              "occupancy labels do not cover the aggregate");
  std::filesystem::create_directories(dir);

  // pmiot-lint: allow(privacy-flow) — the archive is the simulator's own
  // ground-truth store (local benchmark input), not a release channel; the
  // released/defended view goes through src/defense and src/campaign.
  std::ofstream manifest(dir + "/manifest.txt");
  PMIOT_CHECK(static_cast<bool>(manifest),
              "cannot write home-trace manifest in " + dir);
  manifest << "# pmiot-home v1\n";
  manifest << "name = " << trace.name << '\n';
  for (const auto& name : trace.appliance_names) {
    manifest << "appliance = " << name << '\n';
  }
  PMIOT_CHECK(static_cast<bool>(manifest),
              "failed writing home-trace manifest in " + dir);

  ts::save_binary(column_path(dir, "aggregate"), trace.aggregate);
  // Labels ride in the same container as the power columns: 0/1 stored as
  // doubles, which round-trip exactly.
  std::vector<double> labels(trace.occupancy.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<double>(trace.occupancy[i]);
  }
  ts::save_binary(column_path(dir, "occupancy"),
                  ts::TimeSeries(trace.aggregate.meta(), std::move(labels)));
  for (std::size_t i = 0; i < trace.per_appliance.size(); ++i) {
    ts::save_binary(column_path(dir, "appliance_" + std::to_string(i)),
                    trace.per_appliance[i]);
  }
}

HomeTraceView::HomeTraceView(const std::string& dir)
    : occupancy_(column_path(dir, "occupancy")) {
  std::ifstream manifest(dir + "/manifest.txt");
  PMIOT_CHECK(static_cast<bool>(manifest),
              "missing home-trace manifest in " + dir);
  std::string line;
  PMIOT_CHECK(std::getline(manifest, line) &&
                  kv::trim(line) == "# pmiot-home v1",
              "missing pmiot-home manifest header in " + dir);
  while (std::getline(manifest, line)) {
    // Unlike the config grammar, '#' opens a comment only at line start.
    line = kv::trim(line);
    if (line.empty() || line.front() == '#') continue;
    const auto [key, value] = kv::split_pair(line, "home-trace manifest");
    if (key == "name") {
      name_ = value;
    } else if (key == "appliance") {
      appliance_names_.push_back(value);
    } else {
      PMIOT_CHECK(false, "unknown home-trace manifest key: " + key);
    }
  }

  columns_.reserve(1 + appliance_names_.size());
  columns_.emplace_back(column_path(dir, "aggregate"));
  for (std::size_t i = 0; i < appliance_names_.size(); ++i) {
    columns_.emplace_back(column_path(dir, "appliance_" + std::to_string(i)));
  }

  const ts::TraceView& agg = columns_.front();
  PMIOT_CHECK(occupancy_.meta() == agg.meta() &&
                  occupancy_.size() == agg.size(),
              "occupancy column does not align with the aggregate");
  for (std::size_t i = 1; i < columns_.size(); ++i) {
    PMIOT_CHECK(columns_[i].meta() == agg.meta() &&
                    columns_[i].size() == agg.size(),
                "appliance column does not align with the aggregate");
  }
}

HomeTrace HomeTraceView::materialize() const {
  HomeTrace out;
  out.name = name_;
  out.aggregate = columns_.front().materialize();
  out.appliance_names = appliance_names_;
  out.per_appliance.reserve(appliance_names_.size());
  for (std::size_t i = 0; i < appliance_names_.size(); ++i) {
    out.per_appliance.push_back(columns_[1 + i].materialize());
  }
  const std::span<const double> labels = occupancy_.values();
  out.occupancy.resize(labels.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    out.occupancy[i] = static_cast<int>(labels[i]);
  }
  return out;
}

HomeTrace load_home_trace(const std::string& dir) {
  return HomeTraceView(dir).materialize();
}

}  // namespace pmiot::synth
