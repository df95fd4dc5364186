// Tests for the JSON writer and the report serializers.
#include <gtest/gtest.h>

#include "common/error.h"
#include "common/json.h"
#include "core/report_io.h"

namespace hetsim {
namespace {

using common::JsonWriter;

TEST(Json, FlatObject) {
  JsonWriter w;
  w.begin_object()
      .field("a", 1)
      .field("b", "two")
      .field("c", 2.5)
      .field("d", true)
      .end_object();
  EXPECT_EQ(w.str(), R"({"a":1,"b":"two","c":2.5,"d":true})");
}

TEST(Json, NestedContainers) {
  JsonWriter w;
  w.begin_object();
  w.key("list").begin_array().value(1).value(2).end_array();
  w.key("obj").begin_object().field("x", 0).end_object();
  w.key("none").null();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"list":[1,2],"obj":{"x":0},"none":null})");
}

TEST(Json, EmptyContainers) {
  JsonWriter w;
  w.begin_object()
      .key("a")
      .begin_array()
      .end_array()
      .key("o")
      .begin_object()
      .end_object()
      .end_object();
  EXPECT_EQ(w.str(), R"({"a":[],"o":{}})");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(common::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(common::json_escape(std::string_view("\x01", 1)), "\\u0001");
  JsonWriter w;
  w.begin_array().value("quo\"te").end_array();
  EXPECT_EQ(w.str(), "[\"quo\\\"te\"]");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.begin_array().value(std::numeric_limits<double>::infinity()).end_array();
  EXPECT_EQ(w.str(), "[null]");
}

TEST(Json, UnbalancedContainersThrow) {
  JsonWriter w;
  w.begin_object();
  EXPECT_THROW((void)w.str(), common::ConfigError);
  JsonWriter v;
  EXPECT_THROW(v.end_object(), common::ConfigError);
}

TEST(ReportIo, JobReportRoundsTheCorners) {
  core::JobReport r;
  r.strategy = core::Strategy::kHetAware;
  r.workload = "test-workload";
  r.partition_sizes = {10, 20};
  r.exec_time_s = 1.5;
  r.load_time_s = 0.25;
  r.dirty_energy_j = 100.0;
  r.green_energy_j = 50.0;
  r.quality = 3.0;
  r.total_work_units = 1e6;
  r.node_exec_s = {1.5, 0.75};
  const std::string json = core::to_json(r);
  EXPECT_NE(json.find(R"("strategy":"Het-Aware")"), std::string::npos);
  EXPECT_NE(json.find(R"("partition_sizes":[10,20])"), std::string::npos);
  EXPECT_NE(json.find(R"("total_energy_j":150)"), std::string::npos);
  EXPECT_NE(json.find(R"("node_exec_s":[1.5,0.75])"), std::string::npos);
}

TEST(ReportIo, FrontierSerializesAsArray) {
  std::vector<optimize::FrontierPoint> frontier(2);
  frontier[0].alpha = 1.0;
  frontier[0].makespan_s = 0.5;
  frontier[1].alpha = 0.5;
  frontier[1].dirty_joules = 42.0;
  const std::string json = core::frontier_to_json(frontier);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find(R"("alpha":0.5)"), std::string::npos);
  EXPECT_NE(json.find(R"("dirty_joules":42)"), std::string::npos);
}

}  // namespace
}  // namespace hetsim
