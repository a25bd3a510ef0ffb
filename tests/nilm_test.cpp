// Tests for the NILM module: the paper's error-factor metric, PowerPlay
// model-driven tracking, and the FHMM baseline harness.
#include <gtest/gtest.h>

#include "common/error.h"
#include "nilm/error.h"
#include "nilm/fhmm_nilm.h"
#include "nilm/powerplay.h"
#include "support/fhmm_oracle.h"
#include "synth/home.h"

namespace pmiot::nilm {
namespace {

TEST(ErrorMetric, PerfectTrackingScoresZero) {
  const std::vector<double> actual{1, 2, 0, 3};
  EXPECT_DOUBLE_EQ(disaggregation_error(actual, actual), 0.0);
}

TEST(ErrorMetric, AlwaysZeroEstimateScoresOne) {
  // The paper: "simply inferring a load's energy usage to be zero at each
  // time t results in a tracking error of one."
  const std::vector<double> actual{1, 2, 0, 3};
  const std::vector<double> zeros(actual.size(), 0.0);
  EXPECT_DOUBLE_EQ(disaggregation_error(zeros, actual), 1.0);
}

TEST(ErrorMetric, CanExceedOne) {
  const std::vector<double> actual{1, 1};
  const std::vector<double> wild{5, 5};
  EXPECT_GT(disaggregation_error(wild, actual), 1.0);
}

TEST(ErrorMetric, Validation) {
  const std::vector<double> a{1.0};
  const std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(disaggregation_error(a, b), InvalidArgument);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(disaggregation_error(zero, zero), InvalidArgument);
}

// --- LoadModel ----------------------------------------------------------------

TEST(LoadModel, FromSpecCyclical) {
  const auto m = LoadModel::from_spec(synth::fridge());
  EXPECT_TRUE(m.cyclical);
  EXPECT_NEAR(m.on_edge_kw,
              synth::fridge().steady_kw + synth::fridge().startup_spike_kw,
              1e-9);
  EXPECT_NEAR(m.off_edge_kw, synth::fridge().steady_kw, 1e-9);
  EXPECT_GT(m.expected_off_minutes, 0.0);
}

TEST(LoadModel, FromSpecInteractiveMultiPhase) {
  const auto m = LoadModel::from_spec(synth::dryer());
  EXPECT_FALSE(m.cyclical);
  // Multi-phase: the alternate on edge is the heater re-engagement.
  EXPECT_NEAR(m.alt_on_edge_kw,
              synth::dryer().steady_kw - synth::dryer().low_kw, 1e-9);
  EXPECT_NEAR(m.track_kw, synth::dryer().steady_kw, 1e-9);
}

TEST(PowerPlay, RejectsEmptyModels) {
  EXPECT_THROW(PowerPlay({}), InvalidArgument);
}

TEST(PowerPlay, TracksIsolatedCyclicalLoad) {
  synth::HomeConfig cfg;
  cfg.name = "fridge-only";
  cfg.appliances = {synth::fridge()};
  cfg.meter_noise_kw = 0.0;
  Rng rng(1);
  const auto trace = synth::simulate_home(cfg, CivilDate{2017, 6, 1}, 3, rng);
  PowerPlay tracker({LoadModel::from_spec(synth::fridge())});
  const auto tracked = tracker.track(trace.aggregate);
  ASSERT_EQ(tracked.size(), 1u);
  const double err = disaggregation_error(tracked[0].power,
                                          trace.per_appliance[0].values());
  EXPECT_LT(err, 0.3);
}

TEST(PowerPlay, TracksIsolatedInteractiveLoad) {
  synth::HomeConfig cfg;
  cfg.name = "toaster-only";
  auto spec = synth::toaster();
  spec.hourly_rate.fill(1.0);  // frequent events for a short test trace
  cfg.appliances = {spec};
  cfg.meter_noise_kw = 0.0;
  Rng rng(2);
  const auto trace = synth::simulate_home(cfg, CivilDate{2017, 6, 1}, 3, rng);
  PowerPlay tracker({LoadModel::from_spec(spec)});
  const auto tracked = tracker.track(trace.aggregate);
  const double err = disaggregation_error(tracked[0].power,
                                          trace.per_appliance[0].values());
  EXPECT_LT(err, 0.35);
}

TEST(PowerPlay, RobustToUnmodelledLoads) {
  // The Figure 2 claim: tracked-load error stays bounded even with
  // untracked interactive loads present.
  Rng rng(3);
  const auto trace =
      synth::simulate_home(synth::fig2_home(), CivilDate{2017, 6, 1}, 7, rng);
  std::vector<LoadModel> models;
  for (const auto& name : {"fridge", "dryer", "hrv"}) {
    for (const auto& spec : synth::fig2_home().appliances) {
      if (spec.name == name) models.push_back(LoadModel::from_spec(spec));
    }
  }
  PowerPlay tracker(models);
  const auto tracked = tracker.track(trace.aggregate);
  for (std::size_t i = 0; i < tracked.size(); ++i) {
    const auto idx = trace.appliance_index(tracked[i].name);
    if (trace.per_appliance[idx].energy_kwh() <= 0.0) continue;  // never ran
    const double err = disaggregation_error(
        tracked[i].power, trace.per_appliance[idx].values());
    EXPECT_LT(err, 0.9) << tracked[i].name;
  }
}

TEST(PowerPlay, BeatsZeroBaselineOnFig2Home) {
  Rng rng(4);
  const auto trace =
      synth::simulate_home(synth::fig2_home(), CivilDate{2017, 6, 1}, 14, rng);
  std::vector<LoadModel> models;
  for (const auto& spec : synth::fig2_home().appliances) {
    for (const auto& name : {"toaster", "fridge", "freezer", "dryer", "hrv"}) {
      if (spec.name == name) models.push_back(LoadModel::from_spec(spec));
    }
  }
  PowerPlay tracker(models);
  const auto tracked = tracker.track(trace.aggregate);
  double mean_err = 0.0;
  int scored = 0;
  for (std::size_t i = 0; i < tracked.size(); ++i) {
    const auto idx = trace.appliance_index(tracked[i].name);
    if (trace.per_appliance[idx].energy_kwh() <= 0.0) continue;  // never ran
    mean_err += disaggregation_error(tracked[i].power,
                                     trace.per_appliance[idx].values());
    ++scored;
  }
  ASSERT_GT(scored, 0);
  mean_err /= scored;
  EXPECT_LT(mean_err, 0.75);  // the all-zero strawman scores exactly 1.0
}

// --- FHMM NILM -------------------------------------------------------------------

TEST(FhmmNilm, LearnsAndDecodesFig2Devices) {
  Rng rng(5);
  const auto cfg = synth::fig2_home();
  const auto train = synth::simulate_home(cfg, CivilDate{2017, 5, 1}, 7, rng);
  const auto test = synth::simulate_home(cfg, CivilDate{2017, 6, 1}, 7, rng);

  Rng fit_rng(6);
  FhmmNilmOptions options;
  options.states_per_appliance = 2;
  FhmmNilm model(train, {"fridge", "dryer"}, fit_rng, options);
  EXPECT_GT(model.noise_kw(), 0.0);
  EXPECT_LE(model.joint_states(), 4096u);

  const auto estimates = model.disaggregate(test.aggregate);
  ASSERT_EQ(estimates.size(), 2u);
  // The dryer is a huge load: the FHMM must track it well (the paper's
  // Figure 2 "exception").
  const auto dryer_idx = test.appliance_index("dryer");
  const double dryer_err = disaggregation_error(
      estimates[1], test.per_appliance[dryer_idx].values());
  EXPECT_LT(dryer_err, 0.45);
}

TEST(FhmmNilm, FactoredAndNaiveDecodersAgree) {
  Rng rng(11);
  const auto cfg = synth::fig2_home();
  const auto train = synth::simulate_home(cfg, CivilDate{2017, 5, 1}, 5, rng);
  const auto test = synth::simulate_home(cfg, CivilDate{2017, 6, 1}, 2, rng);

  FhmmNilmOptions options;
  options.states_per_appliance = 2;
  Rng fit_rng(12);
  FhmmNilm nilm(train, {"fridge", "dryer"}, fit_rng, options);
  // The naive decode of the same model, less its trailing background
  // chain, is what `disaggregate` must return.
  auto naive =
      oracle::decode_naive(nilm.model(), test.aggregate.values()).appliance_power;
  ASSERT_EQ(naive.size(), nilm.tracked().size() + 1);
  naive.resize(nilm.tracked().size());

  EXPECT_EQ(nilm.disaggregate(test.aggregate), naive);
}

TEST(FhmmNilm, RejectsUnknownAppliance) {
  Rng rng(7);
  const auto train =
      synth::simulate_home(synth::fig2_home(), CivilDate{2017, 5, 1}, 2, rng);
  Rng fit_rng(8);
  EXPECT_THROW(FhmmNilm(train, {"spaceship"}, fit_rng), InvalidArgument);
}

TEST(FhmmNilm, RequiresAtLeastTwoStates) {
  Rng rng(9);
  const auto train =
      synth::simulate_home(synth::fig2_home(), CivilDate{2017, 5, 1}, 2, rng);
  Rng fit_rng(10);
  FhmmNilmOptions options;
  options.states_per_appliance = 1;
  EXPECT_THROW(FhmmNilm(train, {"fridge"}, fit_rng, options),
               InvalidArgument);
}

}  // namespace
}  // namespace pmiot::nilm
